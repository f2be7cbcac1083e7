/**
 * @file
 * Host-thread contention microbenchmark for the memory-system engine's
 * two-level tile/shard locking on an L1-hit-dominated workload — the
 * case the paper's per-home-tile MME servers make embarrassingly
 * parallel — on a miss path through the network and DRAM models, and
 * on L2 write hits.
 *
 * Two metrics per (lockdep, threads) point:
 *
 *  - wall throughput: ops / elapsed wall time. Only meaningful as a
 *    scaling signal when the host has >= threads CPUs.
 *  - serialized (critical-path) throughput: ops / the largest
 *    per-thread CPU time (CLOCK_THREAD_CPUTIME_ID). An L1-hit workload
 *    takes no cross-thread lock, so the slowest thread bounds the
 *    elapsed time on a host with enough CPUs. This bound is
 *    host-CPU-count independent.
 *
 * Each point runs with lockdep (the lock-order checker,
 * src/common/lockdep.h) runtime-off and enforcing: the per-acquisition
 * order check walks the thread's held-set on this benchmark's hottest
 * path, so the armed/off throughput ratio IS the lockdep tax on the
 * worst realistic case. A separate tight loop measures the raw
 * per-lock/unlock wrapper cost against a plain std::mutex for
 * reference: runtime-off and enforcing with nothing else held, and
 * enforcing with one lower-ranked lock held, where every acquisition
 * is order-checked against it.
 *
 * Threads share no line and no lock, so any memory the engine writes
 * on every access for all of them (a process-wide counter or
 * histogram) shows up as lost scaling: l1_hit_scaling_4t is the armed
 * serialized throughput at 4 threads over 1 thread, ideally 4.
 *
 * The miss rows (armed, 1 and 4 threads) make every access miss the L1
 * and the L2: each thread cycles through one more line than the L2 has
 * ways, all in one set and homed at a tile no other thread uses. An
 * access then runs a request leg and a reply leg through the contention
 * mesh and a DRAM fetch at the home. The threads share no line, tile
 * lock or shard lock; what they still share is the network model (its
 * global-progress estimate, the mesh links their routes cross and its
 * counters). miss_scaling_4t is the armed serialized throughput at 4
 * threads over 1 on this path, the median of three runs of each. It is
 * reported, not gated.
 *
 * The L2 write-hit rows (armed, 1 and 4 threads, three runs each)
 * rewrite lines the thread's tile holds Modified, so every write
 * completes in the L2 under its own tile lock. All the lines are homed
 * at one tile, so any per-write state the engine keeps at the home (a
 * lock or a table there) is shared by every thread.
 * write_hit_scaling_4t is the armed serialized throughput at 4 threads
 * over 1 on this path. It is reported, not gated.
 *
 * The four points the criterion reads (armed L1 hits at 1 and 4
 * threads, off and armed at 8) run three times, interleaved with the
 * rest of the sweep, and each counts with its median serialized
 * throughput. On a 4-CPU virtual host one run of the 1-thread armed
 * row reads about 8 Mops most of the time and 10-15 Mops now and then,
 * while the 4-thread row stays within 30-35 Mops; the best of three
 * would pick the fast outliers and pull l1_hit_scaling_4t down, the
 * median does not.
 *
 * Emits BENCH_mem_contention.json with every repetition; the criterion
 * is l1_hit_scaling_4t >= 2.5 && lockdep_overhead_8t <= 1.25. Only full
 * size measures the scaling: GRAPHITE_BENCH_FAST's short loops hide a
 * shared counter's cost.
 */

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <mutex>

#include "common/config.h"
#include "common/lockdep.h"
#include "common/stats.h"
#include "common/table.h"
#include "mem/memory_system.h"

namespace graphite
{
namespace
{

constexpr int TILES = 8;
constexpr addr_t BASE = 0x1000'0000;
constexpr int LINES_PER_THREAD = 64; // fits every L1
/** Miss-path threads use tiles 0-3 and homes 4-7. */
constexpr int MISS_MAX_THREADS = TILES / 2;
/** Runs of each point the criterion reads. */
constexpr int GATED_REPS = 3;

/** What every measured access does. */
enum class Path
{
    L1Hit,     ///< re-reads one of the thread's private lines, held in L1
    Miss,      ///< misses L1 and L2: request leg, DRAM fetch, reply leg
    L2WriteHit ///< rewrites a private line held Modified, homed at tile 0
};

const char*
pathName(Path p)
{
    switch (p) {
      case Path::L1Hit: return "l1_hit";
      case Path::Miss: return "miss";
      case Path::L2WriteHit: return "l2_write_hit";
    }
    return "?";
}

/** CPU time consumed by the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RunResult
{
    Path path = Path::L1Hit;
    std::string lockdepMode; // "off" | "armed"
    int threads = 0;
    int rep = 0; ///< repetition of this point, from 0
    std::uint64_t totalOps = 0;
    double wallSeconds = 0.0;
    double cpuSumSeconds = 0.0;
    double cpuMaxSeconds = 0.0;
    stat_t shardContended = 0;
    stat_t tileContended = 0;
    /**
     * Measured accesses that took the wrong path: a miss-path access
     * that hit a cache, or a write-hit access that missed the L2.
     */
    stat_t offPath = 0;

    double wallThroughput() const { return totalOps / wallSeconds; }
    /** Throughput bound set by the slowest thread's CPU time. */
    double serializedThroughput() const
    {
        return totalOps / cpuMaxSeconds;
    }
};

RunResult
runConfig(Path path, bool lockdep_armed, int threads, std::uint64_t ops,
          int rep = 0)
{
    lockdep::setMode(lockdep_armed ? lockdep::Mode::Enforce
                                   : lockdep::Mode::Off);
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", TILES);
    ClusterTopology topo(TILES, 1);
    NetworkFabric fabric(topo, cfg);
    MemorySystem mem(topo, fabric, cfg);

    // Access `it` of thread i (on tile i). L1 hit: one of 64 private
    // lines. Miss: one of ways + 1 lines that share an L2 set, so LRU
    // evicts each before its reuse, all homed at tile i + TILES/2.
    // L2 write hit: one of 64 private lines, every TILES-th line from
    // BASE, so all of them are homed at tile 0.
    const addr_t line = mem.lineSize();
    const addr_t l2_sets = mem.l2(0).numSets();
    const std::uint64_t miss_lines = mem.l2(0).associativity() + 1;
    if (path == Path::Miss &&
        (threads > MISS_MAX_THREADS || l2_sets % TILES != 0 ||
         BASE / line % l2_sets != 0)) {
        std::fprintf(stderr, "miss path: the line layout does not fit "
                             "this cache geometry\n");
        std::exit(2);
    }
    auto address = [&](int i, std::uint64_t it) -> addr_t {
        if (path == Path::L1Hit)
            return BASE + static_cast<addr_t>(i) * 0x10000 +
                   (it % LINES_PER_THREAD) * line;
        if (path == Path::L2WriteHit)
            return BASE + (static_cast<addr_t>(i) * LINES_PER_THREAD +
                           it % LINES_PER_THREAD) *
                              TILES * line;
        addr_t home = static_cast<addr_t>(i + MISS_MAX_THREADS);
        return BASE + (home + (it % miss_lines) * l2_sets) * line;
    };

    // Warm-up: one pass over every thread's lines, so the L1-hit loop
    // is pure L1 read hits, the miss loop starts from a full set and
    // the write-hit loop finds every line Modified.
    const MemAccessType type = path == Path::L2WriteHit
                                   ? MemAccessType::Write
                                   : MemAccessType::Read;
    const std::uint64_t warm =
        path == Path::Miss ? miss_lines : LINES_PER_THREAD;
    for (int i = 0; i < threads; ++i) {
        for (std::uint64_t it = 0; it < warm; ++it) {
            std::uint64_t v = 0;
            mem.access(i % TILES, type, address(i, it), &v, 8, 0);
        }
    }

    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    std::vector<double> cpu(threads, 0.0);
    std::vector<stat_t> off_path(threads, 0);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int i = 0; i < threads; ++i) {
        workers.emplace_back([&, i] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            double t0 = threadCpuSeconds();
            std::uint64_t v = 0;
            // The miss loop advances a local clock by each latency, so
            // its stamps move like a running thread's.
            cycle_t now = 0;
            for (std::uint64_t it = 0; it < ops; ++it) {
                cycle_t stamp =
                    path == Path::Miss ? now : static_cast<cycle_t>(it);
                AccessResult res = mem.access(i % TILES, type,
                                              address(i, it), &v, 8, stamp);
                now += res.latency;
                if ((path == Path::Miss && (res.l1Hit || res.l2Hit)) ||
                    (path == Path::L2WriteHit && !res.l2Hit))
                    ++off_path[i];
            }
            cpu[i] = threadCpuSeconds() - t0;
        });
    }
    while (ready.load() != threads) {
    }
    auto w0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers)
        w.join();
    auto w1 = std::chrono::steady_clock::now();

    RunResult r;
    r.path = path;
    r.lockdepMode = lockdep_armed ? "armed" : "off";
    r.threads = threads;
    r.rep = rep;
    r.totalOps = ops * static_cast<std::uint64_t>(threads);
    r.wallSeconds = std::chrono::duration<double>(w1 - w0).count();
    for (double c : cpu) {
        r.cpuSumSeconds += c;
        r.cpuMaxSeconds = std::max(r.cpuMaxSeconds, c);
    }
    for (stat_t n : off_path)
        r.offPath += n;
    StatsRegistry stats;
    mem.registerStats(stats);
    r.shardContended = stats.get("mem.shard_lock.contended");
    r.tileContended = stats.get("mem.tile_lock.contended");
    return r;
}

bool
fastMode()
{
    const char* v = std::getenv("GRAPHITE_BENCH_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/** ns per uncontended lock/unlock pair for @p iters iterations. */
template <class Lockable>
double
wrapperNsPerOp(Lockable& m, std::uint64_t iters)
{
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        m.lock();
        m.unlock();
    }
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
}

} // namespace
} // namespace graphite

int
main()
{
    using namespace graphite;

    std::uint64_t ops = fastMode() ? 100'000 : 1'000'000;
    // A miss costs tens of L1 hits; fewer ops keep the rows short.
    std::uint64_t miss_ops = ops / 10;
    const int thread_counts[] = {1, 2, 4, 8};

    std::printf("=== micro_lock_contention ===\n");
    std::printf(
        "Engine-lock scaling: tile/shard locking on an L1-hit "
        "workload, a miss path and L2 write hits.\nHost CPUs: %u (serialized "
        "throughput is the host-independent lock-structure bound).\n\n",
        std::thread::hardware_concurrency());

    // Repetitions of the gated points are spread over the sweep, so one
    // busy moment on the host cannot spoil all of them.
    auto gated = [](bool armed, int t) {
        return t == 8 || (armed && (t == 1 || t == 4));
    };
    std::vector<RunResult> results;
    for (int rep = 0; rep < GATED_REPS; ++rep)
        for (bool armed : {false, true})
            for (int t : thread_counts)
                if (rep == 0 || gated(armed, t))
                    results.push_back(
                        runConfig(Path::L1Hit, armed, t, ops, rep));
    for (int rep = 0; rep < GATED_REPS; ++rep)
        for (int t : {1, MISS_MAX_THREADS})
            results.push_back(
                runConfig(Path::Miss, true, t, miss_ops, rep));
    for (int rep = 0; rep < GATED_REPS; ++rep)
        for (int t : {1, 4})
            results.push_back(
                runConfig(Path::L2WriteHit, true, t, ops, rep));
    lockdep::setMode(lockdep::Mode::Enforce);
    auto order = [](const RunResult& r) {
        return std::make_tuple(r.path, r.lockdepMode == "armed", r.threads);
    };
    std::stable_sort(results.begin(), results.end(),
                     [&](const RunResult& a, const RunResult& b) {
                         return order(a) < order(b);
                     });

    TextTable table;
    table.header({"path", "lockdep", "threads", "rep", "ops",
                  "wall Mops/s", "serialized Mops/s", "shard cont",
                  "tile cont"});
    for (const RunResult& r : results) {
        char wall[32], ser[32];
        std::snprintf(wall, sizeof wall, "%.2f",
                      r.wallThroughput() / 1e6);
        std::snprintf(ser, sizeof ser, "%.2f",
                      r.serializedThroughput() / 1e6);
        table.row({pathName(r.path), r.lockdepMode,
                   std::to_string(r.threads), std::to_string(r.rep),
                   std::to_string(r.totalOps), wall, ser,
                   std::to_string(r.shardContended),
                   std::to_string(r.tileContended)});
    }
    std::printf("%s\n", table.render().c_str());

    // The median serialized throughput over a point's repetitions.
    auto median = [&](Path p, const std::string& ld, int t) {
        std::vector<double> v;
        for (const RunResult& r : results)
            if (r.path == p && r.lockdepMode == ld && r.threads == t)
                v.push_back(r.serializedThroughput());
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    for (const RunResult& r : results) {
        if (r.offPath != 0) {
            std::fprintf(stderr,
                         "%s path: %llu measured accesses took another "
                         "path\n",
                         pathName(r.path),
                         static_cast<unsigned long long>(r.offPath));
            return 2;
        }
    }
    // Lockdep tax: off vs enforcing at 8 threads, medians of each.
    double ld_overhead =
        median(Path::L1Hit, "off", 8) / median(Path::L1Hit, "armed", 8);
    std::printf("lockdep-armed overhead at 8 threads, median of %d: "
                "%.3fx (criterion: <= 1.25x)\n",
                GATED_REPS, ld_overhead);
    // Shared-nothing hot path: armed serialized throughput, 4 over 1.
    double scaling_4t =
        median(Path::L1Hit, "armed", 4) / median(Path::L1Hit, "armed", 1);
    std::printf("L1-hit scaling, 4 threads over 1 (armed), median of %d: "
                "%.3fx (criterion: >= 2.5x)\n",
                GATED_REPS, scaling_4t);
    // The miss path through the network and DRAM models, 4 over 1.
    double miss_scaling_4t =
        median(Path::Miss, "armed", MISS_MAX_THREADS) /
        median(Path::Miss, "armed", 1);
    std::printf("miss scaling, 4 threads over 1 (armed), median of %d: "
                "%.3fx (reported, not gated)\n",
                GATED_REPS, miss_scaling_4t);
    // L2 write hits on lines homed at one tile, 4 over 1.
    double write_hit_scaling_4t = median(Path::L2WriteHit, "armed", 4) /
                                  median(Path::L2WriteHit, "armed", 1);
    std::printf("L2 write-hit scaling, 4 threads over 1 (armed), median "
                "of %d: %.3fx (reported, not gated)\n",
                GATED_REPS, write_hit_scaling_4t);

    // Raw wrapper reference: uncontended lock/unlock cost.
    const std::uint64_t wrap_iters = fastMode() ? 200'000 : 2'000'000;
    std::mutex plain;
    lockdep::OrderedMutex wrapped(lockdep::LockClass::log_filter);
    double plain_ns = wrapperNsPerOp(plain, wrap_iters);
    lockdep::setMode(lockdep::Mode::Off);
    double off_ns = wrapperNsPerOp(wrapped, wrap_iters);
    lockdep::setMode(lockdep::Mode::Enforce);
    double armed_ns = wrapperNsPerOp(wrapped, wrap_iters);
    // The same loop under a lower-ranked lock: every acquisition is
    // order-checked against it.
    lockdep::OrderedMutex outer(lockdep::LockClass::global_progress);
    double nested_ns = 0.0;
    {
        lockdep::Guard held(outer);
        nested_ns = wrapperNsPerOp(wrapped, wrap_iters);
    }
    std::printf("uncontended lock+unlock: std::mutex %.1f ns, "
                "OrderedMutex off %.1f ns, enforcing %.1f ns, enforcing "
                "under one held lock %.1f ns\n",
                plain_ns, off_ns, armed_ns, nested_ns);

    FILE* f = std::fopen("BENCH_mem_contention.json", "w");
    if (f == nullptr) {
        std::perror("BENCH_mem_contention.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_lock_contention\",\n");
    std::fprintf(f, "  \"workload\": \"l1_hit_private_lines, "
                    "miss_private_homes, l2_write_hit_one_home\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(
        f,
        "  \"metric_note\": \"serialized_mops = ops / the largest "
        "per-thread CPU time; host-CPU-count independent. wall_mops "
        "depends on available host CPUs.\",\n");
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult& r = results[i];
        std::fprintf(
            f,
            "    {\"path\": \"%s\", \"lockdep\": \"%s\", "
            "\"threads\": %d, \"rep\": %d, \"ops\": %llu, "
            "\"wall_s\": %.6f, \"cpu_sum_s\": %.6f, \"cpu_max_s\": "
            "%.6f, \"wall_mops\": %.3f, \"serialized_mops\": %.3f, "
            "\"shard_lock_contended\": %llu, "
            "\"tile_lock_contended\": %llu}%s\n",
            pathName(r.path), r.lockdepMode.c_str(), r.threads, r.rep,
            static_cast<unsigned long long>(r.totalOps), r.wallSeconds,
            r.cpuSumSeconds, r.cpuMaxSeconds,
            r.wallThroughput() / 1e6, r.serializedThroughput() / 1e6,
            static_cast<unsigned long long>(r.shardContended),
            static_cast<unsigned long long>(r.tileContended),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"lockdep_overhead_note\": \"off/armed ratio of the median "
        "serialized throughput of 3 runs at 8 threads; runtime-off still "
        "pays held-set bookkeeping, the "
        "compile-time GRAPHITE_LOCKDEP=OFF build removes even that "
        "(sizeof parity pinned by tests/lockdep_force_off_probe)\",\n");
    std::fprintf(f, "  \"lockdep_overhead_8t\": %.3f,\n", ld_overhead);
    std::fprintf(f,
                 "  \"l1_hit_scaling_note\": \"armed serialized_mops at "
                 "4 threads over 1 thread, the median of 3 runs of "
                 "each; 4.0 when threads share nothing\",\n");
    std::fprintf(f, "  \"l1_hit_scaling_4t\": %.3f,\n", scaling_4t);
    std::fprintf(f,
                 "  \"miss_scaling_note\": \"armed serialized_mops at "
                 "4 threads over 1 thread, the median of 3 runs of "
                 "each, when every access misses the L2 and runs "
                 "through the mesh and DRAM models; threads share only "
                 "the network model\",\n");
    std::fprintf(f, "  \"miss_scaling_4t\": %.3f,\n", miss_scaling_4t);
    std::fprintf(f,
                 "  \"write_hit_scaling_note\": \"armed serialized_mops "
                 "at 4 threads over 1 thread, the median of 3 runs of "
                 "each, when every access rewrites a line its tile holds "
                 "Modified and every line is homed at one tile\",\n");
    std::fprintf(f, "  \"write_hit_scaling_4t\": %.3f,\n",
                 write_hit_scaling_4t);
    std::fprintf(f,
                 "  \"uncontended_lock_unlock_ns\": {\"std_mutex\": "
                 "%.2f, \"ordered_mutex_off\": %.2f, "
                 "\"ordered_mutex_enforce\": %.2f, "
                 "\"ordered_mutex_enforce_nested\": %.2f},\n",
                 plain_ns, off_ns, armed_ns, nested_ns);
    bool met = scaling_4t >= 2.5 && ld_overhead <= 1.25;
    std::fprintf(f,
                 "  \"criterion\": \"l1_hit_scaling_4t >= 2.5 && "
                 "lockdep_overhead_8t <= 1.25\",\n");
    std::fprintf(f, "  \"criterion_met\": %s\n", met ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_mem_contention.json\n");
    return met ? 0 : 1;
}
