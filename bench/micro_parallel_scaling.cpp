/**
 * @file
 * Host-parallelism microbenchmark for the execution scheduler
 * (src/host/scheduler): a shared-line contention workload through the
 * full Simulator, run in free_running mode at host/threads = 1, 2 and
 * WORKERS. The widest pool has a slot per target thread, so every
 * thread is always runnable: it is the all-runnable reference.
 *
 * What the numbers mean depends on the host:
 *
 *  - host with >= 2 CPUs: wall speedup of the wide pool over the
 *    1-slot pool is the paper's headline claim (§4.1, Fig. 4) in
 *    miniature — simulated work actually overlaps on the host.
 *  - 1-CPU host (common for CI containers): no wall speedup is
 *    possible from any scheduler. The honest criterion is overhead:
 *    the 1-slot pool must cost <= 1.15x the all-runnable reference,
 *    i.e. the slot/quantum machinery is cheap enough to leave on.
 *
 * The emitted BENCH_parallel_scaling.json records every run plus the
 * CPU-count-conditional criterion so the perf trajectory stays
 * comparable across differently-provisioned hosts. Each run also
 * records its simulated instructions and host ns per simulated
 * instruction: under lax sync the widths can simulate different cycle
 * counts, but they retire the same instructions, so ns per instruction
 * compares the host cost of equal work.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "core/api.h"
#include "core/simulator.h"
#include "host/scheduler.h"

namespace graphite
{
namespace
{

constexpr int WORKERS = 4; // main + 3 spawned, one per tile
/**
 * Scheduling quantum for every pool run. Each slot handoff on an
 * oversubscribed host is an OS context switch (~5us); 50k simulated
 * cycles per quantum amortizes that below the 1.15x overhead budget,
 * where the 10k default left the 1-slot pool at ~1.4x (see
 * EXPERIMENTS.md for the sweep).
 */
constexpr cycle_t kQuantum = 50000;

bool
fastMode()
{
    const char* v = std::getenv("GRAPHITE_BENCH_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

int
itersPerWorker()
{
    return fastMode() ? 2000 : 20000;
}

struct Workload
{
    addr_t base = 0;
    std::atomic<int> ran{0};
};

void
worker(void* p)
{
    auto* w = static_cast<Workload*>(p);
    w->ran.fetch_add(1);
    tile_id_t self = api::tileId();
    const int iters = itersPerWorker();
    for (int i = 0; i < iters; ++i) {
        api::exec(InstrClass::IntAlu, 200);
        // Shared-line reads plus a private-slot write: coherence
        // traffic through the MCP and the memory engine, the mix the
        // pool has to interleave without serializing.
        std::uint32_t v = api::read<std::uint32_t>(w->base);
        api::write<std::uint32_t>(w->base + 64 + 4 * self, v + 1);
    }
}

void
appMain(void* p)
{
    auto* w = static_cast<Workload*>(p);
    w->base = api::malloc(256);
    api::write<std::uint32_t>(w->base, 1);
    std::vector<tile_id_t> tids;
    for (int i = 0; i < WORKERS - 1; ++i)
        tids.push_back(api::threadSpawn(&worker, p));
    worker(p);
    for (tile_id_t t : tids)
        api::threadJoin(t);
    api::free(w->base);
}

struct RunResult
{
    int hostThreads = 0;
    double wallSeconds = 0.0;
    cycle_t simCycles = 0;
    stat_t instructions = 0;
    stat_t quanta = 0;
    stat_t yields = 0;

    double hostNsPerInstruction() const
    {
        return wallSeconds * 1e9 / static_cast<double>(instructions);
    }
};

RunResult
runPoint(int host_threads, int reps)
{
    RunResult best;
    best.hostThreads = host_threads;
    for (int rep = 0; rep < reps; ++rep) {
        Config cfg = defaultTargetConfig();
        cfg.setInt("general/total_tiles", WORKERS);
        cfg.set("host/scheduler", "free_running");
        cfg.setInt("host/threads", host_threads);
        cfg.setInt("host/quantum_cycles", kQuantum);
        Simulator sim(cfg);
        Workload w;
        auto t0 = std::chrono::steady_clock::now();
        sim.run(&appMain, &w);
        auto t1 = std::chrono::steady_clock::now();
        if (w.ran.load() != WORKERS)
            std::abort();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < best.wallSeconds) {
            best.wallSeconds = wall;
            best.simCycles = sim.simulatedTime();
            best.instructions = sim.totalInstructions();
            best.quanta = sim.hostScheduler()->quantaCounter()->load();
            best.yields = sim.hostScheduler()->yieldsCounter()->load();
        }
    }
    return best;
}

} // namespace
} // namespace graphite

int
main()
{
    using namespace graphite;

    const unsigned cpus = std::thread::hardware_concurrency();
    const int reps = fastMode() ? 2 : 3;

    std::printf("=== micro_parallel_scaling ===\n");
    std::printf("Scheduler wall-clock scaling on a %d-thread "
                "shared-line workload.\nHost CPUs: %u (criterion is "
                "CPU-count-conditional; min wall of %d reps).\n\n",
                WORKERS, cpus, reps);

    std::vector<RunResult> results;
    for (int ht : {1, 2, WORKERS})
        results.push_back(runPoint(ht, reps));

    TextTable table;
    table.header({"host_threads", "wall s", "sim cycles",
                  "sim instructions", "host ns/instr", "quanta",
                  "yields"});
    for (const RunResult& r : results) {
        char wall[32], per_instr[32];
        std::snprintf(wall, sizeof wall, "%.3f", r.wallSeconds);
        std::snprintf(per_instr, sizeof per_instr, "%.3f",
                      r.hostNsPerInstruction());
        table.row({std::to_string(r.hostThreads), wall,
                   std::to_string(r.simCycles),
                   std::to_string(r.instructions), per_instr,
                   std::to_string(r.quanta),
                   std::to_string(r.yields)});
    }
    std::printf("%s\n", table.render().c_str());

    // One ratio, 1-slot pool over the all-runnable WORKERS-slot pool:
    // a speedup on a multi-CPU host, pure scheduling cost on one CPU.
    const double wall_speedup_4t =
        results.front().wallSeconds / results.back().wallSeconds;
    const double overhead_ratio_1cpu = wall_speedup_4t;

    const char* criterion;
    bool met;
    if (cpus >= 4) {
        criterion = "wall_speedup_4t >= 2.0 (host has >= 4 CPUs)";
        met = wall_speedup_4t >= 2.0;
    } else if (cpus >= 2) {
        criterion = "wall_speedup_4t >= 1.2 (host has 2-3 CPUs)";
        met = wall_speedup_4t >= 1.2;
    } else {
        criterion =
            "overhead_ratio_1cpu <= 1.15 (1-CPU host: no wall speedup "
            "possible, scheduler must be near-free)";
        met = overhead_ratio_1cpu <= 1.15;
    }
    std::printf("wall speedup ht=4 vs ht=1: %.2fx\n", wall_speedup_4t);
    std::printf("overhead ratio ht=1 vs all-runnable ht=%d: %.2fx\n",
                WORKERS, overhead_ratio_1cpu);
    std::printf("criterion: %s -> %s\n", criterion,
                met ? "MET" : "NOT MET");

    FILE* f = std::fopen("BENCH_parallel_scaling.json", "w");
    if (f == nullptr) {
        std::perror("BENCH_parallel_scaling.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_parallel_scaling\",\n");
    std::fprintf(f,
                 "  \"workload\": \"%d threads, shared-line read + "
                 "private write, %d iters/thread\",\n",
                 WORKERS, itersPerWorker());
    std::fprintf(f, "  \"host_cpus\": %u,\n", cpus);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"quantum_cycles\": %llu,\n",
                 static_cast<unsigned long long>(kQuantum));
    std::fprintf(f, "  \"runs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const RunResult& r = results[i];
        std::fprintf(
            f,
            "    {\"scheduler\": \"free_running\", \"host_threads\": %d, "
            "\"wall_s\": %.6f, \"sim_cycles\": %llu, "
            "\"sim_instructions\": %llu, \"host_ns_per_instr\": %.3f, "
            "\"quanta\": %llu, \"yields\": %llu}%s\n",
            r.hostThreads, r.wallSeconds,
            static_cast<unsigned long long>(r.simCycles),
            static_cast<unsigned long long>(r.instructions),
            r.hostNsPerInstruction(),
            static_cast<unsigned long long>(r.quanta),
            static_cast<unsigned long long>(r.yields),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"wall_speedup_4t\": %.3f,\n", wall_speedup_4t);
    std::fprintf(f, "  \"overhead_ratio_1cpu\": %.3f,\n",
                 overhead_ratio_1cpu);
    std::fprintf(f, "  \"criterion\": \"%s\",\n", criterion);
    std::fprintf(f, "  \"criterion_met\": %s\n", met ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_parallel_scaling.json\n");
    return met ? 0 : 1;
}
