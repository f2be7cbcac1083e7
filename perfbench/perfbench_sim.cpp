/**
 * @file
 * One benchmark simulation per process.
 *
 * perfbench/run.py starts this program once per measured simulation, so
 * every run starts from the same process state: ru_maxrss is a process
 * high-water mark, and a Simulator built after another one in the same
 * process reuses memory the allocator kept, which makes it build faster.
 *
 *   perfbench_sim --mode plain|traced|native|config --workload NAME
 *                 --seed N [--artifacts DIR] [--trace-out FILE]
 *   perfbench_sim --mode info
 *
 *   plain   build the Simulator and run the workload through
 *           workloads::runSim; print host cost, the host slot count,
 *           whether the scheduler is deterministic, and simulator
 *           counters
 *   traced  as plain, with the kernel instantiated over TimedEnv, which
 *           times each call into graphite::api (timed_env.h); writes the
 *           trace to --trace-out
 *   native  run the kernel on host threads; print its checksum
 *   config  print the workload's full simulator configuration
 *   info    print the build type, lockdep state, compiler and the names
 *           of the workloads
 *
 * Every mode but config prints one JSON object on stdout. A failed run
 * (for example a coherence violation at shutdown) prints ok=false and
 * exits 1.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "core/simulator.h"
#include "timed_env.h"
#include "workloads/blackscholes.h"
#include "workloads/fft.h"
#include "workloads/radix.h"
#include "workloads/registry.h"

namespace
{

using namespace graphite;

/** One benchmark workload: a registered kernel, its size and its config. */
struct BenchWorkload
{
    const char* name;
    const char* kernel; ///< name in workloads::registry()
    int size;
    int iters;
    std::vector<std::pair<const char*, const char*>> settings;
    /** Arm spans, the metrics sampler and the accuracy observatory,
     *  with their files in --artifacts. */
    bool observed;
    double (*traced)(const workloads::WorkloadParams&);
};

constexpr int TILES = 16;

// Why each workload is in the set is recorded in BENCHMARK.json.
const std::vector<BenchWorkload>&
benchWorkloads()
{
    static const std::vector<BenchWorkload> table = {
        {"fft-w4", "fft", 65536, 1,
         {{"host/scheduler", "free_running"},
          {"host/threads", "4"},
          {"sync/model", "lax"},
          {"caching_protocol/type", "dir_msi"},
          {"telemetry/recorder", "false"}},
         false, &workloads::runFft<perfbench::TimedEnv>},
        {"blackscholes-w4", "blackscholes", 262144, 2,
         {{"host/scheduler", "free_running"},
          {"host/threads", "4"},
          {"sync/model", "lax"},
          {"caching_protocol/type", "dir_msi"},
          {"telemetry/recorder", "false"}},
         false, &workloads::runBlackscholes<perfbench::TimedEnv>},
        // At the default 10000-cycle quantum, run_s on a 4-vCPU VM split
        // into two modes (about 1.1 s and 1.7 s) by whether the one slot's
        // ~13K hand-offs woke threads on the same CPU; ten times fewer
        // hand-offs leave one mode.
        {"radix-det", "radix", 262144, 2,
         {{"host/scheduler", "deterministic"},
          {"host/quantum_cycles", "100000"},
          {"sync/model", "lax_p2p"},
          {"caching_protocol/type", "dir_mesi"}},
         true, &workloads::runRadix<perfbench::TimedEnv>},
    };
    return table;
}

const BenchWorkload*
findBench(const std::string& name)
{
    for (const BenchWorkload& b : benchWorkloads())
        if (name == b.name)
            return &b;
    return nullptr;
}

Config
makeConfig(const BenchWorkload& b, const std::string& artifacts)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", TILES);
    for (const auto& [k, v] : b.settings)
        cfg.set(k, v);
    if (b.observed) {
        cfg.set("obs/spans_out", artifacts + "/spans.jsonl");
        cfg.set("obs/metrics_out", artifacts + "/metrics.csv");
        cfg.setBool("accuracy/enabled", true);
        cfg.set("accuracy/out", artifacts + "/accuracy.jsonl");
    }
    return cfg;
}

/** Flat JSON object writer for one line of output. */
class JsonLine
{
  public:
    void
    num(const char* key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        raw(key, buf);
    }
    void
    count(const char* key, std::uint64_t v)
    {
        raw(key, std::to_string(v));
    }
    void
    str(const char* key, const std::string& v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                q += c;
        }
        raw(key, q + "\"");
    }
    void
    raw(const char* key, const std::string& v)
    {
        body_ += body_.empty() ? "{" : ", ";
        body_ += std::string("\"") + key + "\": " + v;
    }
    std::string
    text() const
    {
        return body_.empty() ? "{}" : body_ + "}";
    }

  private:
    std::string body_;
};

std::string
hexBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", bits);
    return buf;
}

double
seconds(const rusage& r)
{
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) *
               1e-6;
}

std::uint64_t
dirBytes(const std::string& dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

/**
 * Simulator counters read after the run, under their registry names
 * where one exists. A counter the workload's configuration registers
 * must be present: a renamed or dropped one fails the run instead of
 * reading 0. The host pool's counters exist only with a scheduler, the
 * span and accuracy ones only when the workload is observed; absent,
 * those layers are idle and read 0.
 */
void
emitCounters(JsonLine& out, Simulator& sim, bool observed)
{
    const StatsRegistry& st = sim.stats();
    auto get = [&](const char* n, bool required) -> stat_t {
        if (st.has(n))
            return st.get(n);
        if (required)
            throw FatalError(std::string("statistic ") + n +
                             " is not registered");
        return 0;
    };
    stat_t l1d_accesses = 0;
    for (tile_id_t t = 0; t < sim.totalTiles(); ++t)
        if (Cache* c = sim.memory().l1d(t))
            l1d_accesses += c->accesses();

    out.count("sim.cycles", sim.simulatedTime());
    out.count("sim.instructions", sim.totalInstructions());
    out.count("mem.accesses", get("mem.accesses_total", true));
    out.count("mem.l1d_accesses", l1d_accesses);
    out.count("mem.l1d_misses",
              st.sumMatching("tile.", ".l1d.misses", MatchMode::Strict));
    out.count("mem.l2_misses", get("mem.l2_misses_total", true));
    out.count("mem.writebacks", get("mem.writebacks_total", true));
    for (const char* n :
         {"mem.tile_lock.acquisitions", "mem.tile_lock.contended",
          "mem.tile_lock.wait_ns", "mem.shard_lock.acquisitions",
          "mem.shard_lock.contended", "mem.shard_lock.wait_ns",
          "net.memory.packets", "net.memory.bytes", "net.system.packets",
          "net.app.packets", "sync.events", "sync.wait_us",
          "syscalls.total", "telemetry.recorder.events"})
        out.count(n, get(n, true));
    for (const char* n :
         {"host.pool.quanta", "host.pool.yields", "host.pool.skew_parks"})
        out.count(n, get(n, sim.hostScheduler() != nullptr));
    for (const char* n :
         {"span.completed", "accuracy.deliveries", "accuracy.violations"})
        out.count(n, get(n, observed));
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_sim --mode plain|traced|native|config "
                 "--workload NAME --seed N [--artifacts DIR] "
                 "[--trace-out FILE]\n"
                 "       perfbench_sim --mode info\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string mode, name, artifacts, trace_out;
    std::uint64_t seed = 0;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--mode")
            mode = v;
        else if (k == "--workload")
            name = v;
        else if (k == "--seed") {
            char* end = nullptr;
            seed = std::strtoull(v, &end, 10);
            have_seed = end != v && *end == '\0';
        } else if (k == "--artifacts")
            artifacts = v;
        else if (k == "--trace-out")
            trace_out = v;
        else
            return usage();
    }
    if (argc % 2 == 0)
        return usage();

    if (mode == "info") {
        JsonLine out;
        out.raw("ok", "true");
        out.str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef GRAPHITE_LOCKDEP_ENABLED
        out.raw("lockdep", "true");
#else
        out.raw("lockdep", "false");
#endif
        out.str("compiler", PERFBENCH_COMPILER);
        std::string names;
        for (const BenchWorkload& w : benchWorkloads())
            names += std::string(names.empty() ? "" : ", ") + "\"" +
                     w.name + "\"";
        out.raw("workloads", "[" + names + "]");
        std::printf("%s\n", out.text().c_str());
        return 0;
    }

    const BenchWorkload* b = findBench(name);
    if (b == nullptr || !have_seed)
        return usage();
    if (b->observed && artifacts.empty() &&
        (mode == "plain" || mode == "traced")) {
        std::fprintf(stderr, "perfbench_sim: %s needs --artifacts\n",
                     b->name);
        return 2;
    }

    workloads::WorkloadInfo info = workloads::findWorkload(b->kernel);
    workloads::WorkloadParams p = info.defaults;
    p.threads = TILES;
    p.size = b->size;
    p.iters = b->iters;
    p.seed = seed;

    if (mode == "config") {
        std::printf("%s", makeConfig(*b, "ARTIFACTS").toString().c_str());
        return 0;
    }
    JsonLine out;
    if (mode == "native") {
        double sum = info.runNative(p);
        out.raw("ok", "true");
        out.num("checksum", sum);
        out.raw("checksum_bits", hexBits(sum));
        std::printf("%s\n", out.text().c_str());
        return 0;
    }
    if (mode != "plain" && mode != "traced")
        return usage();
    const bool traced = mode == "traced";
    if (traced && trace_out.empty()) {
        std::fprintf(stderr, "perfbench_sim: traced needs --trace-out\n");
        return 2;
    }

    try {
        Config cfg = makeConfig(*b, artifacts);
        auto t0 = perfbench::Clock::now();
        auto sim = std::make_unique<Simulator>(cfg);
        auto t1 = perfbench::Clock::now();

        if (traced) {
            info.runSimBody = b->traced;
            perfbench::Tracer::instance().begin(static_cast<std::uint64_t>(
                cfg.getInt("perf_model/l2_cache/access_latency")));
        }
        rusage r0{}, r1{};
        getrusage(RUSAGE_SELF, &r0);
        auto t2 = perfbench::Clock::now();
        workloads::SimRunResult res = workloads::runSim(*sim, info, p);
        auto t3 = perfbench::Clock::now();
        getrusage(RUSAGE_SELF, &r1);
        if (traced)
            perfbench::Tracer::instance().end();

        auto secs = [](perfbench::Clock::duration d) {
            return std::chrono::duration<double>(d).count();
        };
        out.raw("ok", "true");
        out.num("checksum", res.checksum);
        out.raw("checksum_bits", hexBits(res.checksum));
        out.num("setup_s", secs(t1 - t0));
        out.num("run_s", secs(t3 - t2));
        out.num("cpu_s", seconds(r1) - seconds(r0));
        out.num("peak_rss_mb", static_cast<double>(r1.ru_maxrss) / 1024.0);
        out.count("ctx_switches",
                  static_cast<std::uint64_t>(
                      (r1.ru_nvcsw + r1.ru_nivcsw) -
                      (r0.ru_nvcsw + r0.ru_nivcsw)));
        const host::HostScheduler* sched = sim->hostScheduler();
        out.count("slots",
                  sched ? static_cast<std::uint64_t>(sched->slots()) : 0);
        out.raw("deterministic",
                sched && sched->deterministic() ? "true" : "false");
        emitCounters(out, *sim, b->observed);
        out.count("obs.artifact_bytes",
                  artifacts.empty() ? 0 : dirBytes(artifacts));

        if (traced) {
            perfbench::Tracer& tr = perfbench::Tracer::instance();
            JsonLine calls;
            for (int c = 0; c < perfbench::NUM_CALLS; ++c) {
                auto call = static_cast<perfbench::Call>(c);
                perfbench::DurationHistogram h = tr.merged(call);
                JsonLine one;
                one.count("count", h.count);
                one.num("p50_ns", h.quantile(0.5));
                one.num("p99_ns", h.quantile(0.99));
                calls.raw(perfbench::callName(call), one.text());
            }
            out.raw("calls", calls.text());
            std::string run_id =
                std::string(b->name) + "/" +
                std::filesystem::path(trace_out).stem().string();
            if (!tr.write(trace_out.c_str(), run_id.c_str()))
                throw FatalError("cannot write trace " + trace_out);
        }
    } catch (const FatalError& err) {
        JsonLine fail;
        fail.raw("ok", "false");
        fail.str("error", err.what());
        std::printf("%s\n", fail.text().c_str());
        return 1;
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}
