/**
 * @file
 * Host-overhead microbenchmark for the happens-before race detector
 * (src/race): the same memory-heavy multithreaded workload simulated
 * with the detector disarmed and armed, comparing wall time.
 *
 * The detector's cost model is one shadow-table probe per simulated
 * 4-byte word accessed, plus a sync-clock operation per atomic/lock/
 * barrier event — all on the host critical path of the functional
 * simulation. The headline criterion is slowdown_armed <= 3x, the
 * budget ISSUE/EXPERIMENTS.md advertises for leaving the oracle on in
 * fuzzing and CI runs (FastTrack itself reports ~8.5x on native
 * binaries; here the baseline already pays for simulation, so the
 * relative cost must be far smaller).
 *
 * Each configuration runs REPS times and keeps the fastest wall time
 * (host noise is one-sided). The armed run must also stay silent: a
 * report on this race-free workload would mean a detector false
 * positive, and fails the benchmark outright.
 *
 * Emits BENCH_race_overhead.json. GRAPHITE_BENCH_FAST=1 shrinks the
 * problem size for smoke runs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "core/simulator.h"
#include "race/detector.h"
#include "workloads/registry.h"

namespace graphite
{
namespace
{

constexpr int TILES = 8;
constexpr int THREADS = 8;
constexpr int REPS = 3;

struct RunResult
{
    bool armed = false;
    double wallSeconds = 0.0; ///< fastest of REPS
    cycle_t simulatedCycles = 0;
    stat_t wordsChecked = 0;
    stat_t syncEdges = 0;
    stat_t shadowLines = 0;
    stat_t races = 0;
};

bool
fastMode()
{
    const char* v = std::getenv("GRAPHITE_BENCH_FAST");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

RunResult
runConfig(const workloads::WorkloadInfo& w,
          const workloads::WorkloadParams& p, bool armed)
{
    RunResult out;
    out.armed = armed;
    out.wallSeconds = 1e30;
    for (int rep = 0; rep < REPS; ++rep) {
        Config cfg = defaultTargetConfig();
        cfg.setInt("general/total_tiles", TILES);
        cfg.setBool("race/enabled", armed);
        Simulator sim(cfg);
        workloads::SimRunResult r = workloads::runSim(sim, w, p);
        out.wallSeconds = std::min(out.wallSeconds, r.wallSeconds);
        out.simulatedCycles = r.simulatedCycles;
        if (const race::Detector* det = sim.raceDetector()) {
            out.wordsChecked = det->wordsChecked();
            out.syncEdges = det->syncEdges();
            out.shadowLines = det->shadowLines();
            out.races = det->raceCount();
        }
    }
    return out;
}

} // namespace
} // namespace graphite

int
main()
{
    using namespace graphite;

    const workloads::WorkloadInfo& w = workloads::findWorkload("fft");
    workloads::WorkloadParams p = w.defaults;
    p.threads = THREADS;
    if (fastMode())
        p.size = 512;

    std::printf("=== micro_race_overhead ===\n");
    std::printf("Race-detector wall overhead on %s (size %d, %d "
                "threads, best of %d reps).\n\n",
                w.name.c_str(), p.size, p.threads, REPS);

    RunResult off = runConfig(w, p, false);
    RunResult on = runConfig(w, p, true);
    double slowdown = on.wallSeconds / off.wallSeconds;

    TextTable table;
    table.header({"detector", "wall s", "words checked", "sync edges",
                  "shadow lines", "races"});
    for (const RunResult* r : {&off, &on}) {
        char wall[32];
        std::snprintf(wall, sizeof wall, "%.3f", r->wallSeconds);
        table.row({r->armed ? "armed" : "off", wall,
                   std::to_string(r->wordsChecked),
                   std::to_string(r->syncEdges),
                   std::to_string(r->shadowLines),
                   std::to_string(r->races)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("slowdown armed/off: %.2fx (criterion: <= 3x)\n",
                slowdown);

    bool clean = on.races == 0;
    if (!clean)
        std::printf("FAIL: %lld report(s) on a race-free workload\n",
                    static_cast<long long>(on.races));

    FILE* f = std::fopen("BENCH_race_overhead.json", "w");
    if (f == nullptr) {
        std::perror("BENCH_race_overhead.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_race_overhead\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", w.name.c_str());
    std::fprintf(f, "  \"size\": %d,\n", p.size);
    std::fprintf(f, "  \"threads\": %d,\n", p.threads);
    std::fprintf(f, "  \"reps\": %d,\n", REPS);
    std::fprintf(f, "  \"runs\": [\n");
    for (const RunResult* r : {&off, &on}) {
        std::fprintf(
            f,
            "    {\"detector\": \"%s\", \"wall_s\": %.6f, "
            "\"simulated_cycles\": %llu, \"words_checked\": %llu, "
            "\"sync_edges\": %llu, \"shadow_lines\": %llu, "
            "\"races\": %llu}%s\n",
            r->armed ? "armed" : "off", r->wallSeconds,
            static_cast<unsigned long long>(r->simulatedCycles),
            static_cast<unsigned long long>(r->wordsChecked),
            static_cast<unsigned long long>(r->syncEdges),
            static_cast<unsigned long long>(r->shadowLines),
            static_cast<unsigned long long>(r->races),
            r == &off ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"slowdown_armed\": %.3f,\n", slowdown);
    std::fprintf(f, "  \"criterion\": \"slowdown_armed <= 3 && "
                    "races == 0\",\n");
    std::fprintf(f, "  \"criterion_met\": %s\n",
                 slowdown <= 3.0 && clean ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_race_overhead.json\n");
    return slowdown <= 3.0 && clean ? 0 : 1;
}
