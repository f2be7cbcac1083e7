/**
 * @file
 * Host-overhead microbenchmark for the accuracy observatory
 * (src/obs/accuracy): the same workload simulated with detection off
 * (the shipping default — one relaxed atomic load per delivery) and
 * armed (clock reads, violation classification, magnitude histograms,
 * and the pair-skew matrix on every delivery), comparing wall time.
 *
 * The armed run must stay within the ≤ 1.15x budget from ISSUE.md —
 * detection is meant to be cheap enough to leave on for any accuracy
 * study — and must actually observe deliveries (an armed run that
 * checks nothing would make the slowdown measurement vacuous).
 *
 * Each configuration runs REPS times and keeps the fastest wall time
 * (host noise is one-sided). Emits BENCH_accuracy.json.
 * GRAPHITE_BENCH_FAST=1 shrinks the problem size for smoke runs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.h"
#include "common/table.h"
#include "core/simulator.h"
#include "obs/accuracy/accuracy.h"
#include "workloads/registry.h"

namespace graphite
{
namespace
{

constexpr int TILES = 8;
constexpr int THREADS = 8;
constexpr int REPS = 5;

struct RunResult
{
    bool armed = false;
    double wallSeconds = 0.0; ///< fastest of REPS
    cycle_t simulatedCycles = 0;
    stat_t deliveries = 0;
    stat_t violations = 0;
    stat_t pairSamples = 0;
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
        cfg.setBool("accuracy/enabled", armed);
        Simulator sim(cfg);
        workloads::SimRunResult r = workloads::runSim(sim, w, p);
        out.wallSeconds = std::min(out.wallSeconds, r.wallSeconds);
        out.simulatedCycles = r.simulatedCycles;
        if (const auto* acc = sim.accuracy()) {
            out.deliveries = acc->deliveries();
            out.violations = acc->violations();
            out.pairSamples = acc->pairSamples();
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

    std::printf("=== micro_accuracy_overhead ===\n");
    std::printf("Accuracy-observatory wall overhead on %s (size %d, "
                "%d threads, best of %d reps).\n\n",
                w.name.c_str(), p.size, p.threads, REPS);

    RunResult off = runConfig(w, p, false);
    RunResult on = runConfig(w, p, true);
    double slowdown = on.wallSeconds / off.wallSeconds;

    TextTable table;
    table.header({"accuracy", "wall s", "deliveries", "violations",
                  "pair samples"});
    for (const RunResult* r : {&off, &on}) {
        char wall[32];
        std::snprintf(wall, sizeof wall, "%.3f", r->wallSeconds);
        table.row({r->armed ? "armed" : "off", wall,
                   std::to_string(r->deliveries),
                   std::to_string(r->violations),
                   std::to_string(r->pairSamples)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("slowdown armed/off: %.2fx (criterion: <= 1.15x)\n",
                slowdown);

    bool observed = on.deliveries > 0 && off.deliveries == 0 &&
                    on.violations <= on.deliveries;
    if (!observed)
        std::printf("FAIL: observation counts wrong (off %lld, armed "
                    "%lld deliveries / %lld violations)\n",
                    static_cast<long long>(off.deliveries),
                    static_cast<long long>(on.deliveries),
                    static_cast<long long>(on.violations));

    FILE* f = std::fopen("BENCH_accuracy.json", "w");
    if (f == nullptr) {
        std::perror("BENCH_accuracy.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_accuracy_overhead\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", w.name.c_str());
    std::fprintf(f, "  \"size\": %d,\n", p.size);
    std::fprintf(f, "  \"threads\": %d,\n", p.threads);
    std::fprintf(f, "  \"reps\": %d,\n", REPS);
    std::fprintf(f, "  \"runs\": [\n");
    for (const RunResult* r : {&off, &on}) {
        std::fprintf(
            f,
            "    {\"accuracy\": \"%s\", \"wall_s\": %.6f, "
            "\"simulated_cycles\": %llu, \"deliveries\": %llu, "
            "\"violations\": %llu, \"pair_samples\": %llu}%s\n",
            r->armed ? "armed" : "off", r->wallSeconds,
            static_cast<unsigned long long>(r->simulatedCycles),
            static_cast<unsigned long long>(r->deliveries),
            static_cast<unsigned long long>(r->violations),
            static_cast<unsigned long long>(r->pairSamples),
            r == &off ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"slowdown_armed\": %.3f,\n", slowdown);
    std::fprintf(f, "  \"criterion\": \"slowdown_armed <= 1.15 && "
                    "armed deliveries > 0\",\n");
    std::fprintf(f, "  \"criterion_met\": %s\n",
                 slowdown <= 1.15 && observed ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_accuracy.json\n");
    return slowdown <= 1.15 && observed ? 0 : 1;
}
