/**
 * @file
 * Host-overhead microbenchmark for the causal span engine
 * (src/obs/span): the same workload simulated with spans off (the
 * default — every instrumentation point reduces to one relaxed atomic
 * load) and armed (builders, stage marks, and sink aggregation on
 * every miss), comparing wall time.
 *
 * The off configuration *is* the shipping default, so its cost is the
 * number the ≤ 3% disabled-overhead budget in ISSUE/EXPERIMENTS.md
 * refers to; armed-vs-off bounds what turning the engine on costs.
 * The armed run must also uphold the exact-accounting invariant in
 * aggregate: per-kind cycle totals and per-stage cycle totals both
 * sum every completed span, so they must agree exactly.
 *
 * Each configuration runs REPS times and keeps the fastest wall time
 * (host noise is one-sided). Emits BENCH_span_overhead.json.
 * GRAPHITE_BENCH_FAST=1 shrinks the problem size for smoke runs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.h"
#include "common/table.h"
#include "core/simulator.h"
#include "obs/span/span.h"
#include "obs/span/span_sink.h"
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
    stat_t spansCompleted = 0;
    stat_t kindCycles = 0;
    stat_t stageCycles = 0;
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
        cfg.setBool("obs/spans_enabled", armed);
        Simulator sim(cfg);
        workloads::SimRunResult r = workloads::runSim(sim, w, p);
        out.wallSeconds = std::min(out.wallSeconds, r.wallSeconds);
        out.simulatedCycles = r.simulatedCycles;
        out.spansCompleted = 0;
        out.kindCycles = 0;
        out.stageCycles = 0;
        if (const obs::SpanSink* sink = sim.spanSink()) {
            out.spansCompleted = sink->completedCount();
            for (int k = 0; k < obs::NUM_SPAN_KINDS; ++k)
                out.kindCycles +=
                    sink->kindCycles(static_cast<obs::SpanKind>(k));
            for (int s = 0; s < obs::NUM_SPAN_STAGES; ++s)
                out.stageCycles +=
                    sink->stageCycles(static_cast<obs::SpanStage>(s));
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

    std::printf("=== micro_span_overhead ===\n");
    std::printf("Span-engine wall overhead on %s (size %d, %d threads, "
                "best of %d reps).\n\n",
                w.name.c_str(), p.size, p.threads, REPS);

    RunResult off = runConfig(w, p, false);
    RunResult on = runConfig(w, p, true);
    double slowdown = on.wallSeconds / off.wallSeconds;

    TextTable table;
    table.header({"spans", "wall s", "completed", "kind cycles",
                  "stage cycles"});
    for (const RunResult* r : {&off, &on}) {
        char wall[32];
        std::snprintf(wall, sizeof wall, "%.3f", r->wallSeconds);
        table.row({r->armed ? "armed" : "off", wall,
                   std::to_string(r->spansCompleted),
                   std::to_string(r->kindCycles),
                   std::to_string(r->stageCycles)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("slowdown armed/off: %.2fx (criterion: <= 1.25x)\n",
                slowdown);

    bool accounted = on.spansCompleted > 0 &&
                     on.kindCycles == on.stageCycles;
    if (!accounted)
        std::printf("FAIL: accounting mismatch (completed %lld, kind "
                    "cycles %lld, stage cycles %lld)\n",
                    static_cast<long long>(on.spansCompleted),
                    static_cast<long long>(on.kindCycles),
                    static_cast<long long>(on.stageCycles));

    FILE* f = std::fopen("BENCH_span_overhead.json", "w");
    if (f == nullptr) {
        std::perror("BENCH_span_overhead.json");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_span_overhead\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", w.name.c_str());
    std::fprintf(f, "  \"size\": %d,\n", p.size);
    std::fprintf(f, "  \"threads\": %d,\n", p.threads);
    std::fprintf(f, "  \"reps\": %d,\n", REPS);
    std::fprintf(f, "  \"runs\": [\n");
    for (const RunResult* r : {&off, &on}) {
        std::fprintf(
            f,
            "    {\"spans\": \"%s\", \"wall_s\": %.6f, "
            "\"simulated_cycles\": %llu, \"completed\": %llu, "
            "\"kind_cycles\": %llu, \"stage_cycles\": %llu}%s\n",
            r->armed ? "armed" : "off", r->wallSeconds,
            static_cast<unsigned long long>(r->simulatedCycles),
            static_cast<unsigned long long>(r->spansCompleted),
            static_cast<unsigned long long>(r->kindCycles),
            static_cast<unsigned long long>(r->stageCycles),
            r == &off ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"slowdown_armed\": %.3f,\n", slowdown);
    std::fprintf(f, "  \"criterion\": \"slowdown_armed <= 1.25 && "
                    "kind_cycles == stage_cycles\",\n");
    std::fprintf(f, "  \"criterion_met\": %s\n",
                 slowdown <= 1.25 && accounted ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_span_overhead.json\n");
    return slowdown <= 1.25 && accounted ? 0 : 1;
}
