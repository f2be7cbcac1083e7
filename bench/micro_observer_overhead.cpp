/**
 * @file
 * Host-overhead microbenchmark for the observers a Simulator can arm:
 * causal spans (src/obs/span), the accuracy observatory
 * (src/obs/accuracy), the race detector (src/race) and the telemetry
 * plane (src/obs/telemetry). For each, the same workload is simulated
 * with the observer off and armed, comparing wall time.
 *
 * Each observer is one row of OBSERVERS: the keys that arm it, its
 * repetitions, its slowdown bound and a check on its counters. The
 * check keeps the slowdown honest: an armed run that records nothing
 * would make the measurement vacuous, and a race report on this
 * race-free workload is a detector false positive.
 *
 * Each side runs REPS times and keeps the fastest wall time (host noise
 * is one-sided); the off runs go first. Each observer writes its own
 * BENCH_*.json for tools/bench_report.py.
 *
 * Usage: micro_observer_overhead [span|accuracy|race|telemetry ...]
 * With no name it runs all four. GRAPHITE_BENCH_FAST=1 shrinks the
 * problem size for smoke runs. Exits 1 if any selected observer misses
 * its bound or fails its check.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/accuracy/accuracy.h"
#include "obs/span/span.h"
#include "obs/span/span_sink.h"
#include "obs/telemetry/flight_recorder.h"
#include "race/detector.h"

using namespace graphite;

namespace
{

constexpr int TILES = 8;
constexpr int THREADS = 8;

/** One counter of a run; a `flag` renders as a JSON bool. */
struct Count
{
    const char* name;
    stat_t value = 0;
    bool flag = false;
};
using Counts = std::vector<Count>;

struct Observer
{
    const char* name;      ///< command-line selector
    const char* benchmark; ///< BENCH "benchmark" field
    const char* file;      ///< BENCH file written
    const char* label;     ///< per-run key naming the side
    int reps;
    double bound; ///< slowdown_armed must not exceed it
    const char* criterion;
    void (*arm)(Config& cfg, bool armed);
    /** This run's counters; @p recorder_events counts the flight
     *  recorder's events during the run alone. */
    Counts (*counts)(Simulator& sim, stat_t recorder_events);
    bool (*check)(const Counts& off, const Counts& on);
};

const Observer OBSERVERS[] = {
    {"span", "micro_span_overhead", "BENCH_span_overhead.json", "spans",
     5, 1.25, "slowdown_armed <= 1.25 && kind_cycles == stage_cycles",
     [](Config& cfg, bool armed) {
         cfg.setBool("obs/spans_enabled", armed);
     },
     [](Simulator& sim, stat_t) {
         Counts c{{"completed"}, {"kind_cycles"}, {"stage_cycles"}};
         if (const obs::SpanSink* sink = sim.spanSink()) {
             c[0].value = sink->completedCount();
             for (int k = 0; k < obs::NUM_SPAN_KINDS; ++k)
                 c[1].value +=
                     sink->kindCycles(static_cast<obs::SpanKind>(k));
             for (int s = 0; s < obs::NUM_SPAN_STAGES; ++s)
                 c[2].value +=
                     sink->stageCycles(static_cast<obs::SpanStage>(s));
         }
         return c;
     },
     [](const Counts&, const Counts& on) {
         return on[0].value > 0 && on[1].value == on[2].value;
     }},
    {"accuracy", "micro_accuracy_overhead", "BENCH_accuracy.json",
     "accuracy", 5, 1.15,
     "slowdown_armed <= 1.15 && armed deliveries > 0",
     [](Config& cfg, bool armed) {
         cfg.setBool("accuracy/enabled", armed);
     },
     [](Simulator& sim, stat_t) {
         Counts c{{"deliveries"}, {"violations"}, {"pair_samples"}};
         if (const auto* acc = sim.accuracy()) {
             c[0].value = acc->deliveries();
             c[1].value = acc->violations();
             c[2].value = acc->pairSamples();
         }
         return c;
     },
     [](const Counts& off, const Counts& on) {
         return on[0].value > 0 && off[0].value == 0 &&
                on[1].value <= on[0].value;
     }},
    {"race", "micro_race_overhead", "BENCH_race_overhead.json",
     "detector", 3, 3.0, "slowdown_armed <= 3 && races == 0",
     [](Config& cfg, bool armed) { cfg.setBool("race/enabled", armed); },
     [](Simulator& sim, stat_t) {
         Counts c{{"words_checked"}, {"sync_edges"}, {"shadow_lines"},
                  {"races"}};
         if (const race::Detector* det = sim.raceDetector()) {
             c[0].value = det->wordsChecked();
             c[1].value = det->syncEdges();
             c[2].value = det->shadowLines();
             c[3].value = det->raceCount();
         }
         return c;
     },
     [](const Counts&, const Counts& on) { return on[3].value == 0; }},
    {"telemetry", "micro_telemetry_overhead", "BENCH_telemetry.json",
     "telemetry", 5, 1.10, "slowdown_armed <= 1.10 && events_recorded > 0",
     // Off: recorder disarmed, no HTTP server, watchdog off. Armed:
     // recorder on, server bound but never scraped, watchdog beating.
     [](Config& cfg, bool armed) {
         cfg.setBool("telemetry/recorder", armed);
         cfg.setBool("telemetry/watchdog", armed);
         if (armed)
             cfg.setInt("telemetry/http_port", 0);
     },
     [](Simulator& sim, stat_t recorder_events) {
         return Counts{
             {"events_recorded", recorder_events},
             {"watchdog_beats", sim.watchdog().beats().load()},
             {"server_idle", sim.telemetryServer().running(), true}};
     },
     [](const Counts&, const Counts& on) {
         return on[0].value > 0 && on[2].value != 0;
     }},
};

struct Run
{
    bool armed = false;
    double wallSeconds = 1e30; ///< fastest of the repetitions
    cycle_t simulatedCycles = 0;
    Counts counts;
};

Run
measure(const Observer& o, const workloads::WorkloadInfo& w,
        const workloads::WorkloadParams& p, bool armed)
{
    Run out;
    out.armed = armed;
    for (int rep = 0; rep < o.reps; ++rep) {
        Config cfg = bench::benchConfig(TILES);
        o.arm(cfg, armed);
        Simulator sim(cfg);
        // The flight recorder is process-wide and keeps its count while
        // disarmed, so a run's events are the difference.
        const auto& recorder = obs::telemetry::FlightRecorder::instance();
        stat_t recorded = recorder.recorded();
        workloads::SimRunResult r = workloads::runSim(sim, w, p);
        out.wallSeconds = std::min(out.wallSeconds, r.wallSeconds);
        out.simulatedCycles = r.simulatedCycles;
        out.counts = o.counts(sim, recorder.recorded() - recorded);
    }
    return out;
}

std::string
value(const Count& c)
{
    if (c.flag)
        return c.value != 0 ? "true" : "false";
    return std::to_string(c.value);
}

/** Measure @p o, print its table and write its BENCH file. */
bool
runObserver(const Observer& o, const workloads::WorkloadInfo& w,
            const workloads::WorkloadParams& p)
{
    std::printf("=== %s ===\n", o.benchmark);
    std::printf("%s wall overhead on %s (size %d, %d threads, best of "
                "%d reps).\n\n",
                o.name, w.name.c_str(), p.size, p.threads, o.reps);

    Run off = measure(o, w, p, false);
    Run on = measure(o, w, p, true);
    double slowdown = on.wallSeconds / off.wallSeconds;
    bool checked = o.check(off.counts, on.counts);
    bool met = slowdown <= o.bound && checked;

    TextTable table;
    std::vector<std::string> header{o.label, "wall s"};
    for (const Count& c : off.counts)
        header.push_back(c.name);
    table.header(header);
    for (const Run* r : {&off, &on}) {
        std::vector<std::string> row{r->armed ? "armed" : "off",
                                     TextTable::num(r->wallSeconds, 3)};
        for (const Count& c : r->counts)
            row.push_back(value(c));
        table.row(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("slowdown armed/off: %.2fx (criterion: <= %.2fx)\n",
                slowdown, o.bound);
    if (!checked)
        std::printf("FAIL: counters fail the check in \"%s\"\n",
                    o.criterion);

    FILE* f = std::fopen(o.file, "w");
    if (f == nullptr) {
        std::perror(o.file);
        return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"%s\",\n", o.benchmark);
    std::fprintf(f, "  \"workload\": \"%s\",\n", w.name.c_str());
    std::fprintf(f, "  \"size\": %d,\n", p.size);
    std::fprintf(f, "  \"threads\": %d,\n", p.threads);
    std::fprintf(f, "  \"reps\": %d,\n", o.reps);
    std::fprintf(f, "  \"runs\": [\n");
    for (const Run* r : {&off, &on}) {
        std::fprintf(f,
                     "    {\"%s\": \"%s\", \"wall_s\": %.6f, "
                     "\"simulated_cycles\": %llu",
                     o.label, r->armed ? "armed" : "off", r->wallSeconds,
                     static_cast<unsigned long long>(r->simulatedCycles));
        for (const Count& c : r->counts)
            std::fprintf(f, ", \"%s\": %s", c.name, value(c).c_str());
        std::fprintf(f, "}%s\n", r == &off ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"slowdown_armed\": %.3f,\n", slowdown);
    std::fprintf(f, "  \"criterion\": \"%s\",\n", o.criterion);
    std::fprintf(f, "  \"criterion_met\": %s\n", met ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n\n", o.file);
    return met;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<const Observer*> selected;
    for (int i = 1; i < argc; ++i) {
        auto it = std::find_if(
            std::begin(OBSERVERS), std::end(OBSERVERS),
            [&](const Observer& o) {
                return std::strcmp(o.name, argv[i]) == 0;
            });
        if (it == std::end(OBSERVERS)) {
            std::fprintf(stderr,
                         "usage: micro_observer_overhead "
                         "[span|accuracy|race|telemetry ...]\n");
            return 2;
        }
        selected.push_back(&*it);
    }
    if (selected.empty())
        for (const Observer& o : OBSERVERS)
            selected.push_back(&o);

    const workloads::WorkloadInfo& w = workloads::findWorkload("fft");
    workloads::WorkloadParams p = w.defaults;
    p.threads = THREADS;
    if (bench::fastMode())
        p.size = 512;

    bool ok = true;
    for (const Observer* o : selected)
        ok = runObserver(*o, w, p) && ok;
    return ok ? 0 : 1;
}
