/**
 * @file
 * Command-line simulation runner.
 *
 * Runs any workload from the suite on a configurable target, the way the
 * original Graphite was driven by carbon_sim.cfg plus command-line
 * overrides:
 *
 *   graphite_cli --workload fft --tiles 64 --threads 32
 *   graphite_cli --config graphite.cfg --set sync/model=lax_p2p \
 *                --workload radix --size 65536 --stats
 *   graphite_cli --list
 *
 * Options:
 *   --workload NAME   workload to run (see --list)
 *   --tiles N         target tile count        (default 32)
 *   --processes N     simulated host processes (default 1)
 *   --threads N       application threads      (default = tiles)
 *   --size N          problem size             (workload default)
 *   --iters N         iterations               (workload default)
 *   --config PATH     load an INI config file first
 *   --set K=V         override one config key (repeatable)
 *   --scheduler MODE  host execution scheduler: deterministic |
 *                     free_running (= host/scheduler)
 *   --host-threads N  host pool width, 0 = hardware concurrency
 *                     (= host/threads)
 *   --stats           print the full statistics report
 *   --native          also run the native build and cross-check
 *   --list            list available workloads
 *
 * Observability (see README "Observability"):
 *   --trace-out PATH       write a Chrome trace_event JSON of the run
 *   --metrics-out PATH     write per-interval stats snapshots (CSV)
 *   --metrics-interval N   simulated cycles per snapshot row
 *                          (= obs/metrics_interval)
 *   --spans-out PATH       write causal transaction spans (.jsonl);
 *                          analyze with tools/span_report.py
 *
 * Live telemetry (see README "Live telemetry"):
 *   --telemetry-port N     serve /metrics, /status, /healthz over HTTP
 *                          on 127.0.0.1:N (0 picks an ephemeral port;
 *                          the bound port is printed)
 *   --telemetry-linger S   keep serving S seconds after the run so an
 *                          external prober can scrape final values
 *   --telemetry-dump PATH  watchdog/crash diagnostic dump path; also
 *                          escalates the watchdog action to "dump"
 *
 * Accuracy observatory (see DESIGN.md "Accuracy observatory"):
 *   --accuracy-out PATH    arm causality-violation detection and write
 *                          a flat headline-stats JSON after the run —
 *                          the unit of comparison for the accuracy-diff
 *                          harness (tools/accuracy_report.py)
 *   --accuracy-ref PATH    compare this run's headline stats against a
 *                          reference produced by --accuracy-out and
 *                          print the per-stat relative error table
 *   --accuracy-jsonl PATH  write the observatory's violation/skew JSONL
 *                          report (= accuracy/out)
 *
 * Checkpoint / fast-forward (see DESIGN.md "Snapshot format"):
 *   --checkpoint-in PATH   restore simulator state before the run; the
 *                          workload continues on the warmed target
 *   --checkpoint-out PATH  save full simulator state after the run —
 *                          the seed of a checkpoint-then-sweep fan-out
 *                          (EXPERIMENTS.md)
 *   --fast-forward         start in functional-only warmup mode;
 *                          timing detail begins at api::roiBegin() or
 *                          --ff-detail-at
 *   --ff-detail-at N       tile-clock threshold that ends warmup
 *
 * The GRAPHITE_LOG environment variable sets per-component log levels,
 * e.g. GRAPHITE_LOG=net:debug,mem:warn.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/table.h"
#include "core/simulator.h"
#include "transport/net_packet.h"
#include "obs/accuracy/accuracy.h"
#include "race/detector.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "workloads/registry.h"

using namespace graphite;

namespace
{

/**
 * The headline statistics the accuracy-diff harness compares across
 * sync models: whole-run totals, miss rate, and latency percentiles.
 * Flat name -> value pairs, stable order.
 */
std::vector<std::pair<std::string, double>>
collectHeadline(const Simulator& sim, const workloads::SimRunResult& r)
{
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("cycles", static_cast<double>(r.simulatedCycles));
    out.emplace_back("instructions",
                     static_cast<double>(r.totalInstructions));
    const StatsRegistry& reg = sim.stats();
    double accesses = static_cast<double>(reg.get("mem.accesses_total"));
    double misses = static_cast<double>(reg.get("mem.l2_misses_total"));
    out.emplace_back("mem_accesses", accesses);
    out.emplace_back("mem_l2_misses", misses);
    out.emplace_back("mem_l2_miss_rate",
                     accesses > 0 ? misses / accesses : 0.0);
    if (std::optional<HistogramStat> h =
            reg.histogram("mem.access_latency")) {
        out.emplace_back("mem_latency_p50", static_cast<double>(
                                                h->percentileApprox(0.5)));
        out.emplace_back("mem_latency_p95", static_cast<double>(
                                                h->percentileApprox(0.95)));
    }
    if (sim.accuracy() != nullptr) {
        const obs::accuracy::AccuracyObservatory& acc = *sim.accuracy();
        const HistogramStat* app = acc.netLatencyHistogram(
            static_cast<int>(PacketType::App));
        const HistogramStat* mem = acc.netLatencyHistogram(
            static_cast<int>(PacketType::Memory));
        if (app != nullptr && app->count() > 0) {
            out.emplace_back("net_app_latency_p50",
                             static_cast<double>(
                                 app->percentileApprox(0.5)));
            out.emplace_back("net_app_latency_p95",
                             static_cast<double>(
                                 app->percentileApprox(0.95)));
        }
        if (mem != nullptr && mem->count() > 0) {
            out.emplace_back("net_mem_latency_p50",
                             static_cast<double>(
                                 mem->percentileApprox(0.5)));
            out.emplace_back("net_mem_latency_p95",
                             static_cast<double>(
                                 mem->percentileApprox(0.95)));
        }
        out.emplace_back("causality_violations",
                         static_cast<double>(acc.violations()));
        out.emplace_back("deliveries_checked",
                         static_cast<double>(acc.deliveries()));
        out.emplace_back("violation_fraction",
                         acc.deliveries() > 0
                             ? static_cast<double>(acc.violations()) /
                                   static_cast<double>(acc.deliveries())
                             : 0.0);
        out.emplace_back("worst_violation_cycles",
                         static_cast<double>(acc.worstMagnitude()));
        out.emplace_back("pair_skew_max_cycles",
                         static_cast<double>(acc.pairSkewMax()));
        out.emplace_back("pair_skew_mean_cycles", acc.pairSkewMean());
    }
    return out;
}

std::string
renderHeadlineJson(
    const std::string& workload, const std::string& sync_model,
    double checksum,
    const std::vector<std::pair<std::string, double>>& stats)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << workload << "\",\"sync_model\":\""
       << sync_model << "\",\"checksum\":" << checksum;
    for (const auto& [name, value] : stats)
        os << ",\"" << name << "\":" << value;
    os << "}\n";
    return os.str();
}

/**
 * Pull "name": value out of a headline JSON produced by --accuracy-out.
 * @return true and set @p value when the key is present.
 */
bool
findHeadlineValue(const std::string& json, const std::string& name,
                  double& value)
{
    std::string needle = "\"" + name + "\":";
    size_t at = json.find(needle);
    if (at == std::string::npos)
        return false;
    value = std::atof(json.c_str() + at + needle.size());
    return true;
}

/**
 * Per-stat relative error of this run against a reference headline
 * file (the accuracy-diff harness output). @return false when the
 * reference cannot be read.
 */
bool
printAccuracyDiff(
    const std::string& ref_path, const std::string& sync_model,
    const std::vector<std::pair<std::string, double>>& stats)
{
    std::ifstream in(ref_path);
    if (!in) {
        std::fprintf(stderr,
                     "accuracy-ref: cannot open '%s'\n",
                     ref_path.c_str());
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string json = buf.str();

    std::string ref_model = "?";
    size_t at = json.find("\"sync_model\":\"");
    if (at != std::string::npos) {
        size_t start = at + std::strlen("\"sync_model\":\"");
        size_t end = json.find('"', start);
        if (end != std::string::npos)
            ref_model = json.substr(start, end - start);
    }

    TextTable t;
    t.header({"stat", ref_model + " (ref)", sync_model, "rel err"});
    for (const auto& [name, value] : stats) {
        double ref = 0;
        if (!findHeadlineValue(json, name, ref))
            continue;
        std::string err;
        if (ref != 0.0)
            err = TextTable::num((value - ref) / ref * 100.0, 2) + "%";
        else if (value == 0.0)
            err = "0.00%";
        else
            err = "n/a (ref 0)";
        t.row({name, TextTable::num(ref, 4), TextTable::num(value, 4),
               err});
    }
    std::printf("\n=== accuracy diff vs %s ===\n%s", ref_path.c_str(),
                t.render().c_str());
    return true;
}

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--tiles N] [--processes N]"
                 " [--threads N]\n"
                 "          [--size N] [--iters N] [--config PATH]"
                 " [--set K=V]... [--stats]\n"
                 "          [--scheduler free_running|deterministic]"
                 " [--host-threads N]\n"
                 "          [--trace-out PATH] [--metrics-out PATH]"
                 " [--metrics-interval N]\n"
                 "          [--spans-out PATH] [--native]\n"
                 "          [--telemetry-port N] [--telemetry-linger S]"
                 " [--telemetry-dump PATH]\n"
                 "          [--checkpoint-in PATH] [--checkpoint-out"
                 " PATH]\n"
                 "          [--fast-forward] [--ff-detail-at N]\n"
                 "          [--accuracy-out PATH] [--accuracy-ref PATH]"
                 " [--accuracy-jsonl PATH]\n"
                 "          [--race [--race-out PATH]] | --list\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::string config_path;
    std::vector<std::string> overrides;
    int tiles = 32, processes = 1, threads = -1;
    int size = -1, iters = -1;
    bool stats = false, native = false;
    std::string trace_out, metrics_out, spans_out;
    bool race = false;
    std::string race_out;
    int telemetry_port = -1;
    double telemetry_linger = 0.0;
    std::string telemetry_dump;
    std::string checkpoint_in, checkpoint_out;
    bool fast_forward = false;
    long long ff_detail_at = -1;
    std::string accuracy_out, accuracy_ref, accuracy_jsonl;

    initLogFilterFromEnv();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--list") {
            for (const auto& w : workloads::registry())
                std::printf("%-16s (size %d, iters %d)\n",
                            w.name.c_str(), w.defaults.size,
                            w.defaults.iters);
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--tiles") {
            tiles = std::atoi(next());
        } else if (arg == "--processes") {
            processes = std::atoi(next());
        } else if (arg == "--threads") {
            threads = std::atoi(next());
        } else if (arg == "--size") {
            size = std::atoi(next());
        } else if (arg == "--iters") {
            iters = std::atoi(next());
        } else if (arg == "--config") {
            config_path = next();
        } else if (arg == "--set") {
            overrides.emplace_back(next());
        } else if (arg == "--scheduler") {
            overrides.emplace_back(std::string("host/scheduler=") +
                                   next());
        } else if (arg == "--host-threads") {
            overrides.emplace_back(std::string("host/threads=") +
                                   next());
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--native") {
            native = true;
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--metrics-interval") {
            overrides.emplace_back(std::string("obs/metrics_interval=") +
                                   next());
        } else if (arg == "--spans-out") {
            spans_out = next();
        } else if (arg == "--race") {
            race = true;
        } else if (arg == "--race-out") {
            race = true;
            race_out = next();
        } else if (arg == "--telemetry-port") {
            telemetry_port = std::atoi(next());
        } else if (arg == "--telemetry-linger") {
            telemetry_linger = std::atof(next());
        } else if (arg == "--telemetry-dump") {
            telemetry_dump = next();
        } else if (arg == "--checkpoint-in") {
            checkpoint_in = next();
        } else if (arg == "--checkpoint-out") {
            checkpoint_out = next();
        } else if (arg == "--fast-forward") {
            fast_forward = true;
        } else if (arg == "--ff-detail-at") {
            ff_detail_at = std::atoll(next());
        } else if (arg == "--accuracy-out") {
            accuracy_out = next();
        } else if (arg == "--accuracy-ref") {
            accuracy_ref = next();
        } else if (arg == "--accuracy-jsonl") {
            accuracy_jsonl = next();
        } else {
            usage(argv[0]);
        }
    }
    if (workload.empty())
        usage(argv[0]);

    try {
        Config cfg = defaultTargetConfig();
        if (!config_path.empty())
            cfg.parseFile(config_path);
        cfg.setInt("general/total_tiles", tiles);
        cfg.setInt("general/num_processes", processes);
        for (const std::string& kv : overrides)
            cfg.setOverride(kv);
        if (!trace_out.empty())
            cfg.set("obs/trace_out", trace_out);
        if (!metrics_out.empty())
            cfg.set("obs/metrics_out", metrics_out);
        if (!spans_out.empty())
            cfg.set("obs/spans_out", spans_out);
        if (race)
            cfg.setBool("race/enabled", true);
        if (!race_out.empty())
            cfg.set("race/report_out", race_out);
        if (telemetry_port >= 0)
            cfg.setInt("telemetry/http_port", telemetry_port);
        if (!telemetry_dump.empty()) {
            cfg.set("telemetry/watchdog_dump", telemetry_dump);
            cfg.set("telemetry/watchdog_action", "dump");
            cfg.set("telemetry/crash_dump", telemetry_dump);
        }
        if (fast_forward)
            cfg.setBool("snapshot/fast_forward", true);
        if (ff_detail_at >= 0)
            cfg.setInt("snapshot/ff_detail_at", ff_detail_at);
        if (!accuracy_out.empty() || !accuracy_ref.empty())
            cfg.setBool("accuracy/enabled", true);
        if (!accuracy_jsonl.empty())
            cfg.set("accuracy/out", accuracy_jsonl);

        const workloads::WorkloadInfo& w =
            workloads::findWorkload(workload);
        workloads::WorkloadParams p = w.defaults;
        p.threads = threads > 0 ? threads : tiles;
        if (size > 0)
            p.size = size;
        if (iters > 0)
            p.iters = iters;

        Simulator sim(cfg);
        if (!checkpoint_in.empty()) {
            snapshot::restoreCheckpointFile(sim, checkpoint_in);
            std::printf("checkpoint in     : %s\n",
                        checkpoint_in.c_str());
        }
        workloads::SimRunResult r = workloads::runSim(sim, w, p);
        if (!checkpoint_out.empty()) {
            snapshot::saveCheckpointFile(sim, checkpoint_out);
            std::printf("checkpoint out    : %s\n",
                        checkpoint_out.c_str());
        }

        std::printf("workload          : %s (size %d, iters %d, "
                    "%d threads)\n",
                    w.name.c_str(), p.size, p.iters, p.threads);
        std::printf("simulated cycles  : %llu\n",
                    static_cast<unsigned long long>(r.simulatedCycles));
        std::printf("instructions      : %llu\n",
                    static_cast<unsigned long long>(
                        r.totalInstructions));
        std::printf("host wall time    : %.3f s\n", r.wallSeconds);
        std::printf("checksum          : %.17g\n", r.checksum);

        std::string violation = sim.memory().validateCoherence();
        std::printf("coherence         : %s\n",
                    violation.empty() ? "clean" : violation.c_str());

        if (native) {
            double native_sum = w.runNative(p);
            bool match = native_sum == r.checksum;
            std::printf("native checksum   : %.17g (%s)\n", native_sum,
                        match ? "MATCH" : "MISMATCH");
            if (!match)
                return 1;
        }
        std::string sync_model = cfg.getString("sync/model");
        if (!accuracy_out.empty() || !accuracy_ref.empty()) {
            auto headline = collectHeadline(sim, r);
            if (!accuracy_out.empty()) {
                std::ofstream out(accuracy_out);
                if (!out) {
                    std::fprintf(stderr,
                                 "accuracy-out: cannot open '%s'\n",
                                 accuracy_out.c_str());
                    return 1;
                }
                out << renderHeadlineJson(w.name, sync_model,
                                          r.checksum, headline);
                std::printf("accuracy out      : %s\n",
                            accuracy_out.c_str());
            }
            if (!accuracy_ref.empty() &&
                !printAccuracyDiff(accuracy_ref, sync_model, headline))
                return 1;
        }

        if (stats)
            std::printf("\n%s", sim.statsReport().c_str());

        // The server (if any) keeps serving final values until the
        // Simulator dies; linger holds it open for external probers.
        if (sim.telemetryServer().running()) {
            std::printf("telemetry         : http://127.0.0.1:%u "
                        "(/metrics /status /healthz)\n",
                        static_cast<unsigned>(
                            sim.telemetryServer().port()));
            std::fflush(stdout);
            if (telemetry_linger > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(telemetry_linger));
        }
        return violation.empty() ? 0 : 1;
    } catch (const snapshot::SnapshotError& err) {
        std::fprintf(stderr, "snapshot: %s\n", err.what());
        return 1;
    } catch (const FatalError& err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 1;
    }
}
