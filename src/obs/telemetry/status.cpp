#include "obs/telemetry/status.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <unistd.h>

#include "obs/accuracy/accuracy.h"

namespace graphite
{
namespace obs
{
namespace telemetry
{

namespace
{

/** JSON string escaping (names here are ASCII identifiers, but be safe). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

double
hostWallSeconds(const StatusSource& src)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - src.start)
        .count();
}

} // namespace

stat_t
hostRssKb()
{
    FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long size_pages = 0;
    unsigned long rss_pages = 0;
    int rc = std::fscanf(f, "%lu %lu", &size_pages, &rss_pages);
    std::fclose(f);
    if (rc != 2)
        return 0;
    long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0)
        page = 4096;
    return static_cast<stat_t>(rss_pages) *
           static_cast<stat_t>(page) / 1024;
}

std::string
prometheusName(const std::string& stat_name)
{
    std::string out = "graphite_";
    out.reserve(out.size() + stat_name.size());
    for (char c : stat_name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

std::string
renderPrometheus(const StatsRegistry& reg)
{
    std::ostringstream os;

    // Histograms first, as proper Prometheus histogram families. Their
    // scalar ".count"/".sum" projections in snapshot() would sanitize to
    // the same "_count"/"_sum" series names, so collect them for
    // skipping below.
    std::set<std::string> histogram_projections;
    for (const std::string& name : reg.histogramNames()) {
        histogram_projections.insert(name + ".count");
        histogram_projections.insert(name + ".sum");
        std::optional<HistogramStat> h = reg.histogram(name);
        if (!h)
            continue;
        std::string pname = prometheusName(name);
        os << "# TYPE " << pname << " histogram\n";
        stat_t cumulative = 0;
        for (int i = 0; i < HistogramStat::NUM_BUCKETS; ++i) {
            stat_t in_bucket = h->bucket(i);
            if (in_bucket == 0)
                continue;
            cumulative += in_bucket;
            // Bucket i holds values of bit-width i: upper bound 2^i - 1.
            stat_t le = i == 0 ? 0 : (stat_t{1} << i) - 1;
            os << pname << "_bucket{le=\"" << le << "\"} "
               << cumulative << "\n";
        }
        os << pname << "_bucket{le=\"+Inf\"} " << h->count() << "\n";
        os << pname << "_sum " << h->sum() << "\n";
        os << pname << "_count " << h->count() << "\n";
    }

    // Everything else as untyped gauges (counters included: the scraper
    // cares about values, and interval semantics live in the sampler).
    for (const auto& [name, value] : reg.snapshot()) {
        if (histogram_projections.count(name))
            continue;
        std::string pname = prometheusName(name);
        os << "# TYPE " << pname << " gauge\n";
        os << pname << " " << value << "\n";
    }

    // Host-side meta-series so a scrape is self-describing.
    os << "# TYPE graphite_host_rss_kb gauge\n";
    os << "graphite_host_rss_kb " << hostRssKb() << "\n";
    return os.str();
}

std::string
renderStatusJson(const StatusSource& src, const WatchdogView* wd)
{
    std::ostringstream os;
    os << "{";
    os << "\"simulated_cycles\":"
       << (src.simulatedTime ? src.simulatedTime() : 0) << ",";
    os << "\"host_wall_seconds\":" << hostWallSeconds(src) << ",";
    os << "\"host_rss_kb\":" << hostRssKb() << ",";
    os << "\"sync_model\":\"" << jsonEscape(src.syncModelName) << "\",";
    os << "\"sync_events\":" << (src.syncEvents ? src.syncEvents() : 0)
       << ",";
    os << "\"sync_wait_us\":"
       << (src.syncWaitUs ? src.syncWaitUs() : 0) << ",";
    os << "\"transport_queue_depth\":"
       << (src.transportQueueDepth ? src.transportQueueDepth() : 0)
       << ",";
    os << "\"inflight_packets\":"
       << (src.inflightPackets ? src.inflightPackets() : 0) << ",";

    // Accuracy observatory: lax-sync skew and causality-violation
    // gauges (disarmed => armed:false with zeroed fields).
    {
        const accuracy::AccuracyObservatory* acc = src.accuracy;
        os << "\"sync_skew\":{";
        os << "\"armed\":" << (acc ? "true" : "false") << ",";
        os << "\"causality_violations\":" << (acc ? acc->violations() : 0)
           << ",";
        os << "\"deliveries_checked\":" << (acc ? acc->deliveries() : 0)
           << ",";
        os << "\"worst_magnitude_cycles\":"
           << (acc ? acc->worstMagnitude() : 0) << ",";
        os << "\"pair_skew_max_cycles\":" << (acc ? acc->pairSkewMax() : 0)
           << ",";
        os << "\"pair_skew_mean_cycles\":"
           << (acc ? acc->pairSkewMean() : 0.0) << ",";
        os << "\"pair_samples\":" << (acc ? acc->pairSamples() : 0)
           << "},";
    }

    // Host execution pool health (no pool source => enabled:false).
    HostPoolStatus hp;
    if (src.hostPool)
        hp = src.hostPool();
    os << "\"host_pool\":{";
    os << "\"enabled\":" << (hp.enabled ? "true" : "false") << ",";
    os << "\"mode\":\"" << jsonEscape(hp.mode) << "\",";
    os << "\"slots\":" << hp.slots << ",";
    os << "\"executing\":" << hp.executing << ",";
    os << "\"runnable\":" << hp.runnable << ",";
    os << "\"blocked\":" << hp.blocked << ",";
    os << "\"skew_parked\":" << hp.skewParked << ",";
    os << "\"quanta\":" << hp.quanta << ",";
    os << "\"yields\":" << hp.yields << ",";
    os << "\"skew_parks\":" << hp.skewParks << ",";
    os << "\"skew_park_ns\":" << hp.skewParkNs << "},";

    // Per-tile heartbeats with derived IPC.
    os << "\"tiles\":[";
    if (src.tiles) {
        bool first = true;
        for (const TileStatus& t : src.tiles()) {
            if (!first)
                os << ",";
            first = false;
            double ipc =
                t.cycles == 0
                    ? 0.0
                    : static_cast<double>(t.instructions) /
                          static_cast<double>(t.cycles);
            os << "{\"tile\":" << t.tile << ",\"cycles\":" << t.cycles
               << ",\"instructions\":" << t.instructions
               << ",\"ipc\":" << ipc
               << ",\"occupied\":" << (t.occupied ? "true" : "false")
               << ",\"running\":" << (t.running ? "true" : "false")
               << "}";
        }
    }
    os << "],";

    // MCP wait sets: who is parked on what.
    os << "\"wait_sets\":{";
    WaitSetSnapshot ws;
    if (src.waitSets)
        ws = src.waitSets();
    os << "\"busy_tiles\":" << ws.busyTiles << ",";
    os << "\"shutdown_requested\":"
       << (ws.shutdownRequested ? "true" : "false") << ",";
    os << "\"futexes\":[";
    for (std::size_t i = 0; i < ws.futexes.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"addr\":\"0x" << std::hex << ws.futexes[i].addr
           << std::dec << "\",\"waiters\":[";
        for (std::size_t j = 0; j < ws.futexes[i].waiters.size(); ++j) {
            if (j)
                os << ",";
            os << ws.futexes[i].waiters[j];
        }
        os << "]}";
    }
    os << "],";
    os << "\"joins\":[";
    for (std::size_t i = 0; i < ws.joins.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"target\":" << ws.joins[i].target << ",\"waiters\":[";
        for (std::size_t j = 0; j < ws.joins[i].waiters.size(); ++j) {
            if (j)
                os << ",";
            os << ws.joins[i].waiters[j];
        }
        os << "]}";
    }
    os << "]},";

    os << "\"watchdog\":{";
    if (wd != nullptr) {
        os << "\"enabled\":" << (wd->enabled ? "true" : "false")
           << ",\"verdict\":\"" << wd->verdict << "\""
           << ",\"beats\":" << wd->beats
           << ",\"stall_flags\":" << wd->stallFlags
           << ",\"dumps\":" << wd->dumps;
    } else {
        os << "\"enabled\":false";
    }
    os << "}";
    os << "}";
    return os.str();
}

std::string
renderHealthJson(const StatusSource& src, const WatchdogView* wd)
{
    const char* verdict = wd != nullptr ? wd->verdict : "ok";
    bool healthy =
        verdict[0] == 'o' && verdict[1] == 'k' && verdict[2] == '\0';
    std::ostringstream os;
    os << "{\"status\":\"" << (healthy ? "ok" : "unhealthy")
       << "\",\"verdict\":\"" << verdict << "\",\"simulated_cycles\":"
       << (src.simulatedTime ? src.simulatedTime() : 0)
       << ",\"host_wall_seconds\":" << hostWallSeconds(src) << "}";
    return os.str();
}

} // namespace telemetry
} // namespace obs
} // namespace graphite
