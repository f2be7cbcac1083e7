#include "obs/telemetry/status.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <unistd.h>

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

std::vector<TileStatus>
tileStatuses(const StatusSource& src)
{
    return src.tiles ? src.tiles() : std::vector<TileStatus>{};
}

/** Simulated time: the furthest tile clock. */
cycle_t
simulatedCycles(const std::vector<TileStatus>& tiles)
{
    cycle_t max_clock = 0;
    for (const TileStatus& t : tiles)
        max_clock = std::max(max_clock, t.cycles);
    return max_clock;
}

bool
registered(const StatusSource& src, const std::string& name)
{
    return src.stats != nullptr && src.stats->has(name);
}

/** The registry's value of @p name; 0 when it is not registered. */
stat_t
statValue(const StatusSource& src, const std::string& name)
{
    return registered(src, name) ? src.stats->get(name) : 0;
}

const char*
jsonBool(bool b)
{
    return b ? "true" : "false";
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
    const std::vector<TileStatus> tiles = tileStatuses(src);
    std::ostringstream os;
    os << "{";
    os << "\"simulated_cycles\":" << simulatedCycles(tiles) << ",";
    os << "\"host_wall_seconds\":" << hostWallSeconds(src) << ",";
    os << "\"host_rss_kb\":" << hostRssKb() << ",";
    os << "\"sync_model\":\"" << jsonEscape(src.syncModelName) << "\",";
    os << "\"sync_events\":" << statValue(src, "sync.events") << ",";
    os << "\"sync_wait_us\":" << statValue(src, "sync.wait_us") << ",";
    os << "\"transport_queue_depth\":"
       << statValue(src, "transport.queue_depth") << ",";
    os << "\"inflight_packets\":"
       << statValue(src, "net.inflight_packets") << ",";

    // Accuracy observatory: lax-sync skew and causality-violation
    // statistics, registered only while it is armed (disarmed =>
    // armed:false with zeroed fields).
    os << "\"sync_skew\":{";
    os << "\"armed\":" << jsonBool(registered(src, "accuracy.violations"))
       << ",";
    os << "\"causality_violations\":"
       << statValue(src, "accuracy.violations") << ",";
    os << "\"deliveries_checked\":"
       << statValue(src, "accuracy.deliveries") << ",";
    os << "\"worst_magnitude_cycles\":"
       << statValue(src, "accuracy.worst_magnitude_cycles") << ",";
    os << "\"pair_skew_max_cycles\":"
       << statValue(src, "sync.skew_pair_max_cycles") << ",";
    os << "\"pair_skew_mean_cycles\":"
       << statValue(src, "sync.skew_pair_mean_cycles") << ",";
    os << "\"pair_samples\":" << statValue(src, "sync.skew_pair_samples")
       << "},";

    // Host execution pool health: each field is the host.pool.*
    // statistic of the same name (none registered => enabled:false).
    os << "\"host_pool\":{";
    os << "\"enabled\":" << jsonBool(registered(src, "host.pool.slots"))
       << ",";
    os << "\"mode\":\"" << jsonEscape(src.schedulerMode) << "\"";
    for (const char* field :
         {"slots", "executing", "runnable", "blocked", "skew_parked",
          "quanta", "yields", "skew_parks", "skew_park_ns"})
        os << ",\"" << field
           << "\":" << statValue(src, std::string("host.pool.") + field);
    os << "},";

    // Per-tile heartbeats with derived IPC.
    os << "\"tiles\":[";
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const TileStatus& t = tiles[i];
        if (i)
            os << ",";
        double ipc = t.cycles == 0 ? 0.0
                                   : static_cast<double>(t.instructions) /
                                         static_cast<double>(t.cycles);
        os << "{\"tile\":" << t.tile << ",\"cycles\":" << t.cycles
           << ",\"instructions\":" << t.instructions
           << ",\"ipc\":" << ipc << ",\"occupied\":" << jsonBool(t.occupied)
           << ",\"running\":" << jsonBool(t.running) << "}";
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
       << simulatedCycles(tileStatuses(src))
       << ",\"host_wall_seconds\":" << hostWallSeconds(src) << "}";
    return os.str();
}

} // namespace telemetry
} // namespace obs
} // namespace graphite
