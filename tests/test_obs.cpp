/**
 * @file
 * Unit tests for the observability layer: histogram stats, gauge and
 * histogram registration, trace-event JSON export, interval metrics
 * snapshots, component log filtering, the off-by-default contract
 * (disabled observability records nothing and writes no files), and
 * per-Simulator ownership (Simulators in one process, in sequence or
 * at once, keep separate records).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/stats.h"
#include "core/api.h"
#include "core/simulator.h"
#include "obs/metrics_sampler.h"
#include "obs/telemetry/status.h"
#include "obs/trace_event.h"

namespace graphite
{
namespace
{

// --------------------------------------------------------- JSON validation
//
// Minimal recursive-descent JSON acceptor — enough to prove the trace
// document is well-formed without pulling in a JSON library.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char* word)
    {
        size_t len = std::string(word).size();
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string& s_;
    size_t pos_ = 0;
};

bool
fileExists(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

std::string
readFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

// ---------------------------------------------------------- HistogramStat

TEST(HistogramStat, EmptyHistogram)
{
    HistogramStat h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramStat, SummaryStatistics)
{
    HistogramStat h;
    h.record(10);
    h.record(20);
    h.record(30);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramStat, BucketsByBitWidth)
{
    HistogramStat h;
    h.record(0); // bucket 0
    h.record(1); // bucket 1
    h.record(2); // bucket 2: [2, 4)
    h.record(3);
    h.record(4); // bucket 3: [4, 8)
    h.record(7);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(4), 0u);
}

TEST(HistogramStat, PercentileApprox)
{
    HistogramStat h;
    for (int i = 0; i < 99; ++i)
        h.record(1);
    h.record(1000); // bucket 10: [512, 1024)
    // p50 falls in bucket 1 -> upper bound 1.
    EXPECT_EQ(h.percentileApprox(0.5), 1u);
    // p100 falls in the outlier's bucket -> upper bound 1023.
    EXPECT_EQ(h.percentileApprox(1.0), 1023u);
}

TEST(HistogramStat, Reset)
{
    HistogramStat h;
    h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.bucket(6), 0u);
}

// ----------------------------------------------------------- StatsRegistry

TEST(StatsRegistry, GaugesEvaluateAtReadTime)
{
    StatsRegistry reg;
    stat_t backing = 5;
    reg.registerGauge("g", [&backing] { return backing * 2; });
    EXPECT_EQ(reg.get("g"), 10u);
    backing = 7;
    EXPECT_EQ(reg.get("g"), 14u);
}

TEST(StatsRegistry, SnapshotFlattensAllKinds)
{
    StatsRegistry reg;
    stat_t counter = 3;
    HistogramStat hist;
    hist.record(10);
    hist.record(20);
    reg.registerCounter("a.counter", &counter);
    reg.registerGauge("b.gauge", [] { return stat_t{9}; });
    reg.registerHistogram("c.hist", &hist);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 4u); // counter, gauge, hist.count, hist.sum
    // Sorted by name.
    EXPECT_EQ(snap[0].first, "a.counter");
    EXPECT_EQ(snap[0].second, 3u);
    EXPECT_EQ(snap[1].first, "b.gauge");
    EXPECT_EQ(snap[1].second, 9u);
    EXPECT_EQ(snap[2].first, "c.hist.count");
    EXPECT_EQ(snap[2].second, 2u);
    EXPECT_EQ(snap[3].first, "c.hist.sum");
    EXPECT_EQ(snap[3].second, 30u);
}

TEST(StatsRegistry, HistogramLookup)
{
    StatsRegistry reg;
    HistogramStat hist;
    reg.registerHistogram("h", &hist);
    hist.record(12);
    // A lookup reads the registered histogram's current samples.
    std::optional<HistogramStat> h = reg.histogram("h");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->count(), 1u);
    EXPECT_EQ(h->sum(), 12u);
    EXPECT_EQ(h->bucket(4), 1u);
    EXPECT_FALSE(reg.histogram("nope").has_value());
    EXPECT_TRUE(reg.has("h"));
}

// One histogram kept as three parts (as the memory system keeps one per
// tile) reads as a single distribution on every read path.
TEST(StatsRegistry, HistogramPartsMergeOnEveryReadPath)
{
    HistogramStat a, b, c;
    a.record(7);              // bucket 3
    a.record(5);              // bucket 3
    b.record(100);            // bucket 7
    b.record(6);              // bucket 3
    c.recordSerialized(1000); // bucket 10
    c.recordSerialized(3);    // bucket 2
    StatsRegistry reg;
    reg.registerHistogram("lat", {&a, &b, &c});

    std::optional<HistogramStat> h = reg.histogram("lat");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->count(), 6u);
    EXPECT_EQ(h->sum(), 1121u);
    EXPECT_EQ(h->min(), 3u);
    EXPECT_EQ(h->max(), 1000u);
    EXPECT_EQ(h->bucket(2), 1u);
    EXPECT_EQ(h->bucket(3), 3u);
    EXPECT_EQ(h->bucket(7), 1u);
    EXPECT_EQ(h->bucket(10), 1u);
    EXPECT_EQ(h->percentileApprox(0.5), 7u);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0], (std::pair<std::string, stat_t>{"lat.count", 6}));
    EXPECT_EQ(snap[1], (std::pair<std::string, stat_t>{"lat.sum", 1121}));

    std::string dump = reg.dump();
    EXPECT_NE(dump.find("lat = count=6 "), std::string::npos) << dump;
    EXPECT_NE(dump.find(" min=3 "), std::string::npos) << dump;
    EXPECT_NE(dump.find(" max=1000\n"), std::string::npos) << dump;

    std::string text = obs::telemetry::renderPrometheus(reg);
    for (const char* series :
         {"graphite_lat_bucket{le=\"3\"} 1\n",
          "graphite_lat_bucket{le=\"7\"} 4\n",
          "graphite_lat_bucket{le=\"127\"} 5\n",
          "graphite_lat_bucket{le=\"1023\"} 6\n",
          "graphite_lat_bucket{le=\"+Inf\"} 6\n", "graphite_lat_sum 1121\n",
          "graphite_lat_count 6\n"})
        EXPECT_NE(text.find(series), std::string::npos) << series;

    // An empty part leaves min and max alone.
    HistogramStat empty;
    reg.registerHistogram("lat2", {&empty, &a});
    EXPECT_EQ(reg.histogram("lat2")->min(), 5u);
    EXPECT_EQ(reg.histogram("lat2")->max(), 7u);
}

TEST(StatsRegistry, SumMatchingSpansCountersAndGauges)
{
    StatsRegistry reg;
    stat_t c0 = 1, c1 = 2;
    reg.registerCounter("tile.0.misses", &c0);
    reg.registerCounter("tile.1.misses", &c1);
    reg.registerGauge("tile.2.misses", [] { return stat_t{4}; });
    EXPECT_EQ(reg.sumMatching("tile.", ".misses"), 7u);
}

TEST(StatsRegistry, SumMatchingLenientEmptyIsZero)
{
    StatsRegistry reg;
    EXPECT_EQ(reg.sumMatching("tile.", ".renamed"), 0u);
    EXPECT_EQ(reg.sumMatching("tile.", ".renamed", MatchMode::Lenient),
              0u);
}

TEST(StatsRegistry, SumMatchingStrictEmptyIsFatal)
{
    StatsRegistry reg;
    stat_t c = 1;
    reg.registerCounter("tile.0.misses", &c);
    // A match set exists: strict mode succeeds.
    EXPECT_EQ(reg.sumMatching("tile.", ".misses", MatchMode::Strict), 1u);
    // No match: strict mode pins the rename-detection contract.
    EXPECT_THROW(reg.sumMatching("tile.", ".renamed", MatchMode::Strict),
                 FatalError);
}

// -------------------------------------------------------------- log filter

TEST(LogFilter, ComponentOverridesAndGlobalDefault)
{
    int saved = logVerbosity();
    setLogFilter("net:debug,mem:quiet");
    EXPECT_EQ(logComponentVerbosity("net"), 3);
    EXPECT_EQ(logComponentVerbosity("mem"), 0);
    EXPECT_EQ(logComponentVerbosity("sync"), saved); // untouched default

    setLogFilter("warn"); // bare level sets the global default
    EXPECT_EQ(logVerbosity(), 1);
    EXPECT_EQ(logComponentVerbosity("net"), 1); // overrides cleared

    setLogFilter("bogus:nonsense"); // malformed: skipped, never fatal
    EXPECT_EQ(logComponentVerbosity("bogus"), logVerbosity());

    setLogFilter("");
    setLogVerbosity(saved);
}

// --------------------------------------------------------------- TraceSink

TEST(TraceSink, RecordsAndRendersValidJson)
{
    obs::TraceSink sink({"tile 0", "mcp"}, 16);
    sink.complete(0, "thread", 100, 50, "bytes", 64);
    sink.instant(1, "spawn \"q\"", 120, "tile", 1);

    EXPECT_EQ(sink.recorded(), 2u);
    std::string json = sink.toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"bytes\":64"), std::string::npos);
    // The quote inside the instant's name must be escaped.
    EXPECT_NE(json.find("spawn \\\"q\\\""), std::string::npos);
}

TEST(TraceSink, RingDropsNewestWhenFull)
{
    obs::TraceSink sink({""}, 4);
    for (int i = 0; i < 10; ++i)
        sink.instant(0, "e", i);
    EXPECT_EQ(sink.recorded(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    // The kept events are the earliest ones.
    std::string json = sink.toJson();
    EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
    EXPECT_EQ(json.find("\"ts\":9"), std::string::npos);
    EXPECT_NE(json.find("\"droppedEvents\":6"), std::string::npos);
}

TEST(TraceSink, LaneOverflowIsIndependentPerLane)
{
    obs::TraceSink sink({"", ""}, 4);
    // Overflow lane 0; lane 1 stays under capacity.
    for (int i = 0; i < 6; ++i)
        sink.instant(0, "full", i);
    sink.instant(1, "ok", 100);
    sink.instant(1, "ok", 101);
    // Flow events obey the same ring bound: dropped on the full lane,
    // recorded on the other.
    sink.flow('s', 0, "span.read_miss", 6, 77);
    sink.flow('f', 1, "span.read_miss", 102, 77);

    EXPECT_EQ(sink.recorded(), 7u); // 4 + 3
    EXPECT_EQ(sink.dropped(), 3u);  // two instants + the flow 's'
    std::string json = sink.toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    // Lane 0 kept the beginning of the run; its overflow never touched
    // lane 1, whose flow event renders with binding fields intact.
    EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
    EXPECT_EQ(json.find("\"ts\":4"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":102"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"span\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":77"), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"droppedEvents\":3"), std::string::npos);
}

// ---------------------------------------------------------- MetricsSampler

TEST(MetricsSampler, IntervalDeltaMath)
{
    StatsRegistry reg;
    stat_t counter = 10;
    reg.registerCounter("c", &counter);

    cycle_t clock = 0;
    obs::MetricsSampler sampler(&reg, 100, "", [&clock] { return clock; },
                                nullptr);

    clock = 50;
    sampler.maybeSample(); // below the first boundary: no row
    EXPECT_EQ(sampler.rowCount(), 0u);

    counter = 25;
    clock = 130;
    sampler.maybeSample();
    ASSERT_EQ(sampler.rowCount(), 1u);
    auto r0 = sampler.row(0);
    EXPECT_EQ(r0.startCycle, 0u);
    EXPECT_EQ(r0.endCycle, 130u);
    ASSERT_EQ(r0.deltas.size(), 1u);
    EXPECT_EQ(r0.deltas[0], 15); // 25 - 10

    // A leap across several boundaries yields one row, not a backlog.
    counter = 30;
    clock = 1000;
    sampler.maybeSample();
    ASSERT_EQ(sampler.rowCount(), 2u);
    auto r1 = sampler.row(1);
    EXPECT_EQ(r1.startCycle, 130u);
    EXPECT_EQ(r1.endCycle, 1000u);
    EXPECT_EQ(r1.deltas[0], 5);

    clock = 1000;
    sampler.maybeSample(); // boundary not crossed again
    EXPECT_EQ(sampler.rowCount(), 2u);

    // flush() records the tail interval; sampling continues after it,
    // so a second run on the same Simulator keeps adding rows.
    counter = 31;
    clock = 1040;
    sampler.flush();
    ASSERT_EQ(sampler.rowCount(), 3u);
    EXPECT_EQ(sampler.row(2).deltas[0], 1);
    counter = 40;
    clock = 5000;
    sampler.maybeSample();
    ASSERT_EQ(sampler.rowCount(), 4u);
    EXPECT_EQ(sampler.row(3).startCycle, 1040u);
    EXPECT_EQ(sampler.row(3).deltas[0], 9);
}

TEST(MetricsSampler, SkewColumnsFromActiveClocks)
{
    StatsRegistry reg;
    cycle_t clock = 0;
    std::vector<double> active{100.0, 200.0, 300.0};
    obs::MetricsSampler sampler(&reg, 100, "", [&clock] { return clock; },
                                [&active] { return active; });
    clock = 100;
    sampler.maybeSample();
    ASSERT_EQ(sampler.rowCount(), 1u);
    auto r = sampler.row(0);
    EXPECT_DOUBLE_EQ(r.skewMax, 100.0);  // 300 - mean(200)
    EXPECT_DOUBLE_EQ(r.skewMin, -100.0); // 100 - mean(200)

    // Fewer than two running clocks have no deviation to measure: the
    // row reads zero skew, not a one-clock (or empty) mean.
    for (std::vector<double> few :
         {std::vector<double>{500.0}, std::vector<double>{}}) {
        active = few;
        clock += 100;
        sampler.maybeSample();
        auto last = sampler.row(sampler.rowCount() - 1);
        EXPECT_EQ(last.endCycle, clock);
        EXPECT_DOUBLE_EQ(last.skewMax, 0.0) << few.size() << " clocks";
        EXPECT_DOUBLE_EQ(last.skewMin, 0.0) << few.size() << " clocks";
    }
}

TEST(MetricsSampler, CsvRendering)
{
    StatsRegistry reg;
    stat_t counter = 0;
    reg.registerCounter("x.total", &counter);
    cycle_t clock = 0;
    obs::MetricsSampler sampler(&reg, 10, "", [&clock] { return clock; },
                                nullptr);
    counter = 4;
    clock = 10;
    sampler.maybeSample();
    std::string csv = sampler.render();
    EXPECT_NE(csv.find("interval,start_cycle,end_cycle,wall_seconds,"
                       "host_wall_ms,host_rss_kb,"
                       "skew_max_cycles,skew_min_cycles,"
                       "causality_violations,x.total"),
              std::string::npos);
    EXPECT_NE(csv.find("\n0,0,10,"), std::string::npos);
}

TEST(MetricsSampler, ShortRunEmitsPartialRowAtFinalize)
{
    StatsRegistry reg;
    stat_t counter = 0;
    reg.registerCounter("c", &counter);
    cycle_t clock = 0;
    obs::MetricsSampler sampler(&reg, 100000, "",
                                [&clock] { return clock; }, nullptr);

    // The run ends well inside the first interval: maybeSample never
    // crossed a boundary, but flush still emits the partial row so
    // short runs don't produce empty artifacts.
    counter = 12;
    clock = 40;
    sampler.maybeSample();
    EXPECT_EQ(sampler.rowCount(), 0u);
    sampler.flush();
    ASSERT_EQ(sampler.rowCount(), 1u);
    auto r = sampler.row(0);
    EXPECT_EQ(r.startCycle, 0u);
    EXPECT_EQ(r.endCycle, 40u);
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0], 12);
    // Header plus the one data row.
    std::string csv = sampler.render();
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

// ------------------------------------------------------------- end-to-end

void
obsWorker(void* p)
{
    auto* data = static_cast<addr_t*>(p);
    for (int i = 0; i < 200; ++i) {
        std::uint64_t v = api::read<std::uint64_t>(*data);
        api::write<std::uint64_t>(*data, v + 1);
        api::exec(InstrClass::IntAlu, 50);
    }
}

void
obsMain(void* p)
{
    auto* data = static_cast<addr_t*>(p);
    *data = api::malloc(8);
    api::write<std::uint64_t>(*data, 0);
    tile_id_t t1 = api::threadSpawn(&obsWorker, data);
    obsWorker(data);
    api::threadJoin(t1);
}

void
skewWorker(void*)
{
    for (int i = 0; i < 2000; ++i)
        api::exec(InstrClass::IntAlu, 100);
}

void
fourThreadMain(void*)
{
    tile_id_t workers[3];
    for (tile_id_t& t : workers)
        t = api::threadSpawn(&skewWorker, nullptr);
    skewWorker(nullptr);
    for (tile_id_t t : workers)
        api::threadJoin(t);
}

/** Main spawns one worker and blocks in join for the whole run. */
void
joinAtOnceMain(void*)
{
    api::threadJoin(api::threadSpawn(&skewWorker, nullptr));
}

/** The sampler's rows for @p app_main on 4 tiles. */
std::vector<obs::MetricsSampler::Row>
sampledRows(thread_func_t app_main, const std::string& scheduler)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    cfg.set("host/scheduler", scheduler);
    cfg.set("obs/metrics_out", "/dev/null");
    cfg.setInt("obs/metrics_interval", 5000);
    Simulator sim(cfg);
    sim.run(app_main, nullptr);
    const obs::MetricsSampler& sampler = *sim.metricsSampler();
    std::vector<obs::MetricsSampler::Row> rows;
    for (std::size_t i = 0; i < sampler.rowCount(); ++i)
        rows.push_back(sampler.row(i));
    return rows;
}

/** Expect @p rows, at least ten of them, to show no skew at all. */
void
expectNoSkew(const std::vector<obs::MetricsSampler::Row>& rows)
{
    ASSERT_GE(rows.size(), 10u);
    for (const obs::MetricsSampler::Row& r : rows) {
        EXPECT_EQ(r.skewMax, 0.0) << "row " << r.index;
        EXPECT_EQ(r.skewMin, 0.0) << "row " << r.index;
    }
}

TEST(MetricsSampler, OnlyRunningClocksCountAsSkew)
{
    // One thread on 4 tiles: one running clock, so no row may show
    // skew; the idle tiles' zero clocks must not count.
    expectNoSkew(sampledRows(&skewWorker, "free_running"));
    // Neither may a thread blocked in join, whose clock stopped early.
    // The deterministic scheduler runs the worker only once main is
    // blocked, so no row sees both running.
    expectNoSkew(sampledRows(&joinAtOnceMain, "deterministic"));

    // Control: four threads run four clocks, which the deterministic
    // scheduler's quanta stagger on every host.
    std::vector<obs::MetricsSampler::Row> rows =
        sampledRows(&fourThreadMain, "deterministic");
    EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                            [](const obs::MetricsSampler::Row& r) {
                                return r.skewMax > 0 && r.skewMin < 0;
                            }));
}

TEST(Observability, EndToEndArtifacts)
{
    std::string dir = ::testing::TempDir();
    std::string trace_path = dir + "graphite_obs_trace.json";
    std::string metrics_path = dir + "graphite_obs_metrics.csv";
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());

    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    cfg.set("obs/trace_out", trace_path);
    cfg.set("obs/metrics_out", metrics_path);
    cfg.setInt("obs/metrics_interval", 1000);
    {
        Simulator sim(cfg);
        addr_t data = 0;
        sim.run(&obsMain, &data);
        // The MCP's host time is in the registry: it waited for the
        // spawn, join and exit requests and dispatched each of them.
        EXPECT_GT(sim.stats().get("host.mcp.wait_ns"), 0u);
        EXPECT_GT(sim.stats().get("host.mcp.dispatch_ns"), 0u);
    }

    ASSERT_TRUE(fileExists(trace_path));
    std::string json = readFile(trace_path);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("thread"), std::string::npos);

    ASSERT_TRUE(fileExists(metrics_path));
    std::string csv = readFile(metrics_path);
    EXPECT_NE(csv.find("skew_max_cycles"), std::string::npos);
    EXPECT_NE(csv.find("mem.l2_misses_total"), std::string::npos);
    EXPECT_NE(csv.find("tile.0.cycles"), std::string::npos);
    EXPECT_NE(csv.find("host.mcp.wait_ns"), std::string::npos);
    EXPECT_NE(csv.find("host.mcp.dispatch_ns"), std::string::npos);
    // Header plus at least one data row.
    EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 2);

    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST(Observability, DisabledByDefaultWritesNothing)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    Simulator sim(cfg);
    // Off by default: no observer is even built, and no stat for one is
    // registered.
    EXPECT_EQ(sim.traceSink(), nullptr);
    EXPECT_EQ(sim.spanSink(), nullptr);
    EXPECT_EQ(sim.metricsSampler(), nullptr);
    EXPECT_EQ(sim.accuracy(), nullptr);
    EXPECT_EQ(sim.raceDetector(), nullptr);
    EXPECT_EQ(sim.faultPlan(), nullptr);
    addr_t data = 0;
    sim.run(&obsMain, &data);
    EXPECT_FALSE(sim.stats().has("span.completed"));
    EXPECT_FALSE(sim.stats().has("accuracy.deliveries"));
    EXPECT_FALSE(sim.stats().has("race.words_checked"));
}

// ----------------------------------------------------- per-Simulator obs
//
// Each Simulator owns its observers, so Simulators sharing a process —
// a figure sweep, a fuzz sweep, a checkpoint resume — neither reset nor
// mix each other's records.

/** Two threads each update their own word of 8 shared lines. */
void
isoWorker(addr_t lines, int word)
{
    for (int i = 0; i < 100; ++i) {
        addr_t a = lines + (i % 8) * 64 + word * 8;
        api::write<std::uint64_t>(a, api::read<std::uint64_t>(a) + 1);
        api::exec(InstrClass::IntAlu, 20);
    }
}

void
isoSecondThread(void* p)
{
    isoWorker(*static_cast<addr_t*>(p), 1);
}

void
isoMain(void* p)
{
    auto* lines = static_cast<addr_t*>(p);
    *lines = api::malloc(8 * 64);
    for (int i = 0; i < 16; ++i)
        api::write<std::uint64_t>(*lines + i * 8, 0);
    tile_id_t t1 = api::threadSpawn(&isoSecondThread, lines);
    isoWorker(*lines, 0);
    api::threadJoin(t1);
}

Config
isoConfig(bool armed)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    cfg.set("host/scheduler", "deterministic");
    cfg.setBool("obs/spans_enabled", armed);
    cfg.setBool("accuracy/enabled", armed);
    return cfg;
}

void
runIso(Simulator& sim)
{
    addr_t lines = 0;
    sim.run(&isoMain, &lines);
}

/** The integer following `"key":` in @p doc; -1 when absent. */
long long
jsonInt(const std::string& doc, const std::string& key)
{
    std::size_t at = doc.find("\"" + key + "\":");
    if (at == std::string::npos)
        return -1;
    return std::stoll(doc.substr(at + key.size() + 3));
}

TEST(ObsIsolation, SecondSimulatorLeavesTheFirstsRecordsAlone)
{
    Simulator first(isoConfig(true));
    runIso(first);
    stat_t spans = first.stats().get("span.completed");
    stat_t deliveries = first.stats().get("accuracy.deliveries");
    stat_t dispatch_ns = first.stats().get("host.mcp.dispatch_ns");
    ASSERT_GT(spans, 0u);
    ASSERT_GT(deliveries, 0u);
    ASSERT_GT(dispatch_ns, 0u);

    {
        Simulator second(isoConfig(false));
        runIso(second);
    }
    EXPECT_EQ(first.stats().get("span.completed"), spans);
    EXPECT_EQ(first.stats().get("accuracy.deliveries"), deliveries);
    EXPECT_EQ(first.stats().get("host.mcp.dispatch_ns"), dispatch_ns);
}

TEST(ObsIsolation, ArmedSimulatorBuiltBeforeAPlainOneStillRecords)
{
    std::string dir = ::testing::TempDir();
    std::string spans_path = dir + "graphite_iso_spans.jsonl";
    std::string acc_path = dir + "graphite_iso_accuracy.jsonl";
    std::remove(spans_path.c_str());
    std::remove(acc_path.c_str());

    Config cfg = isoConfig(true);
    cfg.set("obs/spans_out", spans_path);
    cfg.set("accuracy/out", acc_path);
    Simulator armed(cfg);
    Simulator plain(isoConfig(false));
    runIso(armed);

    stat_t spans = armed.stats().get("span.completed");
    stat_t deliveries = armed.stats().get("accuracy.deliveries");
    EXPECT_GT(spans, 0u);
    EXPECT_GT(deliveries, 0u);
    // The artifacts describe this Simulator's run.
    EXPECT_EQ(jsonInt(readFile(spans_path), "completed"),
              static_cast<long long>(spans));
    EXPECT_EQ(jsonInt(readFile(acc_path), "deliveries"),
              static_cast<long long>(deliveries));

    std::remove(spans_path.c_str());
    std::remove(acc_path.c_str());
}

TEST(ObsIsolation, SecondRunKeepsRecording)
{
    Simulator sim(isoConfig(true));
    runIso(sim);
    stat_t spans = sim.stats().get("span.completed");
    stat_t deliveries = sim.stats().get("accuracy.deliveries");
    ASSERT_GT(spans, 0u);
    ASSERT_GT(deliveries, 0u);

    runIso(sim);
    EXPECT_GT(sim.stats().get("span.completed"), spans);
    EXPECT_GT(sim.stats().get("accuracy.deliveries"), deliveries);
}

struct IsoCounts
{
    cycle_t cycles = 0;
    stat_t spans = 0;
    stat_t deliveries = 0;
    stat_t wordsChecked = 0;

    bool
    operator==(const IsoCounts& o) const
    {
        return cycles == o.cycles && spans == o.spans &&
               deliveries == o.deliveries && wordsChecked == o.wordsChecked;
    }
};

std::ostream&
operator<<(std::ostream& os, const IsoCounts& c)
{
    return os << "{cycles " << c.cycles << ", spans " << c.spans
              << ", deliveries " << c.deliveries << ", words "
              << c.wordsChecked << "}";
}

IsoCounts
isoCounts(const Simulator& sim)
{
    IsoCounts c;
    c.cycles = sim.simulatedTime();
    c.spans = sim.stats().get("span.completed");
    c.deliveries = sim.stats().get("accuracy.deliveries");
    c.wordsChecked = sim.stats().get("race.words_checked");
    return c;
}

TEST(ObsIsolation, ConcurrentSimulatorsMatchSoloRuns)
{
    Config cfg = isoConfig(true);
    cfg.setBool("race/enabled", true);

    IsoCounts solo;
    {
        Simulator sim(cfg);
        runIso(sim);
        solo = isoCounts(sim);
    }
    ASSERT_GT(solo.spans, 0u);
    ASSERT_GT(solo.deliveries, 0u);
    ASSERT_GT(solo.wordsChecked, 0u);

    // Both are built before either starts, then run on two host threads
    // at once.
    Simulator a(cfg);
    Simulator b(cfg);
    std::thread ta([&a] { runIso(a); });
    std::thread tb([&b] { runIso(b); });
    ta.join();
    tb.join();
    EXPECT_EQ(isoCounts(a), solo);
    EXPECT_EQ(isoCounts(b), solo);
}

} // namespace
} // namespace graphite
