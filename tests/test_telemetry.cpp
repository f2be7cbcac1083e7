/**
 * @file
 * Tests for the live telemetry plane: the flight-recorder ring, the
 * Prometheus/JSON renderers, the HTTP server, the progress watchdog's
 * verdict machine, and — fork-isolated — the two terminal paths: a
 * planted two-thread deadlock caught by the watchdog (exit 86) and a
 * crash dump written from the signal handler.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/server.h"
#include "obs/telemetry/status.h"
#include "obs/telemetry/watchdog.h"

namespace graphite
{
namespace
{

using obs::telemetry::FlightRecorder;
using obs::telemetry::FrEvent;
using obs::telemetry::ProgressWatchdog;
using obs::telemetry::StatusSource;
using obs::telemetry::TelemetryServer;
using obs::telemetry::TileStatus;
using obs::telemetry::WaitSetSnapshot;
using obs::telemetry::WatchdogAction;
using obs::telemetry::WatchdogConfig;
using obs::telemetry::WatchdogView;

std::string
tempPath(const char* tag)
{
    return "/tmp/graphite_telemetry_test_" + std::string(tag) + "_" +
           std::to_string(::getpid());
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

int
countOccurrences(const std::string& hay, const std::string& needle)
{
    int n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, RecordsAndDumpsInOrder)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(64);
    fr.setArmed(true);
    FlightRecorder::record(FrEvent::Custom, 3, 100, 0xaa, 0xbb);
    FlightRecorder::record(FrEvent::FutexWait, 1, 200, 0x1000, 7);
    FlightRecorder::record(FrEvent::MissPath, 2, 300, 0x2000, 1);
    fr.setArmed(false);

    EXPECT_EQ(fr.recorded(), 3u);
    std::string d = fr.dump();
    EXPECT_NE(d.find("3 events recorded"), std::string::npos);
    std::size_t p_custom = d.find("custom tile=3 cycle=100");
    std::size_t p_futex = d.find("futex_wait tile=1 cycle=200");
    std::size_t p_miss = d.find("miss_path tile=2 cycle=300");
    ASSERT_NE(p_custom, std::string::npos);
    ASSERT_NE(p_futex, std::string::npos);
    ASSERT_NE(p_miss, std::string::npos);
    EXPECT_LT(p_custom, p_futex); // oldest first
    EXPECT_LT(p_futex, p_miss);
    EXPECT_NE(d.find("a=0x1000"), std::string::npos);
}

TEST(FlightRecorder, RingWrapKeepsNewest)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(16);
    EXPECT_EQ(fr.capacity(), 16u);
    fr.setArmed(true);
    for (int i = 0; i < 40; ++i)
        FlightRecorder::record(FrEvent::Custom, 0,
                               static_cast<cycle_t>(i));
    fr.setArmed(false);

    EXPECT_EQ(fr.recorded(), 40u);
    std::string d = fr.dump();
    // Only the last 16 events survive: cycles 24..39.
    EXPECT_EQ(countOccurrences(d, "\ncustom") +
                  countOccurrences(d, " custom"),
              16);
    EXPECT_EQ(d.find("cycle=23 "), std::string::npos);
    EXPECT_NE(d.find("cycle=24 "), std::string::npos);
    EXPECT_NE(d.find("cycle=39 "), std::string::npos);
}

TEST(FlightRecorder, DisarmedRecordIsNoOp)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(16);
    fr.setArmed(false);
    EXPECT_FALSE(FlightRecorder::armed());
    FlightRecorder::record(FrEvent::Custom, 0, 1);
    EXPECT_EQ(fr.recorded(), 0u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(20);
    EXPECT_EQ(fr.capacity(), 32u);
    fr.configure(1);
    EXPECT_EQ(fr.capacity(), 16u); // floor
}

TEST(FlightRecorder, DumpMaxEventsKeepsNewest)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(64);
    fr.setArmed(true);
    for (int i = 0; i < 10; ++i)
        FlightRecorder::record(FrEvent::Custom, 0,
                               static_cast<cycle_t>(i));
    fr.setArmed(false);
    std::string d = fr.dump(/*max_events=*/3);
    EXPECT_EQ(d.find("cycle=6 "), std::string::npos);
    EXPECT_NE(d.find("cycle=7 "), std::string::npos);
    EXPECT_NE(d.find("cycle=9 "), std::string::npos);
}

TEST(FlightRecorder, DumpToFdMatchesStringDump)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(16);
    fr.setArmed(true);
    FlightRecorder::record(FrEvent::Writeback, 5, 777, 0xdead, 2);
    fr.setArmed(false);

    std::string path = tempPath("fddump");
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fr.dumpToFd(::fileno(f));
    std::fclose(f);
    std::string d = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(d.find("flight recorder"), std::string::npos);
    EXPECT_NE(d.find("writeback tile=5 cycle=777"), std::string::npos);
    EXPECT_NE(d.find("a=0xdead"), std::string::npos);
}

TEST(FlightRecorder, ConcurrentWritersLoseNoArmedEvents)
{
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(1 << 12);
    fr.setArmed(true);
    constexpr int THREADS = 4, PER = 2000;
    std::vector<std::thread> ts;
    for (int t = 0; t < THREADS; ++t)
        ts.emplace_back([t] {
            for (int i = 0; i < PER; ++i)
                FlightRecorder::record(FrEvent::Custom, t,
                                       static_cast<cycle_t>(i));
        });
    for (auto& th : ts)
        th.join();
    fr.setArmed(false);
    EXPECT_EQ(fr.recorded(), static_cast<std::uint64_t>(THREADS * PER));
    // Ring holds 4096 slots; all survive a quiescent dump (no torn
    // slots once writers are done).
    std::string d = fr.dump();
    EXPECT_EQ(countOccurrences(d, "custom"), 1 << 12);
}

TEST(FlightRecorder, DumpWhileWriterWrapsShowsOnlyWholeEvents)
{
    // A reader dumps while a writer laps a small ring. Every event
    // carries cycle == a == b, so a record mixing two writes shows up
    // as a mismatch: the seqlock must drop slots rewritten mid-copy.
    FlightRecorder& fr = FlightRecorder::instance();
    fr.configure(64);
    fr.setArmed(true);
    std::atomic<bool> stop{false};
    std::thread writer([&stop] {
        for (std::uint64_t i = 0; !stop.load(); ++i)
            FlightRecorder::record(FrEvent::Custom, 0, i, i, i);
    });
    // Dump until the writer has lapped the ring 100 times.
    int torn = 0;
    do {
        std::istringstream in(fr.dump());
        std::string line;
        while (std::getline(in, line)) {
            unsigned long long cycle = 0, a = 0, b = 0;
            if (std::sscanf(line.c_str(),
                            "fr %*u custom tile=%*d cycle=%llu a=%llx "
                            "b=%llx",
                            &cycle, &a, &b) != 3)
                continue;
            if (a != cycle || b != cycle)
                ++torn;
        }
    } while (fr.recorded() < 64 * 100);
    stop.store(true);
    writer.join();
    fr.setArmed(false);
    EXPECT_EQ(torn, 0);
}

// ------------------------------------------------------------ renderers

TEST(Renderers, PrometheusNameSanitizes)
{
    using obs::telemetry::prometheusName;
    EXPECT_EQ(prometheusName("sim.cycles_max"),
              "graphite_sim_cycles_max");
    EXPECT_EQ(prometheusName("tile.3.l2.misses"),
              "graphite_tile_3_l2_misses");
    EXPECT_EQ(prometheusName("weird-name+x"), "graphite_weird_name_x");
}

TEST(Renderers, PrometheusExposesStatsAndHistograms)
{
    StatsRegistry reg;
    atomic_stat_t counter{42};
    reg.registerCounter("unit.counter", &counter);
    reg.registerGauge("unit.gauge", [] { return stat_t{7}; });
    HistogramStat lat;
    lat.record(1);  // bucket 1 (le 1)
    lat.record(6);  // bucket 3 (le 7)
    lat.record(6);
    reg.registerHistogram("unit.lat", &lat);

    std::string text = obs::telemetry::renderPrometheus(reg);
    EXPECT_NE(text.find("# TYPE graphite_unit_counter gauge\n"
                        "graphite_unit_counter 42\n"),
              std::string::npos);
    EXPECT_NE(text.find("graphite_unit_gauge 7\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE graphite_unit_lat histogram"),
              std::string::npos);
    EXPECT_NE(text.find("graphite_unit_lat_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    // Cumulative: the le=7 bucket includes the le=1 sample.
    EXPECT_NE(text.find("graphite_unit_lat_bucket{le=\"7\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("graphite_unit_lat_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("graphite_unit_lat_sum 13\n"),
              std::string::npos);
    // The ".count"/".sum" scalar projections must NOT appear as a
    // second series next to the histogram family.
    EXPECT_EQ(countOccurrences(text, "\ngraphite_unit_lat_count "), 1);
    EXPECT_EQ(countOccurrences(text, "\ngraphite_unit_lat_sum "), 1);
    EXPECT_NE(text.find("graphite_host_rss_kb"), std::string::npos);
}

StatusSource
syntheticSource(std::vector<TileStatus>* tiles, WaitSetSnapshot* ws)
{
    StatusSource src;
    src.tiles = [tiles] { return *tiles; };
    if (ws != nullptr)
        src.waitSets = [ws] { return *ws; };
    src.syncModelName = "lax";
    return src;
}

TEST(Renderers, StatusJsonNamesTilesAndWaiters)
{
    std::vector<TileStatus> tiles = {
        {0, 1000, 500, true, true},
        {1, 900, 0, true, false},
        {2, 0, 0, false, false},
    };
    WaitSetSnapshot ws;
    ws.busyTiles = 2;
    ws.futexes.push_back({0xbeef, {1}});
    ws.joins.push_back({1, {0}});
    StatusSource src = syntheticSource(&tiles, &ws);
    // /status reads its statistics from the registry by name: the
    // host.pool.* names mark the pool enabled, and no accuracy.* name
    // leaves sync_skew disarmed.
    StatsRegistry reg;
    atomic_stat_t sync_events{11};
    atomic_stat_t pool_slots{4};
    reg.registerCounter("sync.events", &sync_events);
    reg.registerCounter("host.pool.slots", &pool_slots);
    src.stats = &reg;
    src.schedulerMode = "free_running";

    WatchdogView wd;
    wd.enabled = true;
    wd.verdict = "stall";
    wd.beats = 9;
    std::string json = obs::telemetry::renderStatusJson(src, &wd);
    EXPECT_NE(json.find("\"simulated_cycles\":1000"),
              std::string::npos);
    EXPECT_NE(json.find("\"sync_model\":\"lax\""), std::string::npos);
    EXPECT_NE(json.find("\"sync_events\":11,"), std::string::npos);
    EXPECT_NE(json.find("\"sync_wait_us\":0,"), std::string::npos);
    EXPECT_NE(json.find("\"sync_skew\":{\"armed\":false,"),
              std::string::npos);
    EXPECT_NE(json.find("\"host_pool\":{\"enabled\":true,"
                        "\"mode\":\"free_running\",\"slots\":4,"),
              std::string::npos);
    EXPECT_NE(json.find("\"tile\":0,\"cycles\":1000,"
                        "\"instructions\":500,\"ipc\":0.5,"
                        "\"occupied\":true,\"running\":true"),
              std::string::npos);
    EXPECT_NE(json.find("\"addr\":\"0xbeef\",\"waiters\":[1]"),
              std::string::npos);
    EXPECT_NE(json.find("\"target\":1,\"waiters\":[0]"),
              std::string::npos);
    EXPECT_NE(json.find("\"verdict\":\"stall\""), std::string::npos);

    std::string health = obs::telemetry::renderHealthJson(src, &wd);
    EXPECT_NE(health.find("\"status\":\"unhealthy\""),
              std::string::npos);
    wd.verdict = "ok";
    health = obs::telemetry::renderHealthJson(src, &wd);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
}

// ---------------------------------------------------------- HTTP server

struct HttpResponse
{
    int status = 0;
    std::string body;
    std::string raw;
};

HttpResponse
httpGet(std::uint16_t port, const std::string& target,
        const char* method = "GET")
{
    HttpResponse out;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return out;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return out;
    }
    std::string req = std::string(method) + " " + target +
                      " HTTP/1.1\r\nHost: localhost\r\n"
                      "Connection: close\r\n\r\n";
    ssize_t sent = ::send(fd, req.data(), req.size(), 0);
    if (sent == static_cast<ssize_t>(req.size())) {
        char buf[4096];
        ssize_t r;
        while ((r = ::read(fd, buf, sizeof(buf))) > 0)
            out.raw.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fd);
    std::sscanf(out.raw.c_str(), "HTTP/1.1 %d", &out.status);
    std::size_t split = out.raw.find("\r\n\r\n");
    if (split != std::string::npos)
        out.body = out.raw.substr(split + 4);
    return out;
}

TEST(TelemetryServer, ServesMetricsStatusAndHealth)
{
    StatsRegistry reg;
    atomic_stat_t counter{5};
    reg.registerCounter("unit.counter", &counter);
    std::vector<TileStatus> tiles = {{0, 10, 5, true, true},
                                     {1, 20, 8, true, true}};
    StatusSource src = syntheticSource(&tiles, nullptr);
    src.stats = &reg;

    TelemetryServer server;
    ASSERT_TRUE(server.start(0, src, [] {
        WatchdogView v;
        v.enabled = true;
        return v;
    }));
    ASSERT_NE(server.port(), 0);

    HttpResponse metrics = httpGet(server.port(), "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("graphite_unit_counter 5"),
              std::string::npos);

    HttpResponse status = httpGet(server.port(), "/status");
    EXPECT_EQ(status.status, 200);
    EXPECT_NE(status.body.find("\"simulated_cycles\":20"),
              std::string::npos);
    EXPECT_NE(status.body.find("\"watchdog\":{\"enabled\":true"),
              std::string::npos);

    HttpResponse health = httpGet(server.port(), "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

    EXPECT_EQ(httpGet(server.port(), "/nope").status, 404);
    EXPECT_EQ(httpGet(server.port(), "/metrics", "POST").status, 405);

    EXPECT_GE(server.requestsServed().load(), 5u);
    EXPECT_GT(server.bytesServed().load(), 0u);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(TelemetryServer, StopIsIdempotentAndPortZeroAfterStop)
{
    std::vector<TileStatus> tiles;
    TelemetryServer server;
    ASSERT_TRUE(server.start(0, syntheticSource(&tiles, nullptr)));
    std::uint16_t port = server.port();
    EXPECT_NE(port, 0);
    server.stop();
    server.stop();
    EXPECT_EQ(server.port(), 0);
    // A fresh scrape against the dead port must fail to connect.
    EXPECT_EQ(httpGet(port, "/healthz").status, 0);
}

// ------------------------------------------------------------- watchdog

struct ScriptedSource
{
    std::vector<TileStatus> tiles;
    WaitSetSnapshot ws;

    StatusSource
    source()
    {
        StatusSource src = syntheticSource(&tiles, &ws);
        return src;
    }
};

/**
 * Arm @p wd for synchronous beatOnce() driving: start() installs the
 * config/source, stop() parks the timer thread before it can fire (the
 * huge interval makes the first wakeup unreachable), leaving the
 * verdict machine in its freshly-reset state.
 */
void
armSynchronous(ProgressWatchdog& wd, WatchdogConfig cfg,
               StatusSource src)
{
    cfg.intervalMs = 3600 * 1000;
    wd.start(std::move(cfg), std::move(src));
    wd.stop();
}

TEST(Watchdog, ConfigReadsItsKeysAndRejectsBadValues)
{
    Config cfg = defaultTargetConfig();
    EXPECT_EQ(WatchdogConfig::fromConfig(cfg).action, WatchdogAction::Flag);
    cfg.setInt("telemetry/watchdog_interval_ms", 40);
    cfg.set("telemetry/watchdog_action", "dump");
    cfg.set("telemetry/watchdog_dump", "hang.txt");
    WatchdogConfig wc = WatchdogConfig::fromConfig(cfg);
    EXPECT_EQ(wc.intervalMs, 40u);
    EXPECT_EQ(wc.action, WatchdogAction::Dump);
    EXPECT_EQ(wc.dumpPath, "hang.txt");
    cfg.setInt("telemetry/watchdog_interval_ms", 0);
    EXPECT_THROW(WatchdogConfig::fromConfig(cfg), FatalError);
    cfg.setInt("telemetry/watchdog_interval_ms", 40);
    cfg.set("telemetry/watchdog_action", "bogus");
    EXPECT_THROW(WatchdogConfig::fromConfig(cfg), FatalError);
}

TEST(Watchdog, AdvancingTilesStayOk)
{
    ScriptedSource s;
    s.tiles = {{0, 100, 50, true, true}};
    ProgressWatchdog wd;
    WatchdogConfig cfg = WatchdogConfig::fromConfig(defaultTargetConfig());
    cfg.stallBeats = 2;
    cfg.action = WatchdogAction::Flag;
    armSynchronous(wd, cfg, s.source());

    EXPECT_STREQ(wd.beatOnce(), "ok"); // baseline
    for (int i = 0; i < 6; ++i) {
        s.tiles[0].cycles += 10;
        EXPECT_STREQ(wd.beatOnce(), "ok");
    }
    EXPECT_EQ(wd.view().stallFlags, 0u);
}

TEST(Watchdog, AllParkedNoProgressIsDeadlock)
{
    ScriptedSource s;
    s.tiles = {{0, 100, 50, true, false}, {1, 90, 40, true, false}};
    s.ws.futexes.push_back({0x40, {0, 1}});
    ProgressWatchdog wd;
    WatchdogConfig cfg = WatchdogConfig::fromConfig(defaultTargetConfig());
    cfg.stallBeats = 3;
    cfg.action = WatchdogAction::Flag;
    armSynchronous(wd, cfg, s.source());

    wd.beatOnce(); // baseline
    EXPECT_STREQ(wd.beatOnce(), "ok"); // noProgress=1
    EXPECT_STREQ(wd.beatOnce(), "ok"); // noProgress=2
    EXPECT_STREQ(wd.beatOnce(), "deadlock"); // noProgress=3 >= 3
    WatchdogView v = wd.view();
    EXPECT_STREQ(v.verdict, "deadlock");
    EXPECT_EQ(v.stallFlags, 1u);

    // Dump text names the futex and its waiting tiles.
    std::string dump = wd.renderDump();
    EXPECT_NE(dump.find("verdict: deadlock"), std::string::npos);
    EXPECT_NE(dump.find("futex 0x40 waiters: tile 0 tile 1"),
              std::string::npos);

    // Recovery: progress resumes, verdict returns to ok.
    s.tiles[0].cycles += 100;
    s.tiles[0].running = true;
    EXPECT_STREQ(wd.beatOnce(), "ok");
}

TEST(Watchdog, RunningNoProgressIsLivelock)
{
    ScriptedSource s;
    s.tiles = {{0, 100, 50, true, true}, {1, 90, 40, true, false}};
    ProgressWatchdog wd;
    WatchdogConfig cfg = WatchdogConfig::fromConfig(defaultTargetConfig());
    cfg.stallBeats = 2;
    cfg.action = WatchdogAction::Flag;
    armSynchronous(wd, cfg, s.source());

    wd.beatOnce(); // baseline
    wd.beatOnce();
    EXPECT_STREQ(wd.beatOnce(), "livelock");
    EXPECT_EQ(wd.view().stallFlags, 1u);
}

TEST(Watchdog, OneStaleTileAmongAdvancersIsStall)
{
    ScriptedSource s;
    s.tiles = {{0, 100, 50, true, true}, {1, 90, 40, true, true}};
    ProgressWatchdog wd;
    WatchdogConfig cfg = WatchdogConfig::fromConfig(defaultTargetConfig());
    cfg.stallBeats = 2;
    cfg.action = WatchdogAction::Flag;
    armSynchronous(wd, cfg, s.source());

    wd.beatOnce(); // baseline
    const char* verdict = "ok";
    for (int i = 0; i < 3; ++i) {
        s.tiles[0].cycles += 10; // tile 0 advances, tile 1 wedged
        verdict = wd.beatOnce();
    }
    EXPECT_STREQ(verdict, "stall");
}

TEST(Watchdog, UnoccupiedTilesNeverJudged)
{
    ScriptedSource s;
    s.tiles = {{0, 0, 0, false, false}, {1, 0, 0, false, false}};
    ProgressWatchdog wd;
    WatchdogConfig cfg = WatchdogConfig::fromConfig(defaultTargetConfig());
    cfg.stallBeats = 1;
    cfg.action = WatchdogAction::Flag;
    armSynchronous(wd, cfg, s.source());
    for (int i = 0; i < 5; ++i)
        EXPECT_STREQ(wd.beatOnce(), "ok");
    EXPECT_EQ(wd.view().stallFlags, 0u);
}

TEST(Watchdog, DumpActionWritesDiagnosticFile)
{
    std::string path = tempPath("wddump");
    ScriptedSource s;
    s.tiles = {{0, 100, 50, true, false}};
    s.ws.futexes.push_back({0x99, {0}});
    ProgressWatchdog wd;
    WatchdogConfig cfg = WatchdogConfig::fromConfig(defaultTargetConfig());
    cfg.stallBeats = 1;
    cfg.dumpBeats = 2;
    cfg.action = WatchdogAction::Dump;
    cfg.dumpPath = path;
    armSynchronous(wd, cfg, s.source());

    wd.beatOnce();                       // baseline
    EXPECT_STREQ(wd.beatOnce(), "deadlock"); // transition (flag)
    wd.beatOnce();                       // in-verdict beat 1
    wd.beatOnce();                       // in-verdict beat 2 -> dump
    EXPECT_EQ(wd.view().dumps, 1u);
    wd.beatOnce(); // still deadlocked: no second dump
    EXPECT_EQ(wd.view().dumps, 1u);

    std::string dump = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(dump.find("watchdog diagnostic dump"), std::string::npos);
    EXPECT_NE(dump.find("futex 0x99 waiters: tile 0"),
              std::string::npos);
    EXPECT_NE(dump.find("\"verdict\":\"deadlock\""), std::string::npos);
}

// --------------------------------------------- integration: wait sets

struct WaitSetProbe
{
    Simulator* sim = nullptr;
    addr_t gate = 0;
    WaitSetSnapshot seen;
    bool observed = false;
};

void
parkedWorker(void* p)
{
    auto* probe = static_cast<WaitSetProbe*>(p);
    while (api::read<std::uint32_t>(probe->gate) == 0)
        api::futexWait(probe->gate, 0);
}

void
waitSetMain(void* p)
{
    auto* probe = static_cast<WaitSetProbe*>(p);
    probe->gate = api::malloc(4);
    api::write<std::uint32_t>(probe->gate, 0);
    tile_id_t t1 = api::threadSpawn(&parkedWorker, p);
    tile_id_t t2 = api::threadSpawn(&parkedWorker, p);

    // Host-side poll: the snapshot is taken from this (application)
    // thread exactly the way the telemetry server's thread would.
    // Each iteration burns a full quantum so the quantum check can
    // hand the execution slot to the workers — with one host thread
    // (hardware_concurrency == 1) a sim thread that only polls
    // host-side would otherwise monopolize the slot and starve the
    // workers before they ever reach futexWait. Wall-clock deadline,
    // not an iteration cap, so a loaded host cannot exhaust it.
    ThreadManager& tm = probe->sim->threadManager();
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!probe->observed &&
           std::chrono::steady_clock::now() < deadline) {
        api::exec(InstrClass::IntAlu, 20000); // >= host/quantum_cycles
        WaitSetSnapshot ws = tm.waitSets();
        for (const auto& q : ws.futexes) {
            if (q.addr == probe->gate && q.waiters.size() == 2) {
                probe->seen = ws;
                probe->observed = true;
            }
        }
        if (!probe->observed)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    api::write<std::uint32_t>(probe->gate, 1);
    api::futexWake(probe->gate, 8);
    api::threadJoin(t1);
    api::threadJoin(t2);
    api::free(probe->gate);
}

TEST(Integration, WaitSetSnapshotNamesParkedTiles)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    Simulator sim(cfg);
    WaitSetProbe probe;
    probe.sim = &sim;
    sim.run(&waitSetMain, &probe);
    ASSERT_TRUE(probe.observed);
    ASSERT_EQ(probe.seen.futexes.size(), 1u);
    EXPECT_EQ(probe.seen.futexes[0].addr, probe.gate);
    std::vector<tile_id_t> waiters = probe.seen.futexes[0].waiters;
    std::sort(waiters.begin(), waiters.end());
    EXPECT_EQ(waiters, (std::vector<tile_id_t>{1, 2}));
    EXPECT_EQ(probe.seen.busyTiles, 3); // main + two workers
}

void
busyMain(void*)
{
    for (int i = 0; i < 20; ++i)
        api::exec(InstrClass::IntAlu, 100);
}

TEST(Integration, ServerScrapeAgreesWithSimulatorState)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    cfg.setInt("telemetry/http_port", 0); // ephemeral
    Simulator sim(cfg);
    sim.run(&busyMain, nullptr);

    // run() returned; the server keeps serving final values.
    ASSERT_TRUE(sim.telemetryServer().running());
    std::uint16_t port = sim.telemetryServer().port();
    ASSERT_NE(port, 0);

    HttpResponse status = httpGet(port, "/status");
    ASSERT_EQ(status.status, 200);
    std::string cycles_key =
        "\"simulated_cycles\":" + std::to_string(sim.simulatedTime());
    EXPECT_NE(status.body.find(cycles_key), std::string::npos)
        << status.body;

    HttpResponse metrics = httpGet(port, "/metrics");
    ASSERT_EQ(metrics.status, 200);
    std::string cycles_series =
        "graphite_sim_cycles_max " +
        std::to_string(sim.simulatedTime()) + "\n";
    EXPECT_NE(metrics.body.find(cycles_series), std::string::npos);
    std::string instr_series =
        "graphite_sim_instructions_total " +
        std::to_string(sim.totalInstructions()) + "\n";
    EXPECT_NE(metrics.body.find(instr_series), std::string::npos);
    // The memory-latency histogram exports as a real histogram family.
    EXPECT_NE(metrics.body.find(
                  "# TYPE graphite_mem_access_latency histogram"),
              std::string::npos);
    EXPECT_EQ(
        countOccurrences(metrics.body,
                         "\ngraphite_mem_access_latency_count "),
        1);
}

// --------------------------------------- fork-isolated terminal paths

/// Reap @p pid with a deadline; returns the wait status (or -1).
int
reapWithTimeout(pid_t pid, int timeout_sec)
{
    int status = -1;
    const long poll_us = 20000;
    long waited = 0;
    const long limit = static_cast<long>(timeout_sec) * 1000000;
    for (;;) {
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return status;
        if (waited >= limit) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return status;
        }
        ::usleep(poll_us);
        waited += poll_us;
    }
}

struct DeadlockProbe
{
    addr_t m1 = 0;
    addr_t m2 = 0;
    addr_t gate = 0;
};

void
deadlockWorker(void* p)
{
    auto* d = static_cast<DeadlockProbe*>(p);
    api::mutexLock(d->m2);
    api::write<std::uint32_t>(d->gate, 1);
    api::futexWake(d->gate, 1);
    api::mutexLock(d->m1); // held by main: blocks forever
}

void
deadlockMain(void* p)
{
    auto* d = static_cast<DeadlockProbe*>(p);
    d->m1 = api::malloc(api::MUTEX_BYTES);
    d->m2 = api::malloc(api::MUTEX_BYTES);
    d->gate = api::malloc(4);
    api::mutexInit(d->m1);
    api::mutexInit(d->m2);
    api::write<std::uint32_t>(d->gate, 0);
    api::mutexLock(d->m1);
    api::threadSpawn(&deadlockWorker, p);
    while (api::read<std::uint32_t>(d->gate) == 0)
        api::futexWait(d->gate, 0);
    api::mutexLock(d->m2); // held by worker: classic AB/BA deadlock
}

TEST(ForkIsolated, WatchdogAbortsPlantedDeadlockWithDump)
{
    std::string dump_path = tempPath("deadlock");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: fast watchdog, abort action. run() never returns.
        Config cfg = defaultTargetConfig();
        cfg.setInt("general/total_tiles", 4);
        cfg.setInt("telemetry/watchdog_interval_ms", 25);
        cfg.setInt("telemetry/watchdog_stall_beats", 4);
        cfg.setInt("telemetry/watchdog_dump_beats", 2);
        cfg.set("telemetry/watchdog_action", "abort");
        cfg.set("telemetry/watchdog_dump", dump_path);
        try {
            Simulator sim(cfg);
            DeadlockProbe probe;
            sim.run(&deadlockMain, &probe);
        } catch (...) {
        }
        std::_Exit(0); // deadlock did not hold: report clean exit
    }

    int status = reapWithTimeout(pid, 60);
    ASSERT_TRUE(WIFEXITED(status))
        << "child did not exit cleanly (killed after hang?)";
    EXPECT_EQ(WEXITSTATUS(status),
              obs::telemetry::WATCHDOG_ABORT_EXIT);

    std::string dump = slurp(dump_path);
    std::remove(dump_path.c_str());
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(dump.find("verdict: deadlock"), std::string::npos);
    // The dump names the waiting tiles and the futex words (the mutex
    // internals) they are parked on.
    EXPECT_NE(dump.find("futex 0x"), std::string::npos);
    EXPECT_NE(dump.find("waiters: tile"), std::string::npos);
    EXPECT_NE(dump.find("blocked"), std::string::npos);
    EXPECT_NE(dump.find("flight recorder"), std::string::npos);
}

TEST(ForkIsolated, CrashHandlerDumpsFlightRecorder)
{
    std::string dump_path = tempPath("crash");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        FlightRecorder& fr = FlightRecorder::instance();
        fr.configure(64);
        fr.setArmed(true);
        FlightRecorder::record(FrEvent::MsgSend, 1, 123, 2, 64);
        FlightRecorder::record(FrEvent::Custom, 0, 456);
        fr.installCrashHandler(dump_path);
        ::raise(SIGSEGV);
        std::_Exit(0); // unreachable
    }

    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    std::string dump = slurp(dump_path);
    std::remove(dump_path.c_str());
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(dump.find("graphite crash dump"), std::string::npos);
    EXPECT_NE(dump.find("msg_send tile=1 cycle=123"),
              std::string::npos);
    EXPECT_NE(dump.find("custom tile=0 cycle=456"), std::string::npos);
}

TEST(ForkIsolated, UninstalledHandlerLeavesDefaultDisposition)
{
    std::string dump_path = tempPath("uninstall");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        FlightRecorder& fr = FlightRecorder::instance();
        fr.configure(16);
        fr.installCrashHandler(dump_path);
        fr.uninstallCrashHandler();
        ::raise(SIGSEGV);
        std::_Exit(0);
    }
    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
    // No handler ran: no dump file.
    EXPECT_TRUE(slurp(dump_path).empty());
    std::remove(dump_path.c_str());
}

} // namespace
} // namespace graphite
