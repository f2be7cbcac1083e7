/**
 * @file
 * Unit tests for the network component: global progress, the
 * lax-compatible queue model, mesh geometry, the three network models,
 * and the fabric/endpoint layer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "mem/dram_controller.h"
#include "network/global_progress.h"
#include "network/network.h"
#include "network/network_model.h"
#include "network/queue_model.h"
#include "snapshot/snapshot.h"

namespace graphite
{
namespace
{

// --------------------------------------------------------- GlobalProgress

TEST(GlobalProgress, AveragesWindow)
{
    GlobalProgress gp(4);
    EXPECT_EQ(gp.current(), std::nullopt);
    EXPECT_EQ(gp.observe(100), 100u);
    EXPECT_EQ(gp.observe(200), 150u);
    EXPECT_EQ(gp.current(), 150u);
    EXPECT_EQ(gp.samples(), 2u);
}

TEST(GlobalProgress, OldSamplesAgeOut)
{
    GlobalProgress gp(2);
    gp.observe(10);
    gp.observe(20);
    gp.observe(30); // evicts 10
    EXPECT_EQ(gp.current(), 25u);
    EXPECT_EQ(gp.samples(), 2u);
}

TEST(GlobalProgress, LargeWindowResistsOutliers)
{
    // Paper §3.6.1: "The large window is necessary to eliminate
    // outliers from overly influencing the result."
    GlobalProgress gp(100);
    for (int i = 0; i < 99; ++i)
        gp.observe(1000);
    gp.observe(1000000); // one outlier
    EXPECT_LT(*gp.current(), 12000u);
}

TEST(GlobalProgress, RestoreRejectsACursorOutsideTheWindow)
{
    // A damaged but checksummed snapshot must not hand observe() a
    // cursor past the window.
    auto restore = [](std::uint64_t next, std::uint64_t count) {
        snapshot::SnapshotWriter w;
        w.u64(4); // window size
        for (int i = 0; i < 4; ++i)
            w.u64(100);
        w.u64(next);
        w.u64(count);
        w.u64(400); // running sum, low word
        w.u64(0);   // running sum, high word
        snapshot::SnapshotReader r(w.finish());
        snapshot::Archive ar(r);
        GlobalProgress gp(4);
        gp.serialize(ar);
        return gp.current();
    };
    EXPECT_EQ(restore(3, 4), std::optional<cycle_t>(100));
    EXPECT_THROW(restore(4, 4), snapshot::SnapshotError);
    EXPECT_THROW(restore(0, 5), snapshot::SnapshotError);
}

TEST(GlobalProgress, ConcurrentObserversPublishAWindowAverage)
{
    // Each writer observes one constant stamp, so every window average
    // lies within [100, 400]; readers load the published value without
    // the lock and must never see anything else.
    constexpr size_t WINDOW = 16;
    constexpr int WRITES = 20000;
    GlobalProgress gp(WINDOW);
    std::atomic<int> writersLeft{4};
    std::atomic<bool> bad{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
        threads.emplace_back([&, w] {
            const cycle_t stamp = 100 * static_cast<cycle_t>(w + 1);
            for (int i = 0; i < WRITES; ++i) {
                cycle_t est = gp.observe(stamp);
                if (est < 100 || est > 400)
                    bad = true;
            }
            writersLeft.fetch_sub(1);
        });
    }
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            while (writersLeft.load() > 0) {
                std::optional<cycle_t> est = gp.current();
                if (est && (*est < 100 || *est > 400))
                    bad = true;
                if (gp.samples() > WINDOW)
                    bad = true;
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(gp.samples(), WINDOW);
    ASSERT_TRUE(gp.current().has_value());
    EXPECT_GE(*gp.current(), 100u);
    EXPECT_LE(*gp.current(), 400u);
}

// -------------------------------------------------------------- QueueModel

TEST(QueueModel, NoDelayWhenIdle)
{
    QueueModel q(/*outlier_window=*/100000, /*max_backlog=*/10000);
    EXPECT_EQ(q.enqueue(100, 10), 0u);
    EXPECT_EQ(q.queueClock(), 110u);
}

TEST(QueueModel, BackToBackPacketsQueue)
{
    // Paper §3.6.1: delay is the difference between the queue clock and
    // the arrival; the queue clock advances by the processing time.
    QueueModel q(/*outlier_window=*/100000, /*max_backlog=*/10000);
    EXPECT_EQ(q.enqueue(100, 10), 0u);
    EXPECT_EQ(q.enqueue(100, 10), 10u);
    EXPECT_EQ(q.enqueue(100, 10), 20u);
    EXPECT_EQ(q.totalQueueDelay(), 30u);
    EXPECT_EQ(q.totalRequests(), 3u);
}

TEST(QueueModel, IdleGapDrainsQueue)
{
    QueueModel q(/*outlier_window=*/100000, /*max_backlog=*/10000);
    q.enqueue(0, 10);
    EXPECT_EQ(q.enqueue(1000, 10), 0u); // long gap: no backlog
}

TEST(QueueModel, OutlierArrivalsClampToProgress)
{
    GlobalProgress gp(4);
    gp.observe(1000000);
    gp.observe(1000000);
    QueueModel q(/*outlier_window=*/1000, /*max_backlog=*/10000);
    // Arrival absurdly in the past is clamped near the estimate.
    q.enqueue(5, 10, gp.current());
    EXPECT_GE(q.queueClock(), 999000u);
    // The clamped arrival found the queue idle; it still counts.
    EXPECT_EQ(q.clampedArrivals(), 1u);
}

TEST(QueueModel, BacklogIsBounded)
{
    // Finite-buffer back-pressure: a dense burst cannot grow the delay
    // without bound (the saturation-spiral guard).
    QueueModel q(/*outlier_window=*/100000, /*max_backlog=*/500);
    for (int i = 0; i < 1000; ++i)
        q.enqueue(0, 100);
    EXPECT_LE(q.enqueue(0, 100), 600u);
    EXPECT_GT(q.saturations(), 0u);
}

TEST(QueueModel, EmptyHistoryWindowTrustsArrivals)
{
    // A progress estimator with no samples yet must not clamp: before
    // any thread reports, the raw arrival timestamp is the only truth.
    GlobalProgress gp(4);
    QueueModel q(/*outlier_window=*/10, /*max_backlog=*/10000);
    EXPECT_EQ(q.enqueue(5000000, 10, gp.current()), 0u);
    EXPECT_EQ(q.queueClock(), 5000010u);
    EXPECT_EQ(q.clampedArrivals(), 0u);
}

TEST(QueueModel, CycleWraparoundSaturates)
{
    // Arrivals near the top of the u64 cycle range: the queue clock and
    // the backlog bound must saturate instead of wrapping to small
    // values (which would read as a huge spurious backlog or none).
    const cycle_t NEAR_MAX = ~cycle_t{0} - 50;
    QueueModel q(/*outlier_window=*/100000, /*max_backlog=*/10000);
    EXPECT_EQ(q.enqueue(NEAR_MAX, 200), 0u);
    EXPECT_EQ(q.queueClock(), ~cycle_t{0});
    // A later arrival sees a small, sane delay, not wrapped garbage.
    EXPECT_EQ(q.enqueue(NEAR_MAX + 10, 1), 40u);
    EXPECT_EQ(q.queueClock(), ~cycle_t{0});
}

TEST(QueueModel, WraparoundProgressEstimateSaturatesClampWindow)
{
    GlobalProgress gp(2);
    gp.observe(~cycle_t{0} - 5);
    gp.observe(~cycle_t{0} - 5);
    QueueModel q(/*outlier_window=*/1000, /*max_backlog=*/10000);
    // hi = estimate + window saturates; an arrival at the very top is
    // inside the window and must pass through unclamped.
    q.enqueue(~cycle_t{0} - 2, 1, gp.current());
    EXPECT_EQ(q.clampedArrivals(), 0u);
}

// --------------------------------------------------------------- MeshShape

TEST(MeshShape, NearSquareDimensions)
{
    MeshShape m16(16);
    EXPECT_EQ(m16.width(), 4);
    EXPECT_EQ(m16.height(), 4);
    MeshShape m10(10);
    EXPECT_EQ(m10.width(), 4);
    EXPECT_EQ(m10.height(), 3);
    MeshShape m1(1);
    EXPECT_EQ(m1.width(), 1);
}

TEST(MeshShape, ManhattanHops)
{
    MeshShape m(16); // 4x4
    EXPECT_EQ(m.hops(0, 0), 0);
    EXPECT_EQ(m.hops(0, 3), 3);
    EXPECT_EQ(m.hops(0, 15), 6);
    EXPECT_EQ(m.hops(5, 6), 1);
}

TEST(MeshShape, XYRouteLengthMatchesHops)
{
    MeshShape m(16);
    for (tile_id_t s = 0; s < 16; ++s) {
        for (tile_id_t d = 0; d < 16; ++d) {
            int links = 0;
            m.forEachLink(s, d, [&links](int) { ++links; });
            EXPECT_EQ(links, m.hops(s, d));
        }
    }
}

// ----------------------------------------------------------- NetworkModels

TEST(NetworkModel, MagicIsFree)
{
    MagicNetworkModel magic(16);
    EXPECT_EQ(magic.computeLatency(0, 5, 100, 42).total, 0u);
    EXPECT_EQ(magic.packetsRouted(), 1u);
}

TEST(NetworkModel, HopModelScalesWithDistance)
{
    EMeshHopNetworkModel model(16, /*hop=*/2, /*bw=*/8);
    cycle_t near = model.computeLatency(0, 1, 64, 0).total;
    cycle_t far = model.computeLatency(0, 15, 64, 0).total;
    EXPECT_EQ(near, 2u + 8u);  // 1 hop + 64/8 serialization
    EXPECT_EQ(far, 12u + 8u);  // 6 hops
    EXPECT_GT(far, near);
}

TEST(NetworkModel, ContentionAddsUnderLoad)
{
    GlobalProgress gp(64);
    EMeshContentionNetworkModel model(16, /*hop=*/2, /*bw=*/8, &gp,
                                      /*outlier_window=*/100000,
                                      /*max_backlog=*/10000);
    // Same route, same time: later packets see queueing delay.
    cycle_t first = model.computeLatency(0, 3, 64, 1000).total;
    cycle_t burst = first;
    for (int i = 0; i < 20; ++i)
        burst = model.computeLatency(0, 3, 64, 1000).total;
    EXPECT_GT(burst, first);
    EXPECT_GT(model.totalContentionDelay(), 0u);
}

/**
 * Drive a fixed stream of miss-shaped round trips (request leg, DRAM
 * access at the home, reply leg) through a contention mesh and a DRAM
 * controller that share one progress estimator, and print every cost
 * and the final queue counters, one line per round trip. The outlier
 * window and backlog are small, so some stamps are clamped and some
 * queues saturate.
 */
std::string
measureContentionPin()
{
    GlobalProgress gp(4);
    EMeshContentionNetworkModel mesh(16, /*hop=*/2, /*bw=*/8, &gp,
                                     /*outlier_window=*/300,
                                     /*max_backlog=*/40);
    DramController dram(100, /*bytes_per_cycle=*/4.0, &gp,
                        /*outlier_window=*/300, /*max_backlog=*/40);

    std::string out;
    char line[256];
    auto net = [](const NetBreakdown& b) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%llu %llu %llu %llu",
                      static_cast<unsigned long long>(b.serialization),
                      static_cast<unsigned long long>(b.queue),
                      static_cast<unsigned long long>(b.hop),
                      static_cast<unsigned long long>(b.total));
        return std::string(buf);
    };
    // A DRAM access before any message: no progress sample exists yet.
    DramController::Breakdown first = dram.access(5000, 64);
    std::snprintf(line, sizeof line, "first dram %llu %llu %llu\n",
                  static_cast<unsigned long long>(first.queue),
                  static_cast<unsigned long long>(first.service),
                  static_cast<unsigned long long>(first.total));
    out += line;

    std::uint64_t s = 0x2545F4914F6CDD1Dull;
    auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    };
    cycle_t clock = 1000;
    for (int i = 0; i < 30; ++i) {
        auto src = static_cast<tile_id_t>(next() % 16);
        // Every third request goes to one hot home, so its links queue.
        auto home = static_cast<tile_id_t>(i % 3 == 0 ? 5 : next() % 16);
        size_t bytes = 8 * (1 + next() % 10);
        clock += next() % 8;
        cycle_t send = clock;
        if (i % 9 == 4)
            send += 2000; // far ahead of progress: clamped down
        if (i % 9 == 7)
            send -= 900; // far behind progress: clamped up
        NetBreakdown req = mesh.computeLatency(src, home, bytes, send);
        DramController::Breakdown d = dram.access(send + req.total, 64);
        NetBreakdown rep = mesh.computeLatency(
            home, src, 72, send + req.total + d.total);
        std::snprintf(line, sizeof line, "%2d->%2d %2zuB @%llu | ", src,
                      home, bytes, static_cast<unsigned long long>(send));
        out += line;
        out += net(req);
        std::snprintf(line, sizeof line, " | %llu %llu %llu | ",
                      static_cast<unsigned long long>(d.queue),
                      static_cast<unsigned long long>(d.service),
                      static_cast<unsigned long long>(d.total));
        out += line;
        out += net(rep) + "\n";
    }

    // The mesh exposes its link queues only through its checkpoint
    // record, whose layout the golden snapshot pins: the four routed
    // totals, the link count, then per link the queue clock, requests,
    // delay, clamped arrivals and saturations.
    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    mesh.serialize(save);
    snapshot::SnapshotReader r(w.finish());
    stat_t routed[4];
    for (stat_t& v : routed)
        v = r.u64();
    std::uint64_t links = r.u64();
    stat_t requests = 0, delay = 0, clamped = 0, saturations = 0;
    for (std::uint64_t l = 0; l < links; ++l) {
        r.u64();
        requests += r.u64();
        delay += r.u64();
        clamped += r.u64();
        saturations += r.u64();
    }
    std::snprintf(
        line, sizeof line,
        "mesh packets %llu bytes %llu latency %llu hops %llu\n"
        "links requests %llu delay %llu clamped %llu saturations %llu\n"
        "dram requests %llu delay %llu clamped %llu saturations %llu\n",
        static_cast<unsigned long long>(routed[0]),
        static_cast<unsigned long long>(routed[1]),
        static_cast<unsigned long long>(routed[2]),
        static_cast<unsigned long long>(routed[3]),
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(delay),
        static_cast<unsigned long long>(clamped),
        static_cast<unsigned long long>(saturations),
        static_cast<unsigned long long>(dram.accesses()),
        static_cast<unsigned long long>(dram.totalQueueDelay()),
        static_cast<unsigned long long>(dram.clampedArrivals()),
        static_cast<unsigned long long>(dram.saturations()));
    out += line;
    return out;
}

// Reference: a change that keeps the contention model's timing
// reproduces it exactly. Each round-trip line reads
// "src->home bytes @send | request leg | DRAM | reply leg", a leg as
// serialization, queue, hop and total cycles and the DRAM access as
// queue, service and total.
const char* const CONTENTION_PIN = R"(first dram 0 116 116
 7-> 5 72B @1007 | 9 0 4 13 | 40 116 156 | 9 0 4 13
 6->14 64B @1007 | 8 0 4 12 | 40 116 156 | 9 0 4 13
13->15 64B @1011 | 8 0 4 12 | 40 116 156 | 9 0 4 13
 9-> 5 64B @1017 | 8 0 2 10 | 40 116 156 | 9 0 2 11
12->15  8B @3021 | 1 0 6 7 | 0 116 116 | 9 0 6 15
 5-> 6  8B @1028 | 1 0 2 3 | 40 116 156 | 9 0 2 11
11-> 5 32B @1028 | 4 0 6 10 | 40 116 156 | 9 40 6 55
14->15 16B @135 | 2 40 2 44 | 40 116 156 | 9 40 2 51
 6->13 48B @1041 | 6 80 6 92 | 0 116 116 | 9 120 6 135
 8-> 5  8B @1043 | 1 40 4 45 | 0 116 116 | 9 0 4 13
15-> 2 32B @1048 | 4 0 8 12 | 40 116 156 | 9 27 8 44
15-> 8 48B @1055 | 6 80 8 94 | 0 116 116 | 9 0 8 17
 5-> 5 48B @1057 | 6 0 0 6 | 40 116 156 | 9 0 0 9
15-> 6 56B @3062 | 7 0 6 13 | 0 116 116 | 9 0 6 15
11->15 24B @1063 | 3 40 2 45 | 40 116 156 | 9 0 2 11
 8-> 5 32B @1069 | 4 0 4 8 | 40 116 156 | 9 0 4 13
 5->14 64B @170 | 8 120 6 134 | 40 116 156 | 9 80 6 95
 8-> 0 80B @1070 | 10 0 4 14 | 0 116 116 | 9 40 4 53
 6-> 5 32B @1075 | 4 0 2 6 | 0 116 116 | 9 0 2 11
10-> 1 72B @1081 | 9 40 6 55 | 0 116 116 | 9 0 6 15
12->10  8B @1082 | 1 80 6 87 | 0 116 116 | 9 0 6 15
12-> 5 64B @1087 | 8 42 6 56 | 40 116 156 | 9 0 6 15
 1-> 0 64B @3089 | 8 0 2 10 | 0 116 116 | 9 0 2 11
10->14 72B @1093 | 9 0 2 11 | 40 116 156 | 9 0 2 11
15-> 5 56B @1096 | 7 40 8 55 | 40 116 156 | 9 120 8 137
12-> 9 40B @196 | 5 80 4 89 | 40 116 156 | 9 80 4 93
 7-> 6 32B @1103 | 4 0 2 6 | 0 116 116 | 9 40 2 51
 9-> 5 80B @1104 | 10 40 2 52 | 0 116 116 | 9 0 2 11
 7-> 8 16B @1107 | 2 80 8 90 | 0 116 116 | 9 28 8 45
 8->13 16B @1111 | 2 40 4 46 | 40 116 156 | 9 0 4 13
mesh packets 60 bytes 3480 latency 2152 hops 130
links requests 130 delay 1457 clamped 49 saturations 34
dram requests 31 delay 680 clamped 15 saturations 17
)";

TEST(NetworkModel, ContentionTimingIsPinned)
{
    EXPECT_EQ(measureContentionPin(), CONTENTION_PIN);
}

TEST(NetworkModel, FactoryRejectsUnknownType)
{
    Config cfg = defaultTargetConfig();
    EXPECT_THROW(NetworkModel::create("bogus", 4, cfg, nullptr),
                 FatalError);
}

// ------------------------------------------------------- Fabric + Network

TEST(NetworkFabric, SelectsModelsPerPacketType)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(16, 2);
    NetworkFabric fabric(topo, cfg);
    EXPECT_EQ(fabric.modelFor(PacketType::System).name(), "magic");
    EXPECT_EQ(fabric.modelFor(PacketType::Memory).name(),
              "emesh_contention");
    EXPECT_EQ(fabric.modelFor(PacketType::App).name(),
              "emesh_contention");
}

TEST(NetworkFabric, AccountsLocalityAndMatrix)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(4, 2);
    NetworkFabric fabric(topo, cfg);
    fabric.model(PacketType::Memory, 0, 2, 80, 10); // same proc
    fabric.model(PacketType::Memory, 0, 1, 80, 10); // cross proc
    EXPECT_EQ(fabric.pairMessages(0, 2), 1u);
    EXPECT_EQ(fabric.pairBytes(0, 1), 80u);
    EXPECT_EQ(fabric.pairMessages(1, 0), 0u);
}

TEST(NetworkFabric, StripedCountersSumExactly)
{
    // Four threads model memory messages from their own tile to every
    // other: the per-tile stripes must sum to exact totals.
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(8, 2);
    NetworkFabric fabric(topo, cfg);
    constexpr int THREADS = 4;
    constexpr int MESSAGES = 5000;
    constexpr size_t BYTES = 72;
    std::vector<std::thread> threads;
    for (int t = 0; t < THREADS; ++t) {
        threads.emplace_back([&fabric, t] {
            for (int i = 0; i < MESSAGES; ++i) {
                auto dst = static_cast<tile_id_t>(i % 8);
                fabric.model(PacketType::Memory, t, dst, BYTES,
                             static_cast<cycle_t>(i));
            }
        });
    }
    for (std::thread& th : threads)
        th.join();

    const stat_t total = THREADS * MESSAGES;
    const NetworkModel& model = fabric.modelFor(PacketType::Memory);
    EXPECT_EQ(model.packetsRouted(), total);
    EXPECT_EQ(model.bytesRouted(), total * BYTES);
    stat_t pair_msgs = 0, pair_bytes = 0;
    for (tile_id_t s = 0; s < 8; ++s) {
        for (tile_id_t d = 0; d < 8; ++d) {
            pair_msgs += fabric.pairMessages(s, d);
            pair_bytes += fabric.pairBytes(s, d);
        }
    }
    EXPECT_EQ(pair_msgs, total);
    EXPECT_EQ(pair_bytes, total * BYTES);
    EXPECT_EQ(fabric.modelFor(PacketType::App).packetsRouted(), 0u);
}

TEST(NetworkFabric, SnapshotRestoresStripeSums)
{
    // Save writes the sums over the stripes; a restore puts them in one
    // stripe, so every total reads the same afterwards.
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(4, 2);
    NetworkFabric fabric(topo, cfg);
    for (tile_id_t s = 0; s < 4; ++s)
        for (tile_id_t d = 0; d < 4; ++d)
            fabric.model(PacketType::Memory, s, d, 16 + 8 * d, 10 * s);
    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    fabric.serialize(save);
    std::vector<std::uint8_t> blob = w.finish();

    NetworkFabric restored(topo, cfg);
    restored.model(PacketType::Memory, 3, 1, 999, 5); // overwritten
    snapshot::SnapshotReader r(blob);
    snapshot::Archive restore(r);
    restored.serialize(restore);
    const NetworkModel& a = fabric.modelFor(PacketType::Memory);
    const NetworkModel& b = restored.modelFor(PacketType::Memory);
    EXPECT_EQ(b.packetsRouted(), a.packetsRouted());
    EXPECT_EQ(b.bytesRouted(), a.bytesRouted());
    EXPECT_EQ(b.totalLatency(), a.totalLatency());
    EXPECT_EQ(b.totalHops(), a.totalHops());

    snapshot::SnapshotWriter again;
    snapshot::Archive resave(again);
    restored.serialize(resave);
    EXPECT_EQ(again.finish(), blob);
}

TEST(Network, SendRecvAcrossEndpoints)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(4, 1);
    Transport transport(topo);
    NetworkFabric fabric(topo, cfg);
    Network n0(0, fabric, transport);
    Network n1(1, fabric, transport);

    n0.send(PacketType::App, 1, {7, 8}, /*send_time=*/100);
    NetPacket pkt = n1.recv(PacketType::App);
    EXPECT_EQ(pkt.sender, 0);
    EXPECT_EQ(pkt.payload.size(), 2u);
    // Arrival time = send time + modeled latency (> 0 on a mesh).
    EXPECT_GT(pkt.time, 100u);

    // An empty payload still models the fixed header.
    n0.send(PacketType::System, 1, {}, 100);
    NetPacket sys = n1.recv(PacketType::System);
    EXPECT_TRUE(sys.payload.empty());
    EXPECT_EQ(sys.modeledBytes(), NetPacket::HEADER_BYTES);
}

TEST(Network, DemultiplexesByType)
{
    Config cfg = defaultTargetConfig();
    ClusterTopology topo(2, 1);
    Transport transport(topo);
    NetworkFabric fabric(topo, cfg);
    Network n0(0, fabric, transport);
    Network n1(1, fabric, transport);

    n0.send(PacketType::System, 1, {1}, 0);
    n0.send(PacketType::App, 1, {2}, 0);
    // Requesting App first must leave the System packet queued, not
    // drop it.
    NetPacket app = n1.recv(PacketType::App);
    EXPECT_EQ(app.payload[0], 2);
    NetPacket sys;
    EXPECT_TRUE(n1.tryRecv(PacketType::System, sys));
    EXPECT_EQ(sys.payload[0], 1);
}

} // namespace
} // namespace graphite
