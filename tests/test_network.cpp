/**
 * @file
 * Unit tests for the network component: global progress, the
 * lax-compatible queue model, mesh geometry, the three network models,
 * and the fabric/endpoint layer.
 */

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/log.h"
#include "network/global_progress.h"
#include "network/network.h"
#include "network/network_model.h"
#include "network/queue_model.h"

namespace graphite
{
namespace
{

// --------------------------------------------------------- GlobalProgress

TEST(GlobalProgress, AveragesWindow)
{
    GlobalProgress gp(4);
    EXPECT_EQ(gp.estimate(), 0u);
    gp.observe(100);
    gp.observe(200);
    EXPECT_EQ(gp.estimate(), 150u);
    EXPECT_EQ(gp.samples(), 2u);
}

TEST(GlobalProgress, OldSamplesAgeOut)
{
    GlobalProgress gp(2);
    gp.observe(10);
    gp.observe(20);
    gp.observe(30); // evicts 10
    EXPECT_EQ(gp.estimate(), 25u);
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
    EXPECT_LT(gp.estimate(), 12000u);
}

// -------------------------------------------------------------- QueueModel

TEST(QueueModel, NoDelayWhenIdle)
{
    QueueModel q(nullptr);
    EXPECT_EQ(q.enqueue(100, 10), 0u);
    EXPECT_EQ(q.queueClock(), 110u);
}

TEST(QueueModel, BackToBackPacketsQueue)
{
    // Paper §3.6.1: delay is the difference between the queue clock and
    // the arrival; the queue clock advances by the processing time.
    QueueModel q(nullptr);
    EXPECT_EQ(q.enqueue(100, 10), 0u);
    EXPECT_EQ(q.enqueue(100, 10), 10u);
    EXPECT_EQ(q.enqueue(100, 10), 20u);
    EXPECT_EQ(q.totalQueueDelay(), 30u);
    EXPECT_EQ(q.totalRequests(), 3u);
}

TEST(QueueModel, IdleGapDrainsQueue)
{
    QueueModel q(nullptr);
    q.enqueue(0, 10);
    EXPECT_EQ(q.enqueue(1000, 10), 0u); // long gap: no backlog
}

TEST(QueueModel, OutlierArrivalsClampToProgress)
{
    GlobalProgress gp(4);
    gp.observe(1000000);
    gp.observe(1000000);
    QueueModel q(&gp, /*outlier_window=*/1000);
    // Arrival absurdly in the past is clamped near the estimate.
    q.enqueue(5, 10);
    EXPECT_GE(q.queueClock(), 999000u);
}

TEST(QueueModel, BacklogIsBounded)
{
    // Finite-buffer back-pressure: a dense burst cannot grow the delay
    // without bound (the saturation-spiral guard).
    QueueModel q(nullptr, 100000, /*max_backlog=*/500);
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
    QueueModel q(&gp, /*outlier_window=*/10);
    EXPECT_EQ(q.enqueue(5000000, 10), 0u);
    EXPECT_EQ(q.queueClock(), 5000010u);
    EXPECT_EQ(q.clampedArrivals(), 0u);
}

TEST(QueueModel, CycleWraparoundSaturates)
{
    // Arrivals near the top of the u64 cycle range: the queue clock and
    // the backlog bound must saturate instead of wrapping to small
    // values (which would read as a huge spurious backlog or none).
    const cycle_t NEAR_MAX = ~cycle_t{0} - 50;
    QueueModel q(nullptr, 100000, 10000);
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
    QueueModel q(&gp, /*outlier_window=*/1000);
    // hi = estimate + window saturates; an arrival at the very top is
    // inside the window and must pass through unclamped.
    q.enqueue(~cycle_t{0} - 2, 1);
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
            EXPECT_EQ(static_cast<int>(m.route(s, d).size()),
                      m.hops(s, d));
        }
    }
}

// ----------------------------------------------------------- NetworkModels

TEST(NetworkModel, MagicIsFree)
{
    MagicNetworkModel magic;
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
    EMeshContentionNetworkModel model(16, 2, 8, &gp);
    // Same route, same time: later packets see queueing delay.
    cycle_t first = model.computeLatency(0, 3, 64, 1000).total;
    cycle_t burst = first;
    for (int i = 0; i < 20; ++i)
        burst = model.computeLatency(0, 3, 64, 1000).total;
    EXPECT_GT(burst, first);
    EXPECT_GT(model.totalContentionDelay(), 0u);
}

TEST(NetworkModel, FactoryRejectsUnknownType)
{
    Config cfg;
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
    EXPECT_EQ(fabric.intraProcessMessages(PacketType::Memory), 1u);
    EXPECT_EQ(fabric.interProcessMessages(PacketType::Memory), 1u);
    EXPECT_EQ(fabric.pairMessages(0, 2), 1u);
    EXPECT_EQ(fabric.pairBytes(0, 1), 80u);
    EXPECT_EQ(fabric.pairMessages(1, 0), 0u);
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
