/**
 * @file
 * Unit tests for the cluster topology (tile striping, endpoint
 * numbering) and the physical transport layer.
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/log.h"
#include "transport/transport.h"

namespace graphite
{
namespace
{

TEST(ClusterTopology, StripesTilesAcrossProcesses)
{
    // Paper §3.5: tiles are striped across processes.
    ClusterTopology topo(8, 4);
    EXPECT_EQ(topo.processForTile(0), 0);
    EXPECT_EQ(topo.processForTile(1), 1);
    EXPECT_EQ(topo.processForTile(4), 0);
    EXPECT_EQ(topo.processForTile(7), 3);
}

TEST(ClusterTopology, EndpointNumbering)
{
    ClusterTopology topo(4, 2);
    EXPECT_EQ(topo.tileEndpoint(3), 3);
    EXPECT_EQ(topo.lcpEndpoint(0), 4);
    EXPECT_EQ(topo.lcpEndpoint(1), 5);
    EXPECT_EQ(topo.mcpEndpoint(), 6);
    EXPECT_EQ(topo.numEndpoints(), 7);
}

TEST(ClusterTopology, InvalidShapesAreFatal)
{
    EXPECT_THROW(ClusterTopology(0, 1), FatalError);
    EXPECT_THROW(ClusterTopology(4, 0), FatalError);
    EXPECT_THROW(ClusterTopology(2, 4), FatalError);
}

NetPacket
packet(PacketType type, std::uint8_t byte)
{
    NetPacket pkt;
    pkt.type = type;
    pkt.sender = 0;
    pkt.payload = {byte};
    return pkt;
}

TEST(Transport, DeliversInFifoOrder)
{
    ClusterTopology topo(4, 2);
    Transport tr(topo);
    tr.send(1, packet(PacketType::App, 1));
    tr.send(1, packet(PacketType::App, 2));
    EXPECT_EQ(tr.totalPending(), 2u);
    EXPECT_EQ(tr.recv(1, PacketType::App).payload[0], 1);
    EXPECT_EQ(tr.recv(1, PacketType::App).payload[0], 2);
    EXPECT_EQ(tr.totalPending(), 0u);
}

TEST(Transport, KeepsOneFifoPerType)
{
    ClusterTopology topo(2, 1);
    Transport tr(topo);
    tr.send(1, packet(PacketType::System, 1));
    tr.send(1, packet(PacketType::App, 2));
    tr.send(1, packet(PacketType::System, 3));
    EXPECT_EQ(tr.totalPending(), 3u);
    EXPECT_EQ(tr.recv(1, PacketType::App).payload[0], 2);
    EXPECT_EQ(tr.recv(1, PacketType::System).payload[0], 1);
    EXPECT_EQ(tr.recv(1, PacketType::System).payload[0], 3);
    EXPECT_EQ(tr.totalPending(), 0u);
}

TEST(Transport, TryRecvNonBlocking)
{
    ClusterTopology topo(2, 1);
    Transport tr(topo);
    NetPacket pkt;
    EXPECT_FALSE(tr.tryRecv(0, PacketType::App, pkt));
    NetPacket sent = packet(PacketType::App, 42);
    sent.sender = 1;
    sent.traceId = 7;
    tr.send(0, sent);
    EXPECT_FALSE(tr.tryRecv(0, PacketType::System, pkt));
    EXPECT_TRUE(tr.tryRecv(0, PacketType::App, pkt));
    EXPECT_EQ(pkt.sender, 1);
    EXPECT_EQ(pkt.traceId, 7u);
    EXPECT_EQ(pkt.payload[0], 42);
}

TEST(Transport, BlockingRecvWakesOnSend)
{
    ClusterTopology topo(2, 1);
    Transport tr(topo);
    std::thread sender([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        tr.send(1, packet(PacketType::App, 9));
    });
    NetPacket pkt = tr.recv(1, PacketType::App); // blocks until sent
    EXPECT_EQ(pkt.payload[0], 9);
    sender.join();
}

TEST(Transport, ShutdownUnblocksReceivers)
{
    ClusterTopology topo(2, 1);
    Transport tr(topo);
    std::thread receiver([&] {
        NetPacket pkt = tr.recv(0, PacketType::System);
        EXPECT_EQ(pkt.sender, INVALID_TILE_ID); // shutdown sentinel
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tr.shutdown();
    receiver.join();
}

} // namespace
} // namespace graphite
