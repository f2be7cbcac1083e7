/**
 * @file
 * Network component: shared fabric (models + accounting) and per-tile
 * endpoints (paper §3.3).
 *
 * "The network provides common functionality, such as the bundling of
 * packets, multiplexing of messages, high-level interface to the rest of
 * the system, and internal interface to the transport layer."
 *
 * Functionality/modeling split:
 *  - NetworkFabric owns one NetworkModel per packet type (selected by
 *    config), the global-progress estimator, and the tile-pair traffic
 *    matrix read by the host model. Timing for *any* message — whether
 *    or not it is physically transported — goes through
 *    NetworkFabric::model().
 *  - Network is a tile's endpoint: it physically sends/receives packets
 *    over the transport, which keeps one FIFO per packet type.
 *    "Regardless of the time-stamp of a packet, the network forwards
 *    messages immediately and delivers them in the order they are
 *    received" — lax semantics.
 */

#pragma once

#include <array>
#include <atomic>
#include <memory>

#include "common/fixed_types.h"
#include "network/global_progress.h"
#include "network/network_model.h"
#include "obs/observers.h"
#include "transport/transport.h"

namespace graphite
{

class Config;

namespace snapshot
{
class Archive;
} // namespace snapshot

/**
 * Simulation-wide network state: the swappable models and the traffic
 * matrix consumed by the host cluster model.
 */
class NetworkFabric
{
  public:
    /**
     * Build models from config keys network/app_model,
     * network/memory_model, network/system_model.
     */
    NetworkFabric(const ClusterTopology& topo, const Config& cfg);

    /**
     * Model one message and account for it.
     * @return modeled network latency in cycles (`total`) and its
     *         decomposition, the span engine's attribution input.
     */
    NetBreakdown model(PacketType type, tile_id_t src, tile_id_t dst,
                       size_t bytes, cycle_t send_time);

    /**
     * @name In-flight application packets
     * Sent via a tile endpoint but not yet taken by the receiver.
     * Sampled as the net.inflight_packets gauge so span queueing
     * attribution can be cross-checked coarsely.
     * @{
     */
    void noteAppSend() { inflightApp_.fetch_add(1, std::memory_order_relaxed); }
    void noteAppDelivered() { inflightApp_.fetch_sub(1, std::memory_order_relaxed); }
    stat_t
    inflightAppPackets() const
    {
        std::int64_t v = inflightApp_.load(std::memory_order_relaxed);
        return v > 0 ? static_cast<stat_t>(v) : 0;
    }
    /** @} */

    /** The model serving @p type (for stats inspection). */
    NetworkModel& modelFor(PacketType type);
    const NetworkModel& modelFor(PacketType type) const;

    GlobalProgress& progress() { return progress_; }
    const ClusterTopology& topology() const { return topo_; }

    /**
     * @name Tile-pair traffic matrix
     * Message/byte counts per (src, dst) tile pair across App + Memory
     * traffic. The host cluster model uses this to recompute message
     * locality for *hypothetical* process/machine layouts (the
     * functional run's striping need not match the modeled one).
     * @{
     */
    stat_t pairMessages(tile_id_t src, tile_id_t dst) const;
    stat_t pairBytes(tile_id_t src, tile_id_t dst) const;
    /** @} */

    /** Checkpoint serialization (at quiescence only). */
    void serialize(snapshot::Archive& ar);

  private:
    ClusterTopology topo_;
    GlobalProgress progress_;
    std::atomic<std::int64_t> inflightApp_{0};
    std::array<std::unique_ptr<NetworkModel>, NUM_PACKET_TYPES> models_;
    /** N*N atomic counters, src-major. */
    std::vector<std::atomic<stat_t>> msgMatrix_;
    std::vector<std::atomic<stat_t>> byteMatrix_;
};

/**
 * A tile's network endpoint. One logical receiver (the tile's thread);
 * any thread may send.
 */
class Network
{
  public:
    /** @p observers are the hooks send/recv feed (all null = none). */
    Network(tile_id_t tile, NetworkFabric& fabric, Transport& transport,
            const obs::Observers& observers = {});

    /**
     * Model, stamp, and physically send a packet. The packet's arrival
     * time is send_time + modeled latency.
     */
    void send(PacketType type, tile_id_t dst,
              std::vector<std::uint8_t> payload, cycle_t send_time);

    /**
     * Blocking receive of the next packet of @p type. Packets of other
     * types stay in their own FIFOs. After transport shutdown, returns
     * a packet whose sender is INVALID_TILE_ID.
     */
    NetPacket recv(PacketType type);

    /** Non-blocking variant of recv(). */
    bool tryRecv(PacketType type, NetPacket& out);

    tile_id_t tileId() const { return tile_; }
    NetworkFabric& fabric() { return fabric_; }

  private:
    /** Per-delivery bookkeeping shared by recv() and tryRecv(). */
    void delivered(const NetPacket& pkt);

    tile_id_t tile_;
    endpoint_id_t endpoint_;
    NetworkFabric& fabric_;
    Transport& transport_;
    obs::Observers obs_;
};

} // namespace graphite
