/**
 * @file
 * Swappable network timing models (paper §3.3).
 *
 * "The network models are responsible for routing packets and updating
 * time-stamps to account for network delay." All models share a common
 * interface so implementations are swappable via config. Three models are
 * provided, matching the paper:
 *
 *  - MagicNetworkModel:           zero-latency; used for system messages.
 *  - EMeshHopNetworkModel:        electrical 2D mesh, latency from hop
 *                                 count and serialization only.
 *  - EMeshContentionNetworkModel: mesh with per-link analytical contention
 *                                 (queue clocks + global progress), the
 *                                 "mesh model that tracks global network
 *                                 utilization to determine latency".
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"
#include "network/queue_model.h"

namespace graphite
{

class Config;
class GlobalProgress;

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/** 2D mesh geometry shared by the mesh models. */
class MeshShape
{
  public:
    /** Smallest near-square mesh holding @p tiles endpoints. */
    explicit MeshShape(tile_id_t tiles);

    int width() const { return width_; }
    int height() const { return height_; }

    int xOf(tile_id_t t) const { return static_cast<int>(t) % width_; }
    int yOf(tile_id_t t) const { return static_cast<int>(t) / width_; }

    /** Manhattan distance under XY dimension-ordered routing. */
    int hops(tile_id_t src, tile_id_t dst) const;

    /**
     * Enumerate the directed links of the XY route src -> dst.
     * Links are identified as tile*4 + direction (0=E,1=W,2=N,3=S),
     * naming the link *leaving* that tile.
     */
    std::vector<int> route(tile_id_t src, tile_id_t dst) const;

    /** Total number of directed link identifiers. */
    int numLinks() const { return width_ * height_ * 4; }

  private:
    int width_;
    int height_;
};

/**
 * Decomposition of one packet's modeled latency, consumed by the span
 * engine's latency attribution. Invariant:
 * total == hop + queue + serialization (exact accounting).
 */
struct NetBreakdown
{
    cycle_t total = 0;
    cycle_t hop = 0;           ///< per-hop propagation
    cycle_t queue = 0;         ///< link-contention queueing delay
    cycle_t serialization = 0; ///< bandwidth-limited injection
    int hops = 0;
};

/**
 * Abstract network timing model. Thread-safe: any application thread may
 * model a packet concurrently (memory traffic is modeled from the
 * requesting thread under lax synchronization).
 */
class NetworkModel
{
  public:
    virtual ~NetworkModel() = default;

    /**
     * Model the traversal of one packet.
     * @param src       sending tile
     * @param dst       receiving tile
     * @param bytes     modeled packet size (header + payload)
     * @param send_time simulated departure time
     * @return modeled latency in cycles (`total`) and its components
     */
    virtual NetBreakdown computeLatency(tile_id_t src, tile_id_t dst,
                                        size_t bytes,
                                        cycle_t send_time) = 0;

    /** Human-readable model name (matches the config value). */
    virtual std::string name() const = 0;

    /** @name Aggregate statistics @{ */
    stat_t packetsRouted() const { return packets_.load(); }
    stat_t bytesRouted() const { return bytes_.load(); }
    stat_t totalLatency() const { return latency_.load(); }
    stat_t totalHops() const { return hops_.load(); }
    /** @} */

    /**
     * @name Checkpoint serialization
     * The base implementation covers the aggregate counters;
     * stateful models (emesh_contention link queues) extend it.
     * @{
     */
    virtual void saveState(snapshot::SnapshotWriter& w) const;
    virtual void loadState(snapshot::SnapshotReader& r);
    /** @} */

    /**
     * Factory. @p type is one of "magic", "emesh_hop",
     * "emesh_contention". Fatal on unknown type (user error).
     * @p progress may be nullptr for non-contention models.
     */
    static std::unique_ptr<NetworkModel>
    create(const std::string& type, tile_id_t total_tiles,
           const Config& cfg, GlobalProgress* progress);

  protected:
    void
    account(size_t bytes, cycle_t latency, int hops)
    {
        packets_.fetch_add(1, std::memory_order_relaxed);
        bytes_.fetch_add(bytes, std::memory_order_relaxed);
        latency_.fetch_add(latency, std::memory_order_relaxed);
        hops_.fetch_add(hops, std::memory_order_relaxed);
    }

  private:
    std::atomic<stat_t> packets_{0};
    std::atomic<stat_t> bytes_{0};
    std::atomic<stat_t> latency_{0};
    std::atomic<stat_t> hops_{0};
};

/** Zero-latency model for simulator-internal traffic. */
class MagicNetworkModel : public NetworkModel
{
  public:
    NetBreakdown computeLatency(tile_id_t src, tile_id_t dst,
                                size_t bytes, cycle_t send_time) override;
    std::string name() const override { return "magic"; }
};

/** Mesh model: latency = hops * hop_latency + serialization. */
class EMeshHopNetworkModel : public NetworkModel
{
  public:
    EMeshHopNetworkModel(tile_id_t total_tiles, cycle_t hop_latency,
                         size_t link_bandwidth_bytes);

    NetBreakdown computeLatency(tile_id_t src, tile_id_t dst,
                                size_t bytes, cycle_t send_time) override;
    std::string name() const override { return "emesh_hop"; }

    const MeshShape& shape() const { return shape_; }

  protected:
    cycle_t serializationCycles(size_t bytes) const;

    MeshShape shape_;
    cycle_t hopLatency_;
    size_t linkBandwidth_;
};

/**
 * Mesh model with analytical per-link contention. Each directed link owns
 * a QueueModel; a packet accumulates hop latency, per-link queueing delay,
 * and serialization delay along its XY route.
 */
class EMeshContentionNetworkModel : public EMeshHopNetworkModel
{
  public:
    EMeshContentionNetworkModel(tile_id_t total_tiles,
                                cycle_t hop_latency,
                                size_t link_bandwidth_bytes,
                                GlobalProgress* progress,
                                cycle_t outlier_window = 100000,
                                cycle_t max_backlog = 10000);

    NetBreakdown computeLatency(tile_id_t src, tile_id_t dst,
                                size_t bytes, cycle_t send_time) override;
    std::string name() const override { return "emesh_contention"; }

    /** Total queueing delay accumulated over all links (for ablations). */
    stat_t totalContentionDelay() const;

    void saveState(snapshot::SnapshotWriter& w) const override;
    void loadState(snapshot::SnapshotReader& r) override;

  private:
    GlobalProgress* progress_;
    std::vector<std::unique_ptr<QueueModel>> links_;
};

} // namespace graphite
