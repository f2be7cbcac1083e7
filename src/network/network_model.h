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
class Archive;
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
     * Call @p f with each directed link of the XY route src -> dst, in
     * route order. Links are identified as tile*4 + direction
     * (0=E,1=W,2=N,3=S), naming the link *leaving* that tile.
     */
    template <class F>
    void
    forEachLink(tile_id_t src, tile_id_t dst, F&& f) const
    {
        int x = xOf(src), y = yOf(src);
        const int dx = xOf(dst), dy = yOf(dst);
        // X first, then Y (dimension-ordered, deadlock-free).
        while (x != dx) {
            int dir = (dx > x) ? 0 /*E*/ : 1 /*W*/;
            f((y * width_ + x) * 4 + dir);
            x += (dx > x) ? 1 : -1;
        }
        while (y != dy) {
            int dir = (dy > y) ? 3 /*S*/ : 2 /*N*/;
            f((y * width_ + x) * 4 + dir);
            y += (dy > y) ? 1 : -1;
        }
    }

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
 * requesting thread under lax synchronization). The routed totals are
 * kept per source tile, so host threads modeling messages from
 * different tiles write different cache lines.
 */
class NetworkModel
{
  public:
    /** @param total_tiles number of endpoints (sizes the stripes). */
    explicit NetworkModel(tile_id_t total_tiles);
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

    /** @name Aggregate statistics (sums over the tile stripes) @{ */
    stat_t packetsRouted() const { return sum(&Stripe::packets); }
    stat_t bytesRouted() const { return sum(&Stripe::bytes); }
    stat_t totalLatency() const { return sum(&Stripe::latency); }
    stat_t totalHops() const { return sum(&Stripe::hops); }
    /** @} */

    /**
     * Checkpoint serialization. The base implementation covers the
     * aggregate counters (their sums; a restore puts them in stripe 0);
     * stateful models (emesh_contention link queues) extend it.
     */
    virtual void serialize(snapshot::Archive& ar);

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
    account(tile_id_t src, size_t bytes, cycle_t latency, int hops)
    {
        Stripe& s = stripes_[static_cast<size_t>(src)];
        s.packets.fetch_add(1, std::memory_order_relaxed);
        s.bytes.fetch_add(bytes, std::memory_order_relaxed);
        s.latency.fetch_add(latency, std::memory_order_relaxed);
        s.hops.fetch_add(hops, std::memory_order_relaxed);
    }

  private:
    /**
     * One source tile's routed totals. Other tiles' threads still add
     * to it (a reply leg's source is the home), so the adds stay
     * atomic; the stripes only keep unrelated tiles off one line.
     */
    struct alignas(64) Stripe
    {
        atomic_stat_t packets{0};
        atomic_stat_t bytes{0};
        atomic_stat_t latency{0};
        atomic_stat_t hops{0};
    };

    stat_t sum(atomic_stat_t Stripe::*field) const;

    std::vector<Stripe> stripes_;
};

/** Zero-latency model for simulator-internal traffic. */
class MagicNetworkModel : public NetworkModel
{
  public:
    using NetworkModel::NetworkModel;

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
 * and serialization delay along its XY route. The packet's send time is
 * observed into global progress once, and the estimate that observation
 * returns is the reference clock at every link of the route.
 */
class EMeshContentionNetworkModel : public EMeshHopNetworkModel
{
  public:
    EMeshContentionNetworkModel(tile_id_t total_tiles,
                                cycle_t hop_latency,
                                size_t link_bandwidth_bytes,
                                GlobalProgress* progress,
                                cycle_t outlier_window,
                                cycle_t max_backlog);

    NetBreakdown computeLatency(tile_id_t src, tile_id_t dst,
                                size_t bytes, cycle_t send_time) override;
    std::string name() const override { return "emesh_contention"; }

    /** Total queueing delay accumulated over all links (for ablations). */
    stat_t totalContentionDelay() const;

    void serialize(snapshot::Archive& ar) override;

  private:
    /** Observed once per packet; its result is every link's clock. */
    GlobalProgress* progress_;
    std::vector<std::unique_ptr<QueueModel>> links_;
};

} // namespace graphite
