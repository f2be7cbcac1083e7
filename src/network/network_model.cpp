#include "network/network_model.h"

#include <cmath>

#include "common/config.h"
#include "common/log.h"
#include "network/global_progress.h"
#include "snapshot/snapshot.h"

namespace graphite
{

// ---------------------------------------------------------------- MeshShape

MeshShape::MeshShape(tile_id_t tiles)
{
    if (tiles <= 0)
        fatal("mesh shape: tile count must be positive (got {})", tiles);
    width_ = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(tiles))));
    height_ = (static_cast<int>(tiles) + width_ - 1) / width_;
}

int
MeshShape::hops(tile_id_t src, tile_id_t dst) const
{
    return std::abs(xOf(src) - xOf(dst)) + std::abs(yOf(src) - yOf(dst));
}

// ------------------------------------------------------------ NetworkModel

NetworkModel::NetworkModel(tile_id_t total_tiles)
    : stripes_(static_cast<size_t>(total_tiles))
{
}

stat_t
NetworkModel::sum(atomic_stat_t Stripe::*field) const
{
    stat_t total = 0;
    for (const Stripe& s : stripes_)
        total += (s.*field).load(std::memory_order_relaxed);
    return total;
}

// ------------------------------------------------------- MagicNetworkModel

NetBreakdown
MagicNetworkModel::computeLatency(tile_id_t src, tile_id_t, size_t bytes,
                                  cycle_t)
{
    account(src, bytes, 0, 0);
    return NetBreakdown{};
}

// ---------------------------------------------------- EMeshHopNetworkModel

EMeshHopNetworkModel::EMeshHopNetworkModel(tile_id_t total_tiles,
                                           cycle_t hop_latency,
                                           size_t link_bandwidth_bytes)
    : NetworkModel(total_tiles),
      shape_(total_tiles),
      hopLatency_(hop_latency),
      linkBandwidth_(link_bandwidth_bytes)
{
    if (link_bandwidth_bytes == 0)
        fatal("emesh: link bandwidth must be positive");
}

cycle_t
EMeshHopNetworkModel::serializationCycles(size_t bytes) const
{
    return (bytes + linkBandwidth_ - 1) / linkBandwidth_;
}

NetBreakdown
EMeshHopNetworkModel::computeLatency(tile_id_t src, tile_id_t dst,
                                     size_t bytes, cycle_t)
{
    NetBreakdown bd;
    bd.hops = shape_.hops(src, dst);
    bd.hop = static_cast<cycle_t>(bd.hops) * hopLatency_;
    bd.serialization = serializationCycles(bytes);
    bd.total = bd.hop + bd.serialization;
    account(src, bytes, bd.total, bd.hops);
    return bd;
}

// --------------------------------------------- EMeshContentionNetworkModel

EMeshContentionNetworkModel::EMeshContentionNetworkModel(
    tile_id_t total_tiles, cycle_t hop_latency,
    size_t link_bandwidth_bytes, GlobalProgress* progress,
    cycle_t outlier_window, cycle_t max_backlog)
    : EMeshHopNetworkModel(total_tiles, hop_latency,
                           link_bandwidth_bytes),
      progress_(progress)
{
    links_.reserve(shape_.numLinks());
    for (int i = 0; i < shape_.numLinks(); ++i)
        links_.push_back(
            std::make_unique<QueueModel>(outlier_window, max_backlog));
}

NetBreakdown
EMeshContentionNetworkModel::computeLatency(tile_id_t src, tile_id_t dst,
                                            size_t bytes,
                                            cycle_t send_time)
{
    std::optional<cycle_t> now;
    if (progress_ != nullptr)
        now = progress_->observe(send_time);

    NetBreakdown bd;
    const cycle_t service = serializationCycles(bytes);
    bd.serialization = service;
    cycle_t latency = service; // injection serialization
    shape_.forEachLink(src, dst, [&](int link) {
        cycle_t arrival = send_time + latency;
        cycle_t queue_delay = links_[link]->enqueue(arrival, service, now);
        latency += hopLatency_ + queue_delay;
        bd.hop += hopLatency_;
        bd.queue += queue_delay;
    });
    bd.hops = shape_.hops(src, dst);
    bd.total = latency;
    account(src, bytes, latency, bd.hops);
    return bd;
}

stat_t
EMeshContentionNetworkModel::totalContentionDelay() const
{
    stat_t total = 0;
    for (const auto& link : links_)
        total += link->totalQueueDelay();
    return total;
}

// ----------------------------------------------------------- serialization

void
NetworkModel::serialize(snapshot::Archive& ar)
{
    stat_t sums[] = {packetsRouted(), bytesRouted(), totalLatency(),
                     totalHops()};
    for (stat_t& sum : sums)
        ar.u64(sum);
    if (ar.loading()) {
        // The saved sums land in stripe 0 and the other stripes restart
        // empty, so every sum reads what was saved.
        stripes_ = std::vector<Stripe>(stripes_.size());
        Stripe& first = stripes_.front();
        first.packets.store(sums[0], std::memory_order_relaxed);
        first.bytes.store(sums[1], std::memory_order_relaxed);
        first.latency.store(sums[2], std::memory_order_relaxed);
        first.hops.store(sums[3], std::memory_order_relaxed);
    }
}

void
EMeshContentionNetworkModel::serialize(snapshot::Archive& ar)
{
    NetworkModel::serialize(ar);
    ar.expect(links_.size(), "mesh link count");
    for (auto& link : links_)
        link->serialize(ar);
}

// ------------------------------------------------------------------ factory

std::unique_ptr<NetworkModel>
NetworkModel::create(const std::string& type, tile_id_t total_tiles,
                     const Config& cfg, GlobalProgress* progress)
{
    if (type == "magic")
        return std::make_unique<MagicNetworkModel>(total_tiles);

    cycle_t hop = cfg.getInt("network/hop_latency");
    size_t bw = cfg.getInt("network/link_bandwidth_bytes");
    if (type == "emesh_hop")
        return std::make_unique<EMeshHopNetworkModel>(total_tiles, hop,
                                                      bw);
    if (type == "emesh_contention")
        return std::make_unique<EMeshContentionNetworkModel>(
            total_tiles, hop, bw, progress,
            cfg.getInt("network/queue_outlier_window"),
            cfg.getInt("network/queue_max_backlog"));

    fatal("unknown network model type '{}'", type);
}

} // namespace graphite
