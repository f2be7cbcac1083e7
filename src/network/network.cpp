#include "network/network.h"

#include "check/fault.h"
#include "common/config.h"
#include "common/log.h"
#include "obs/accuracy/accuracy.h"
#include "obs/span/span.h"
#include "snapshot/snapshot.h"
#include "obs/span/span_sink.h"
#include "obs/trace_event.h"

namespace graphite
{

namespace
{

/** Map a packet type onto its accuracy-observatory violation point. */
obs::accuracy::ViolationPoint
recvPoint(PacketType type)
{
    switch (type) {
      case PacketType::App: return obs::accuracy::ViolationPoint::NetApp;
      case PacketType::Memory:
        return obs::accuracy::ViolationPoint::NetMemory;
      default: return obs::accuracy::ViolationPoint::NetSystem;
    }
}

} // namespace

// ------------------------------------------------------------ NetworkFabric

NetworkFabric::NetworkFabric(const ClusterTopology& topo,
                             const Config& cfg)
    : topo_(topo),
      progress_(std::max<size_t>(
          cfg.getInt("network/queue_model_window"),
          static_cast<size_t>(topo.totalTiles()))),
      msgMatrix_(static_cast<size_t>(topo.totalTiles()) * topo.totalTiles()),
      byteMatrix_(msgMatrix_.size())
{
    auto make = [&](const char* key) {
        return NetworkModel::create(cfg.getString(key), topo_.totalTiles(),
                                    cfg, &progress_);
    };
    models_[static_cast<int>(PacketType::App)] = make("network/app_model");
    models_[static_cast<int>(PacketType::Memory)] =
        make("network/memory_model");
    models_[static_cast<int>(PacketType::System)] =
        make("network/system_model");
}

NetBreakdown
NetworkFabric::model(PacketType type, tile_id_t src, tile_id_t dst,
                     size_t bytes, cycle_t send_time)
{
    if (type != PacketType::System) {
        size_t idx = static_cast<size_t>(src) * topo_.totalTiles() + dst;
        msgMatrix_[idx].fetch_add(1, std::memory_order_relaxed);
        byteMatrix_[idx].fetch_add(bytes, std::memory_order_relaxed);
    }
    return modelFor(type).computeLatency(src, dst, bytes, send_time);
}

NetworkModel&
NetworkFabric::modelFor(PacketType type)
{
    int idx = static_cast<int>(type);
    GRAPHITE_ASSERT(idx >= 0 && idx < NUM_PACKET_TYPES);
    return *models_[idx];
}

const NetworkModel&
NetworkFabric::modelFor(PacketType type) const
{
    int idx = static_cast<int>(type);
    GRAPHITE_ASSERT(idx >= 0 && idx < NUM_PACKET_TYPES);
    return *models_[idx];
}

stat_t
NetworkFabric::pairMessages(tile_id_t src, tile_id_t dst) const
{
    return msgMatrix_[static_cast<size_t>(src) * topo_.totalTiles() +
                      dst]
        .load();
}

stat_t
NetworkFabric::pairBytes(tile_id_t src, tile_id_t dst) const
{
    return byteMatrix_[static_cast<size_t>(src) * topo_.totalTiles() +
                       dst]
        .load();
}

void
NetworkFabric::serialize(snapshot::Archive& ar)
{
    progress_.serialize(ar);
    for (const auto& model : models_) {
        ar.expect(model->name(), "network model");
        model->serialize(ar);
    }
    ar.expect(msgMatrix_.size(), "traffic-matrix size");
    for (auto& v : msgMatrix_)
        ar.u64(v);
    for (auto& v : byteMatrix_)
        ar.u64(v);
}

// ------------------------------------------------------------------ Network

Network::Network(tile_id_t tile, NetworkFabric& fabric,
                 Transport& transport, const obs::Observers& observers)
    : tile_(tile),
      endpoint_(fabric.topology().tileEndpoint(tile)),
      fabric_(fabric),
      transport_(transport),
      obs_(observers)
{
}

void
Network::send(PacketType type, tile_id_t dst,
              std::vector<std::uint8_t> payload, cycle_t send_time)
{
    NetPacket pkt;
    pkt.type = type;
    pkt.sender = tile_;
    pkt.receiver = dst;
    pkt.payload = std::move(payload);
    size_t bytes = pkt.modeledBytes();
    NetBreakdown bd = fabric_.model(type, tile_, dst, bytes, send_time);
    cycle_t latency = bd.total;
    pkt.time = send_time + latency;
    if (obs_.accuracy)
        obs_.accuracy->onNetLatency(static_cast<int>(type), latency);
    // Planted causality violation: stamp the packet with its *send*
    // time, as if the network delivered it with zero modeled latency.
    // Timing-only — payload and delivery order are untouched — so the
    // differential fingerprint stays clean while the accuracy
    // observatory must flag the receiver-past timestamp.
    if (obs_.faults &&
        obs_.faults->shouldFire(check::FaultMode::LateDelivery,
                                static_cast<addr_t>(dst)))
        pkt.time = send_time;
    if (type == PacketType::App) {
        fabric_.noteAppSend();
        if (obs_.spans) {
            // The arrival time is fully determined at send under lax
            // delivery, so the whole span — including the receive-side
            // flow step — is emitted here; nothing dangles if the
            // receiver never drains it.
            obs::SpanBuilder span(*obs_.spans, obs::SpanKind::AppMsg,
                                  tile_, dst, send_time);
            span.add(obs::SpanStage::ReqSer, send_time,
                     bd.serialization);
            span.add(obs::SpanStage::ReqQueue,
                     send_time + bd.serialization, bd.queue);
            span.add(obs::SpanStage::ReqHop,
                     send_time + bd.serialization + bd.queue, bd.hop);
            span.finish(send_time + latency);
            pkt.traceId = span.traceId();
            pkt.spanId = span.spanId();
        }
    }
    if (obs_.trace)
        obs_.trace->complete(static_cast<std::uint32_t>(tile_), "net.send",
                             send_time, latency, "bytes",
                             static_cast<std::int64_t>(bytes));
    transport_.send(fabric_.topology().tileEndpoint(dst), std::move(pkt));
}

void
Network::delivered(const NetPacket& pkt)
{
    if (pkt.type == PacketType::App)
        fabric_.noteAppDelivered();
    // Causality check at the delivery demux: a packet whose timestamp is
    // already in the receiving tile's past is a lax-sync violation. Pure
    // observation — reads clocks, bumps observatory atomics, never
    // touches the packet (see DESIGN.md "Accuracy observatory").
    if (obs_.accuracy)
        obs_.accuracy->onDelivery(recvPoint(pkt.type), pkt.sender, tile_,
                                  pkt.time);
}

NetPacket
Network::recv(PacketType type)
{
    NetPacket pkt = transport_.recv(endpoint_, type);
    // Transport shut down: the empty packet lets blocked receivers
    // unwind at simulation teardown.
    if (pkt.sender == INVALID_TILE_ID)
        return pkt;
    delivered(pkt);
    if (obs_.trace)
        obs_.trace->instant(static_cast<std::uint32_t>(tile_), "net.recv",
                            pkt.time);
    return pkt;
}

bool
Network::tryRecv(PacketType type, NetPacket& out)
{
    if (!transport_.tryRecv(endpoint_, type, out))
        return false;
    delivered(out);
    return true;
}

} // namespace graphite
