#include "common/lockdep.h"
#include "transport/transport.h"

#include "common/log.h"

namespace graphite
{

Transport::Transport(const ClusterTopology& topo)
    : boxes_(static_cast<size_t>(topo.numEndpoints()) * NUM_PACKET_TYPES)
{
    for (size_t i = 0; i < boxes_.size(); ++i)
        boxes_[i].mutex.setInstance(static_cast<std::int64_t>(i));
}

Transport::Mailbox&
Transport::box(endpoint_id_t ep, PacketType type)
{
    int t = static_cast<int>(type);
    GRAPHITE_ASSERT(t >= 0 && t < NUM_PACKET_TYPES);
    size_t i = static_cast<size_t>(ep) * NUM_PACKET_TYPES + t;
    GRAPHITE_ASSERT(ep >= 0 && i < boxes_.size());
    return boxes_[i];
}

void
Transport::send(endpoint_id_t dst, NetPacket pkt)
{
    Mailbox& b = box(dst, pkt.type);
    {
        lockdep::Guard lock(b.mutex);
        b.queue.push_back(std::move(pkt));
    }
    b.cv.notify_one();
}

NetPacket
Transport::recv(endpoint_id_t dst, PacketType type)
{
    Mailbox& b = box(dst, type);
    lockdep::UniqueLock lock(b.mutex);
    b.cv.wait(lock, [&] { return !b.queue.empty() || shutdown_.load(); });
    if (b.queue.empty())
        return NetPacket{}; // shutdown drain: sender INVALID_TILE_ID
    NetPacket out = std::move(b.queue.front());
    b.queue.pop_front();
    return out;
}

bool
Transport::tryRecv(endpoint_id_t dst, PacketType type, NetPacket& out)
{
    Mailbox& b = box(dst, type);
    lockdep::Guard lock(b.mutex);
    if (b.queue.empty())
        return false;
    out = std::move(b.queue.front());
    b.queue.pop_front();
    return true;
}

size_t
Transport::totalPending() const
{
    size_t total = 0;
    for (const Mailbox& b : boxes_) {
        lockdep::Guard lock(b.mutex);
        total += b.queue.size();
    }
    return total;
}

void
Transport::shutdown()
{
    shutdown_.store(true);
    for (Mailbox& b : boxes_) {
        // Take the lock so no receiver can miss the flag between its
        // predicate check and wait.
        lockdep::Guard lock(b.mutex);
        b.cv.notify_all();
    }
}

} // namespace graphite
