/**
 * @file
 * Physical transport layer (paper §3.3.1).
 *
 * "The transport layer provides an abstraction for generic communication
 * between tiles. All inter-core communication as well as inter-process
 * communication required for distributed support goes through this
 * communication channel."
 *
 * The whole simulation runs in one host process, so the transport moves
 * NetPackets by value between in-memory mailboxes: one FIFO per
 * (endpoint, PacketType). A receiver pops the FIFO of the type it waits
 * for; packets of other types wait in their own FIFOs. Delivery is
 * immediate; the *modeled* latency is stamped on the packet by the
 * network models. The host model derives the cluster's intra/inter-
 * process split from NetworkFabric's tile-pair traffic matrix (see
 * DESIGN.md, substitution 2).
 */

#pragma once

#include <atomic>
#include <deque>
#include <vector>

#include "common/lockdep.h"
#include "transport/cluster_topology.h"
#include "transport/net_packet.h"

namespace graphite
{

/**
 * Per-(endpoint, type) mailboxes guarded by a mutex + condition
 * variable. Thread-safe: any thread may send to any endpoint; one
 * logical owner receives per mailbox (multiple receivers are permitted
 * but unordered among them).
 */
class Transport
{
  public:
    explicit Transport(const ClusterTopology& topo);

    /** Append @p pkt to @p dst's FIFO for pkt.type. Never blocks. */
    void send(endpoint_id_t dst, NetPacket pkt);

    /**
     * Block until a @p type packet arrives at @p dst and return it.
     * After shutdown() an empty mailbox yields a packet whose sender
     * is INVALID_TILE_ID.
     */
    NetPacket recv(endpoint_id_t dst, PacketType type);

    /**
     * Non-blocking receive.
     * @return true and fill @p out when a @p type packet was pending.
     */
    bool tryRecv(endpoint_id_t dst, PacketType type, NetPacket& out);

    /**
     * Packets pending across every mailbox — the instantaneous
     * transport queue depth (sampled as the transport.queue_depth
     * gauge). A snapshot: mailboxes are counted one at a time.
     */
    size_t totalPending() const;

    /** Wake all blocked receivers (see recv()). Used at teardown. */
    void shutdown();

  private:
    struct Mailbox
    {
        mutable lockdep::OrderedMutex mutex{
            lockdep::LockClass::transport_mailbox};
        lockdep::CondVar cv;
        std::deque<NetPacket> queue;
    };

    Mailbox& box(endpoint_id_t ep, PacketType type);

    /** Endpoint-major: mailbox ep * NUM_PACKET_TYPES + type. */
    std::vector<Mailbox> boxes_;
    std::atomic<bool> shutdown_{false};
};

} // namespace graphite
