/**
 * @file
 * Network packet definition.
 *
 * The network component (paper §3.3) multiplexes several logical networks
 * over the physical transport; the packet type selects which network model
 * handles a packet. "System messages unrelated to application behavior use
 * a separate network model than application messages, and therefore have
 * no impact on simulation results."
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fixed_types.h"

namespace graphite
{

/** Logical network a packet travels on. */
enum class PacketType : std::uint8_t
{
    /** User-level message-passing API traffic. */
    App = 0,
    /** Cache-coherence / DRAM traffic generated by the memory system. */
    Memory,
    /** Simulator-internal traffic (syscalls, thread management). */
    System,

    NumTypes
};

/** Number of distinct packet types. */
inline constexpr int NUM_PACKET_TYPES =
    static_cast<int>(PacketType::NumTypes);

/** A message between two tiles, timestamped in simulated cycles. */
struct NetPacket
{
    PacketType type = PacketType::App;
    tile_id_t sender = INVALID_TILE_ID;
    tile_id_t receiver = INVALID_TILE_ID;
    /**
     * Simulated send time on departure; on delivery the network model has
     * added its modeled latency, making this the arrival time.
     */
    cycle_t time = 0;
    /**
     * Causal-tracing context (obs/span): the root trace and the span
     * that emitted this packet, 0 when tracing is off. Carried with the
     * packet so a receiver can attribute work to the sender's trace;
     * purely observational — excluded from the *modeled* size so
     * arming spans never changes timing.
     */
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::vector<std::uint8_t> payload;

    /** Total modeled size: payload plus a fixed header. */
    size_t modeledBytes() const { return payload.size() + HEADER_BYTES; }

    /** Modeled packet header size (type + route + timestamp). */
    static constexpr size_t HEADER_BYTES = 16;
};

} // namespace graphite
