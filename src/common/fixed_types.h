/**
 * @file
 * Fundamental integer types and identifiers used across the simulator.
 *
 * These mirror the vocabulary of the Graphite paper: a *target* tile is a
 * simulated core + network switch + memory-system node; a *host* process is
 * one of the (simulated) cluster processes the tiles are striped across.
 */

#pragma once

#include <cstdint>
#include <limits>

namespace graphite
{

/** Identifier of a target tile (0 .. num_tiles-1). */
using tile_id_t = std::int32_t;

/** Identifier of an application thread. */
using thread_id_t = std::int32_t;

/** Identifier of a simulated host process. */
using proc_id_t = std::int32_t;

/** Simulated time in target clock cycles. */
using cycle_t = std::uint64_t;

/** Address in the simulated (target) address space. */
using addr_t = std::uint64_t;

/** Sentinel for "no tile". */
inline constexpr tile_id_t INVALID_TILE_ID = -1;

/** Sentinel for "no thread". */
inline constexpr thread_id_t INVALID_THREAD_ID = -1;

/** Sentinel cycle value meaning "unset". */
inline constexpr cycle_t INVALID_CYCLE =
    std::numeric_limits<cycle_t>::max();

/** Byte-size literals. */
inline constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}
inline constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}
inline constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

} // namespace graphite
