/**
 * @file
 * Target address-space layout and the dynamic memory manager
 * (paper §3.2.1, Figure 3).
 *
 * "Graphite allocates a part of the address space for thread stacks ...
 * Additionally, Graphite implements a dynamic memory manager that
 * services requests for dynamic memory from the application by
 * intercepting the brk, mmap and munmap system calls and allocating (or
 * deallocating) memory from designated parts of the address space."
 *
 * Segments (Figure 3): code | static data | program heap (brk) |
 * dynamically allocated segments (mmap) | stack segment | kernel
 * reserved. The target malloc/free used by the instrumentation API is
 * built on top of brk with a first-fit free list.
 */

#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Fixed segment boundaries of the target address space. */
struct AddressSpaceLayout
{
    static constexpr addr_t CODE_BASE = 0x0000'1000;
    static constexpr addr_t CODE_END = 0x0100'0000;
    static constexpr addr_t STATIC_BASE = 0x0100'0000;
    static constexpr addr_t STATIC_END = 0x1000'0000;
    static constexpr addr_t HEAP_BASE = 0x1000'0000;
    static constexpr addr_t HEAP_END = 0x4000'0000;
    static constexpr addr_t MMAP_BASE = 0x4000'0000;
    static constexpr addr_t MMAP_END = 0x7000'0000;
    static constexpr addr_t STACK_BASE = 0x7000'0000;
    static constexpr addr_t STACK_END = 0xF000'0000;

    /** Segment containing an address, for diagnostics. */
    static const char* segmentName(addr_t a);
};

/**
 * Dynamic memory manager for the target address space. In the original
 * system these operations execute at the MCP so every process observes a
 * consistent view; here the same effect is achieved with internal
 * locking, and the syscall layer routes brk/mmap/munmap requests to it.
 */
class MemoryManager
{
  public:
    /**
     * @param total_tiles          tile count (stack partitioning)
     * @param stack_size_per_thread bytes of stack reserved per tile
     */
    MemoryManager(tile_id_t total_tiles,
                  std::uint64_t stack_size_per_thread);

    /** @name System-call-level interface (used by the syscall layer) @{ */

    /**
     * Emulated brk: set the program break to @p new_brk (0 queries).
     * @return the new break.
     */
    addr_t brk(addr_t new_brk);

    /** Emulated anonymous mmap: allocate @p length bytes, page aligned. */
    addr_t mmap(std::uint64_t length);

    /** Emulated munmap. Fatal on non-mapped range (user error). */
    void munmap(addr_t addr, std::uint64_t length);

    /** @} */

    /** @name Target heap allocator (malloc/free over brk) @{ */

    /**
     * Allocate @p size bytes (16-byte aligned) from the target heap.
     * Fatal when the heap segment is exhausted.
     */
    addr_t allocate(std::uint64_t size);

    /** Free a block returned by allocate(). Fatal on bad pointer. */
    void deallocate(addr_t addr);

    /** @} */

    /** Base address of tile @p tile's stack (grows upward here). */
    addr_t stackBase(tile_id_t tile) const;

    /** Stack bytes reserved per thread. */
    std::uint64_t stackSize() const { return stackSize_; }

    /** @name Statistics @{ */
    stat_t bytesAllocated() const;
    stat_t allocationCount() const;
    /** Bytes currently live (heap blocks + mmap regions). */
    stat_t liveBytes() const;
    /** Blocks + regions currently live. */
    stat_t liveBlockCount() const;
    /** @} */

    /** Checkpoint serialization. */
    void serialize(snapshot::Archive& ar);

  private:
    tile_id_t totalTiles_;
    std::uint64_t stackSize_;

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::address_space};
    addr_t heapBrk_ = AddressSpaceLayout::HEAP_BASE;
    addr_t mmapNext_ = AddressSpaceLayout::MMAP_BASE;
    /** Free list: start -> size, coalesced on free. */
    std::map<addr_t, std::uint64_t> freeList_;
    /** Live allocations: start -> size. */
    std::map<addr_t, std::uint64_t> liveBlocks_;
    /** Live mmap regions: start -> size. */
    std::map<addr_t, std::uint64_t> mmapRegions_;
    stat_t bytesAllocated_ = 0;
    stat_t allocCount_ = 0;
};

} // namespace graphite
