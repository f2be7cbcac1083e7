/**
 * @file
 * Functional backing store for the simulated (target) address space.
 *
 * Plays the role of DRAM contents: the authoritative copy of every line
 * not currently Modified in some cache. Sparse, page-granular, allocated
 * on demand so a 1024-tile simulation with large stack reservations does
 * not commit host memory it never touches.
 *
 * Thread-safety: the page table is sharded into NUM_BUCKETS
 * independently-locked maps keyed by page address, so concurrent
 * coherence transactions homed at different tiles do not serialize on
 * one map mutex. Byte access within existing pages is unlocked: a
 * line's backing bytes are only touched while its home shard is held
 * (MemorySystem's lock scheme), and distinct lines occupy disjoint byte
 * ranges.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Sparse byte-addressable target memory. */
class MainMemory
{
  public:
    static constexpr std::uint64_t PAGE_SIZE = 4096;
    /** Page-table shards (power of two; leaf locks, never nested). */
    static constexpr std::uint64_t NUM_BUCKETS = 64;

    MainMemory()
    {
        for (std::uint64_t i = 0; i < NUM_BUCKETS; ++i)
            buckets_[i].mutex.setInstance(static_cast<std::int64_t>(i));
    }

    /** Copy @p size bytes at @p addr into @p buf. Untouched pages read 0. */
    void read(addr_t addr, void* buf, size_t size) const;

    /** Copy @p size bytes from @p buf into memory at @p addr. */
    void write(addr_t addr, const void* buf, size_t size);

    /** Number of materialized pages (for tests / footprint stats). */
    size_t pagesAllocated() const;

    /** Checkpoint serialization (pages in sorted order). */
    void serialize(snapshot::Archive& ar);

  private:
    struct Page
    {
        std::uint8_t bytes[PAGE_SIZE] = {};
    };

    /** One independently-locked slice of the page table. */
    struct Bucket
    {
        mutable lockdep::OrderedMutex mutex{
            lockdep::LockClass::main_memory_bucket};
        std::unordered_map<addr_t, std::unique_ptr<Page>> pages;
    };

    Bucket& bucketFor(addr_t page_addr) const;
    Page* findPage(addr_t page_addr) const;
    Page& ensurePage(addr_t page_addr);

    mutable std::array<Bucket, NUM_BUCKETS> buckets_;
};

} // namespace graphite
