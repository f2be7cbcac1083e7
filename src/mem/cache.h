/**
 * @file
 * Set-associative cache with functional data storage.
 *
 * Graphite's memory system deliberately fuses function and modeling
 * (paper §3.2): "Graphite addresses this problem by modifying the software
 * data structures used for ensuring functional correctness to operate
 * similar to the memory architecture of the target machine... this
 * strategy automatically helps verify the correctness of complex
 * hierarchies and protocols". Accordingly each cache line here holds the
 * actual bytes of the simulated address space; a coherence bug corrupts
 * application results, making the protocol self-verifying.
 *
 * Thread-safety: all mutation happens under the owning tile's lock
 * (MemorySystem's two-level locking scheme; see DESIGN.md
 * §"Coherence-transaction serialization"); Cache itself is not
 * internally locked. The statistic counters are relaxed atomics, added
 * to under that lock (addSerialized), so that gauges and the interval
 * metrics sampler can read them while other threads mutate.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Coherence line states (MSI, plus Exclusive when MESI is enabled). */
enum class CacheState : std::uint8_t
{
    Invalid = 0,
    Shared,
    /** Sole clean copy (MESI only); writes upgrade silently. */
    Exclusive,
    Modified
};

/** Why a line left the cache — input to the miss classifier. */
enum class EvictReason : std::uint8_t
{
    None = 0,    ///< line was never evicted
    Replacement, ///< capacity/conflict victim
    Invalidation,///< coherence invalidation by a remote writer
    Downgrade    ///< lost write permission but stayed Shared
};

/** One cache line: tag, state, and functional data. */
struct CacheLine
{
    addr_t lineAddr = 0; ///< address of first byte, line-aligned
    CacheState state = CacheState::Invalid;
    std::uint64_t lruStamp = 0;
    std::vector<std::uint8_t> data;

    bool valid() const { return state != CacheState::Invalid; }
};

/** Result of an eviction: the victim line's identity and contents. */
struct Eviction
{
    addr_t lineAddr = 0;
    bool dirty = false;
    std::vector<std::uint8_t> data;
};

/** Outcome of a side-effect-free permission probe (see Cache::probe). */
enum class CacheProbe : std::uint8_t
{
    Miss,        ///< line absent: a full coherence transaction is needed
    Hit,         ///< present with sufficient permission: no transaction
    NeedsUpgrade ///< present Shared, write wanted: upgrade transaction
};

/**
 * A single cache level (used for L1I, L1D and L2), LRU replacement,
 * configurable size / associativity / line size.
 */
class Cache
{
  public:
    /**
     * @param name          stats label ("l1_dcache", ...)
     * @param size_bytes    total capacity
     * @param associativity ways per set
     * @param line_size     bytes per line (power of two)
     */
    Cache(std::string name, std::uint64_t size_bytes, int associativity,
          std::uint64_t line_size);

    /** Line-align an address. */
    addr_t lineAlign(addr_t a) const { return a & ~(lineSize_ - 1); }

    /** @return the line holding @p addr, or nullptr on miss. */
    CacheLine* find(addr_t addr);
    const CacheLine* find(addr_t addr) const;

    /**
     * Probe for statistics: records a hit or miss.
     * @return the line on hit, nullptr on miss.
     */
    CacheLine* access(addr_t addr, bool is_write);

    /**
     * Permission probe with no side effects (no stats, no LRU touch, no
     * MESI silent upgrade): distinguishes "hit with sufficient state"
     * from "needs a coherence transaction". Exclusive counts as
     * sufficient for writes (the silent-upgrade privilege).
     */
    CacheProbe probe(addr_t addr, bool is_write) const;

    /**
     * @return true when @p line (possibly nullptr) grants the access
     * without a coherence transaction — any valid state for reads,
     * Modified or Exclusive for writes.
     */
    static bool sufficient(const CacheLine* line, bool is_write);

    /**
     * The line insert(@p line_addr, ...) would evict right now, or
     * nullopt when a free way exists (or the line is already present).
     * Used to pre-compute the victim's home shard before a transaction
     * acquires its locks; must mirror insert()'s victim choice exactly.
     */
    std::optional<addr_t> peekVictim(addr_t line_addr) const;

    /**
     * Insert a line (must not already be present).
     * @param line_addr line-aligned address
     * @param state     initial MSI state
     * @param data      exactly lineSize() bytes
     * @return the replaced victim, if one was valid.
     */
    std::optional<Eviction> insert(addr_t line_addr, CacheState state,
                                   std::vector<std::uint8_t> data);

    /**
     * Remove the line (coherence invalidation).
     * @return the line's data and dirtiness if it was present.
     */
    std::optional<Eviction> invalidate(addr_t line_addr);

    /**
     * Downgrade Modified/Exclusive -> Shared.
     * @return the line's data if it held ownership.
     */
    std::optional<std::vector<std::uint8_t>> downgrade(addr_t line_addr);

    /** @name Geometry @{ */
    std::uint64_t lineSize() const { return lineSize_; }
    std::uint64_t numSets() const { return numSets_; }
    int associativity() const { return assoc_; }
    std::uint64_t capacity() const { return capacity_; }
    /** @} */

    /** @name Statistics (readable concurrently with mutation) @{ */
    const std::string& name() const { return name_; }
    stat_t accesses() const
    {
        return accesses_.load(std::memory_order_relaxed);
    }
    stat_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    stat_t hits() const { return accesses() - misses(); }
    stat_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    stat_t invalidations() const
    {
        return invalidations_.load(std::memory_order_relaxed);
    }
    double missRate() const;
    /** @} */

    /** Enumerate valid lines (for invariant checks in tests). */
    std::vector<const CacheLine*> validLines() const;

    /**
     * Checkpoint serialization (caller holds the tile lock).
     * @throws snapshot::SnapshotError on geometry mismatch.
     */
    void serialize(snapshot::Archive& ar);

  private:
    std::uint64_t setIndex(addr_t line_addr) const;
    CacheLine* lookup(addr_t line_addr);
    const CacheLine* lookup(addr_t line_addr) const;

    std::string name_;
    std::uint64_t capacity_;
    int assoc_;
    std::uint64_t lineSize_;
    std::uint64_t numSets_;
    std::vector<CacheLine> lines_; ///< numSets_ * assoc_, set-major
    std::uint64_t lruCounter_ = 0;

    atomic_stat_t accesses_{0};
    atomic_stat_t misses_{0};
    atomic_stat_t evictions_{0};
    atomic_stat_t invalidations_{0};
};

} // namespace graphite
