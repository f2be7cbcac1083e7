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
#include <memory>
#include <optional>
#include <span>
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

/**
 * One cache line: tag, state, write mask and functional data. An L2
 * holds one per way, so its size is a large share of a simulation's
 * memory; the static_assert below keeps it from growing.
 */
struct CacheLine
{
    /** Bytes per writtenWords bit; a line has at most 64 such words. */
    static constexpr std::uint64_t WORD_BYTES = 4;

    addr_t lineAddr = 0; ///< address of first byte, line-aligned
    std::uint64_t lruStamp = 0;
    /**
     * One bit per word written since this copy gained write permission
     * (bit i covers bytes [4i, 4i+4)), for the miss classifier: the
     * memory system folds it into the home's word versions when the
     * copy loses that permission. Zero in a line that is neither
     * Modified nor Exclusive.
     */
    std::uint64_t writtenWords = 0;
    /**
     * The line's bytes, Cache::lineSize() of them. Allocated on the
     * way's first fill and kept across refills; stale when invalid.
     */
    std::unique_ptr<std::uint8_t[]> data;
    CacheState state = CacheState::Invalid;

    bool valid() const { return state != CacheState::Invalid; }
};
static_assert(sizeof(CacheLine) <= 48, "CacheLine outgrew 48 bytes");

/**
 * What a copy gave up when it left the cache or lost its ownership:
 * its identity, whether it was dirty and its unfolded write mask.
 */
struct Eviction
{
    addr_t lineAddr = 0;
    bool dirty = false;
    std::uint64_t writtenWords = 0;
    /**
     * The bytes of a dirty victim of insert(), the only ones a caller
     * writes back; empty otherwise (read a line before invalidating or
     * downgrading it when its bytes are needed).
     */
    std::vector<std::uint8_t> data;
};

/** What a tile's own copy of a line can do for an access. */
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
    CacheLine* access(addr_t addr, bool is_write)
    {
        return recordAccess(find(addr), is_write);
    }

    /**
     * access() on a line the caller already found: counts the access,
     * and a miss when @p line is null or a write finds it Shared; stamps
     * a present line's LRU age; and upgrades an Exclusive line that is
     * written to Modified (the MESI silent upgrade).
     * @param line find()'s result for the accessed address
     * @return @p line when it grants the access, nullptr otherwise.
     */
    CacheLine* recordAccess(CacheLine* line, bool is_write);

    /**
     * @return true when @p line (possibly nullptr) grants the access
     * without a coherence transaction — any valid state for reads,
     * Modified or Exclusive for writes (Exclusive's silent upgrade).
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
     * Insert a line (must not already be present), copying @p data into
     * the way's buffer.
     * @param line_addr line-aligned address
     * @param state     initial MSI state
     * @param data      exactly lineSize() bytes
     * @return the replaced victim, if one was valid.
     */
    std::optional<Eviction> insert(addr_t line_addr, CacheState state,
                                   std::span<const std::uint8_t> data);

    /**
     * Remove the line (coherence invalidation).
     * @return the line's dirtiness and write mask if it was present.
     */
    std::optional<Eviction> invalidate(addr_t line_addr);

    /**
     * Downgrade Modified/Exclusive -> Shared, clearing the write mask.
     * @return the line's dirtiness and write mask if it held ownership.
     */
    std::optional<Eviction> downgrade(addr_t line_addr);

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
    /** @p line's eviction record; clears its write mask. */
    static Eviction release(CacheLine& line);

    std::uint64_t setIndex(addr_t line_addr) const;
    CacheLine* lookup(addr_t line_addr);
    const CacheLine* lookup(addr_t line_addr) const;

    std::string name_;
    std::uint64_t capacity_;
    int assoc_;
    std::uint64_t lineSize_;
    int lineShift_; ///< log2(lineSize_)
    std::uint64_t numSets_;
    std::vector<CacheLine> lines_; ///< numSets_ * assoc_, set-major
    std::uint64_t lruCounter_ = 0;

    atomic_stat_t accesses_{0};
    atomic_stat_t misses_{0};
    atomic_stat_t evictions_{0};
    atomic_stat_t invalidations_{0};
};

} // namespace graphite
