/**
 * @file
 * The memory system: functional + timing model of the target cache
 * hierarchy and directory-based coherence (paper §3.2). A protocol is a
 * table of rules, one per (directory state, request) pair, run by one
 * transaction engine: MSI (`caching_protocol/type = dir_msi`) or MESI
 * (`dir_mesi`), whose table differs in one cell — a sole reader is
 * granted the Exclusive state.
 *
 * Functional role: maintains the single target address space. Every
 * application memory reference is redirected here; data actually lives in
 * the modeled cache lines and the backing MainMemory, so "the correct
 * operation [of the coherence protocol] is essential for the completion
 * of simulation" — the protocol is self-verifying.
 *
 * Timing role: the latency of an access is assembled from L1/L2 access
 * costs, directory access cost, network-model latencies of every
 * coherence message (requests, invalidations, recalls, data replies), and
 * DRAM controller latency including lax-compatible queueing delay. Every
 * message leg goes through one function, which also fires the accuracy
 * hook and writes the leg's span marks.
 *
 * Concurrency: two-level locking mirrors the paper's per-home-tile MME
 * servers. A per-tile lock guards each TileMemory (L1/L2 arrays, local
 * stats, miss-classification state), so hits on lines the tile already
 * holds with sufficient permission complete without touching any shared
 * state. Even the statistics are partitioned: an access updates only
 * the TileMemory or Shard whose lock it holds, and the mem.* aggregates
 * sum those parts when read. Per-home-tile shard locks guard the
 * directory slice, the DRAM controller, and the word-version shard
 * homed at each tile; coherence transactions acquire the shards they
 * need in ascending id order, then every involved tile lock (requester
 * + current holders) in ascending id order. Plain accesses and atomics
 * run through the same transaction code. See DESIGN.md
 * §"Coherence-transaction serialization: the shard scheme" for the full
 * lock order and plan/validate/retry protocol.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"
#include "mem/address_space.h"
#include "mem/cache.h"
#include "mem/directory.h"
#include "mem/dram_controller.h"
#include "mem/main_memory.h"
#include "network/network.h"
#include "obs/accuracy/accuracy.h"
#include "obs/observers.h"

namespace graphite
{

class Config;

namespace obs
{
class SpanBuilder;
} // namespace obs

namespace snapshot
{
class SnapshotWriter;
class SnapshotReader;
} // namespace snapshot

/** Kind of memory reference. */
enum class MemAccessType : std::uint8_t
{
    Read = 0,
    Write,
    Fetch ///< instruction fetch (L1I path)
};

/** Classification of an L2 miss (paper §4.4 / Woo et al.). */
enum class MissClass : std::uint8_t
{
    None = 0,     ///< not a miss, or a fast-forwarded one
    Cold,         ///< first reference to the line by this tile
    Capacity,     ///< line lost to replacement
    TrueSharing,  ///< line lost to coherence; the accessed word changed
    FalseSharing, ///< line lost to coherence; only other words changed
    Upgrade       ///< write-permission miss (data was present in S)
};

/** Result of one application memory access. */
struct AccessResult
{
    cycle_t latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    MissClass missClass = MissClass::None;
};

/**
 * Per-tile memory statistics beyond the raw cache counters. Written
 * under the tile's lock (addSerialized) and readable at any time.
 */
struct TileMemoryStats
{
    atomic_stat_t totalAccesses{0};
    atomic_stat_t totalLatency{0};
    atomic_stat_t l2ColdMisses{0};
    atomic_stat_t l2CapacityMisses{0};
    atomic_stat_t l2TrueSharingMisses{0};
    atomic_stat_t l2FalseSharingMisses{0};
    atomic_stat_t l2UpgradeMisses{0};
    atomic_stat_t invalidationsSent{0};
    atomic_stat_t recalls{0};
    atomic_stat_t writebacks{0};
};

/** What a requester asks of a line's home directory. */
enum class CoherenceRequest : std::uint8_t
{
    Read = 0,
    Write,
    Upgrade ///< write to a line the requester holds Shared
};

/**
 * What the home does for one (directory state, request) pair, in this
 * order: invalidate the other sharers, recall the owner's copy (it stays
 * a sharer on a read), fetch the line from memory, then grant the
 * requester a cache state. A grant of Invalid marks a pair that cannot
 * occur.
 */
struct CoherenceRule
{
    bool invalidateSharers = false;
    bool recallOwner = false;
    bool fetchMemory = false;
    CacheState grant = CacheState::Invalid;
};

/** A protocol: one rule per [DirectoryState][CoherenceRequest]. */
using CoherenceProtocol = std::array<std::array<CoherenceRule, 3>, 3>;

/**
 * Simulation-wide memory system. One instance owns the per-tile cache
 * hierarchies, directory slices, DRAM controllers, the backing store,
 * and the target memory manager.
 */
class MemorySystem
{
  public:
    /** @p observers are the hooks accesses feed (all null = none). */
    MemorySystem(const ClusterTopology& topo, NetworkFabric& fabric,
                 const Config& cfg, const obs::Observers& observers = {});
    ~MemorySystem();

    MemorySystem(const MemorySystem&) = delete;
    MemorySystem& operator=(const MemorySystem&) = delete;

    /**
     * Perform one application memory access on behalf of @p tile.
     * For reads/fetches @p buf receives the data; for writes @p buf
     * supplies it. Accesses may span line boundaries (split internally).
     *
     * Safe to call concurrently from any number of host threads; an
     * access is atomic at cache-line granularity.
     *
     * @param start_time the requesting core's clock at issue
     * @return aggregate timing and classification of the access
     */
    AccessResult access(tile_id_t tile, MemAccessType type, addr_t addr,
                        void* buf, size_t size, cycle_t start_time);

    /** Result of an atomic read-modify-write. */
    struct AtomicResult
    {
        std::uint64_t oldValue = 0;
        cycle_t latency = 0;
    };

    /**
     * Atomically apply @p op to the @p size-byte (4 or 8) integer at
     * @p addr with write semantics (line acquired Modified). The entire
     * RMW is one coherence transaction. @p op runs with the requester's
     * tile lock held and must not re-enter the memory system.
     */
    AtomicResult atomicRmw(tile_id_t tile, addr_t addr, size_t size,
                           const std::function<std::uint64_t(
                               std::uint64_t)>& op,
                           cycle_t start_time);

    /**
     * @name Untimed coherent access (syscall emulation, loaders)
     * Reads observe the newest value regardless of where it is cached;
     * writes invalidate stale cached copies first. No latency is modeled
     * (kernel accesses are outside the target's timing domain).
     * @{
     */
    void readCoherent(addr_t addr, void* buf, size_t size);
    void writeCoherent(addr_t addr, const void* buf, size_t size);
    /** @} */

    /** @name Component access (stats, tests) @{ */
    Cache* l1i(tile_id_t tile);
    Cache* l1d(tile_id_t tile);
    Cache& l2(tile_id_t tile);
    Directory& directory(tile_id_t tile);
    DramController& dram(tile_id_t tile);
    const TileMemoryStats& stats(tile_id_t tile) const;
    MemoryManager& manager() { return *manager_; }
    MainMemory& backing() { return backing_; }
    /** @} */

    /**
     * Register the memory system's aggregates in @p reg: the
     * "mem.access_latency" histogram (one part per tile) and nine gauges
     * that sum the tiles or shards when read.
     *
     *  - mem.accesses_total, mem.l2_misses_total, mem.writebacks_total
     *    sum TileMemoryStats::totalAccesses, the L2s' Cache::misses()
     *    and TileMemoryStats::writebacks;
     *  - mem.tile_lock.{acquisitions,contended,wait_ns} measure the
     *    level-1 tile locks, which every access takes, and
     *    mem.shard_lock.* the per-home shard locks (fast-path hits never
     *    touch them). Both count with try-lock-then-block, so
     *    "contended" means a real lost race, not just an acquisition.
     *
     * Every part is written only under the lock of the tile or shard
     * that owns it, so no host thread writes another's counters.
     */
    void registerStats(StatsRegistry& reg) const;

    /**
     * Hold @p tile's level-1 lock for @p ns nanoseconds from another
     * host thread, so tests can plant tile-lock contention
     * deterministically regardless of host CPU count. Sets @p held
     * (when non-null) once the lock is acquired, so the test can issue
     * the colliding access strictly inside the hold window.
     */
    void holdTileLockForTest(tile_id_t tile, std::uint64_t ns,
                             std::atomic<bool>* held = nullptr);

    /** Same, for the shard lock homed at @p tile. */
    void holdShardLockForTest(tile_id_t tile, std::uint64_t ns,
                              std::atomic<bool>* held = nullptr);

    /** Home tile of the line containing @p addr. */
    tile_id_t homeTile(addr_t addr) const;

    /** Cache line size in bytes. */
    std::uint64_t lineSize() const { return lineSize_; }

    /**
     * Check every coherence invariant (single writer, inclusion,
     * directory/cache agreement, data agreement for shared lines).
     * Quiesces the whole system: acquires every shard and tile lock.
     * @return empty string when consistent, else a description of the
     * first violation. For tests.
     */
    std::string validateCoherence();

    /**
     * @name Checkpoint serialization (all application threads stopped)
     * Saves the full functional+timing state: caches with target data,
     * directory slices, DRAM controllers and queue clocks, word
     * versions, miss-classification tracking, the backing store, the
     * target memory manager, and all architectural counters. Host-side
     * lock-contention counters are wall-clock artifacts and restart at
     * zero.
     * @{
     */
    void saveState(snapshot::SnapshotWriter& w);
    void loadState(snapshot::SnapshotReader& r);
    /** @} */

    /**
     * @name Fast-forward (functional-only warmup)
     * While enabled, accesses stay functionally exact but bypass the
     * timing model entirely: a line's cached copies are demoted to
     * the backing store on its first warmup touch, and from then on
     * reads/writes are plain memory copies under the home shard lock
     * — no cache, directory-protocol, network or DRAM modeling, so
     * warmup runs at near-native memory speed. Detailed simulation
     * resumes with cold caches (the documented warmup caveat: use a
     * checkpoint of a detailed run for warm-cache studies). Toggled
     * at ROI markers or a cycle threshold.
     * @{
     */
    void setFastForward(bool on)
    {
        fastForward_.store(on, std::memory_order_relaxed);
    }
    bool fastForward() const
    {
        return fastForward_.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    /** State one tile lost a line with, for miss classification. */
    struct LostLine
    {
        EvictReason reason = EvictReason::None;
        /** Per-word version snapshot at loss time. */
        std::vector<std::uint32_t> versions;
    };

    /**
     * A tile or shard lock with its contention counters, which only the
     * holder writes (addSerialized).
     */
    struct CountedMutex : lockdep::OrderedMutex
    {
        using lockdep::OrderedMutex::OrderedMutex;
        atomic_stat_t acquisitions{0};
        atomic_stat_t contended{0};
        atomic_stat_t waitNs{0};
    };

    /**
     * Everything guarded by one tile's lock. Cache-line aligned: every
     * access on this tile writes it, and no other tile's should share
     * its lines.
     */
    struct alignas(64) TileMemory
    {
        /** Level-1 lock: caches, stats, and classification state. */
        CountedMutex mutex{lockdep::LockClass::mem_tile};
        std::unique_ptr<Cache> l1i;
        std::unique_ptr<Cache> l1d;
        std::unique_ptr<Cache> l2;
        TileMemoryStats stats;
        /**
         * This tile's part of the mem.access_latency histogram:
         * application accesses only; atomics stay out of it.
         */
        HistogramStat accessLatency;
        /** Lines ever present in this tile's L2 (cold-miss tracking). */
        std::unordered_set<addr_t> everCached;
        /** How lines were lost, for coherence-miss classification. */
        std::unordered_map<addr_t, LostLine> lostLines;
    };

    /**
     * Everything homed at one tile, guarded by the level-2 shard lock:
     * the directory slice and the memory controller — the paper's MME
     * server state. Holding a line's home shard freezes the line's
     * holder set (every holder-set mutation goes through the home).
     * Cache-line aligned, like TileMemory.
     */
    struct alignas(64) Shard
    {
        CountedMutex mutex{lockdep::LockClass::mem_shard};
        std::unique_ptr<Directory> directory;
        std::unique_ptr<DramController> dram;
        /** Leaf lock for the word-version shard (classification). */
        lockdep::OrderedMutex versionMutex{lockdep::LockClass::mem_version};
        /** Per-line, per-word write version counters, lines homed here. */
        std::unordered_map<addr_t, std::vector<std::uint32_t>>
            wordVersions;
    };

    static constexpr size_t CTRL_BYTES = 8;
    static constexpr std::uint32_t WORD_BYTES = 4;

    addr_t lineAlign(addr_t a) const { return a & ~(lineSize_ - 1); }

    /**
     * Acquire a tile or shard lock, recording its contention statistics
     * (try-lock first; only a lost race counts as contended).
     */
    static lockdep::UniqueLock lockCounted(CountedMutex& m,
                                           const char* file =
                                               __builtin_FILE(),
                                           int line = __builtin_LINE());

    /**
     * Model one coherence message leg and return its network latency.
     * @p point names the leg: the accuracy observatory checks its
     * modeled arrival, and it picks the marks written to @p sb (when
     * non-null). Requests and writebacks mark the request stages,
     * replies the reply stages, and recall legs one Recall stage.
     * Invalidation legs mark nothing: invalidateSharers() charges their
     * overlapped round trips as one Invalidation stage.
     */
    cycle_t leg(obs::accuracy::ViolationPoint point, tile_id_t src,
                tile_id_t dst, size_t payload_bytes, cycle_t send_time,
                obs::SpanBuilder* sb);

    /**
     * One line access at @p home's memory controller, entering its
     * queue at @p at; the DramQueue and DramService marks on @p sb start
     * at @p mark_at. Returns its latency; zero in fast-forward.
     */
    cycle_t dramAccess(tile_id_t home, cycle_t at, obs::SpanBuilder* sb,
                       cycle_t mark_at);

    /**
     * Invalidate the copies of @p line_addr held by @p sharers, other
     * than @p requester's, counting them in @p requester's stats. The
     * round trips overlap, so the result is the longest, marked on @p sb
     * as one Invalidation stage at @p at. When @p droppable, the
     * drop_invalidation fault may skip a sharer.
     */
    cycle_t invalidateSharers(tile_id_t requester, addr_t line_addr,
                              const std::vector<tile_id_t>& sharers,
                              bool droppable, cycle_t at,
                              obs::SpanBuilder* sb);

    /**
     * One line-contained request on the transaction path. Plain accesses
     * and atomics differ only in these fields; the fast path, the
     * plan/lock/revalidate loop, the commit tail and the fast-forward
     * body all read them.
     */
    struct LineRequest
    {
        tile_id_t tile = INVALID_TILE_ID;
        addr_t addr = 0;
        size_t size = 0;
        bool isWrite = false;
        /**
         * L1 charged for the access (stats, latency, fill). Null for
         * atomics, which bypass the L1: they only write through to an
         * L1d copy that is already present.
         */
        Cache* l1 = nullptr;
        /** Read destination or write source (plain accesses). */
        void* buf = nullptr;
        /** Atomic read-modify-write; null for plain accesses. */
        const std::function<std::uint64_t(std::uint64_t)>* rmw = nullptr;
        /** Atomics: the value before rmw. */
        std::uint64_t oldValue = 0;
    };

    /**
     * Run one line request: the local fast path, else the full coherence
     * transaction (plan under the tile lock, lock shards then holders,
     * revalidate, commit).
     */
    AccessResult accessLine(LineRequest& rq, cycle_t start_time);

    /**
     * Fast-forward line request: demote the line to the backing store
     * on first touch, then serve the bytes straight from backing with
     * zero modeled latency (no cache, directory-protocol, network or
     * DRAM work).
     */
    AccessResult accessLineFastForward(LineRequest& rq);

    /**
     * Invalidate every cached copy of @p line_addr (merging a Modified
     * owner's data into backing) and reset its directory entry to
     * Uncached. Caller holds the line's home shard.
     */
    void demoteLineLocked(DirectoryEntry& entry, addr_t line_addr);

    /**
     * Complete the request if the tile's caches already hold the line
     * with sufficient permission (the fast path). Caller holds the tile
     * lock.
     * @return CacheProbe::Hit when the request completed and @p res is
     * filled; otherwise the L2's answer (Miss or NeedsUpgrade), which
     * plans the transaction.
     */
    CacheProbe tryCompleteLocal(TileMemory& tm, LineRequest& rq,
                                AccessResult& res);

    /**
     * Charge the L1 and L2 lookups (stats and latency) and return the
     * L2 line, null on a miss. Tile lock held.
     */
    CacheLine* lookupLocal(TileMemory& tm, const LineRequest& rq,
                           AccessResult& res);

    /**
     * Move the request's bytes once the L2 holds the line with
     * sufficient permission: the commit tail of hits and misses alike.
     * Tile lock held.
     */
    void commitLine(TileMemory& tm, LineRequest& rq, CacheLine& l2line);

    /**
     * Sums over the tiles of the accesses, the L2 misses and the
     * writebacks: the mem.*_total gauges and the snapshot's totals.
     */
    std::array<stat_t, 3> totals() const;

    /** Commit stats for one finished line request. Tile lock held. */
    void finishAccess(TileMemory& tm, const LineRequest& rq,
                      const AccessResult& res);

    /**
     * Acquire the line into @p tile's L2 with read or write permission:
     * the transaction engine, which runs the protocol table's rule for
     * the line's directory state and the request. On return the L2
     * holds the line in the granted state.
     *
     * Caller holds: the line's home shard, the victim's home shard when
     * an L2 eviction is pending, the requester tile lock, and every
     * current holder's tile lock.
     *
     * @param addr,size the bytes the triggering access touches (miss
     *                  classification compares exactly these words)
     * @return added latency.
     */
    cycle_t fetchLineLocked(tile_id_t tile, addr_t line_addr,
                            bool for_write, addr_t addr, size_t size,
                            cycle_t now, MissClass& miss_class);

    /** Invalidate every cached copy at @p holder (L2 + L1s). */
    void invalidateTile(tile_id_t holder, addr_t line_addr,
                        bool coherence, std::vector<std::uint8_t>* data_out);

    /** Handle an L2 victim: writeback + directory update (off path). */
    void handleL2Eviction(tile_id_t tile, const Eviction& ev,
                          cycle_t now);

    /** Classify an L2 data miss for @p tile (before state changes). */
    MissClass classifyMiss(tile_id_t tile, addr_t line_addr, addr_t addr,
                           size_t size);

    void recordMiss(tile_id_t tile, TileMemory& tm, MissClass mc,
                    cycle_t time);

    /** Bump per-word versions for a write of [addr, addr+size). */
    void bumpVersions(addr_t addr, size_t size);

    /** Snapshot versions for a lost line. */
    void snapshotLoss(tile_id_t tile, addr_t line_addr,
                      EvictReason reason);

    /** Fill L1 (D or I) with a Shared copy of the L2 line. */
    void fillL1(Cache* l1, const CacheLine& l2line);

    ClusterTopology topo_;
    NetworkFabric& fabric_;
    std::uint64_t lineSize_;
    cycle_t l1Latency_;
    cycle_t l2Latency_;
    cycle_t dirLatency_;
    const CoherenceProtocol* protocol_;
    obs::Observers obs_;
    std::atomic<bool> fastForward_{false};
    std::vector<TileMemory> tiles_;
    std::vector<Shard> shards_;
    MainMemory backing_;
    std::unique_ptr<MemoryManager> manager_;
};

} // namespace graphite
