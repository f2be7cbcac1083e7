/**
 * @file
 * FastTrack-style happens-before race detector for simulated target
 * programs (Flanagan & Freund, PLDI'09 adapted to the simulator).
 *
 * Graphite's functional/modeled co-design means the simulator already
 * observes every target memory reference (api::read/write) and every
 * synchronization event (atomics, emulated futex, spawn/join, user
 * messages) — exactly the event stream a dynamic race detector needs,
 * with no extra instrumentation of the target.
 *
 * Model:
 *  - Each application thread (= tile occupant) carries a vector clock;
 *    its own component is its *epoch* (tile, clock), incremented at
 *    every release operation.
 *  - Plain reads/writes are checked against per-word shadow cells
 *    holding the last-write epoch and either a last-read epoch or a
 *    promoted read vector clock (the FastTrack optimization: reads are
 *    almost always ordered, so a full VC is only materialized when two
 *    unordered reads are observed).
 *  - Atomic RMWs are synchronization operations, not data accesses:
 *    they acquire from and release to a per-address sync clock. A
 *    *failed* CAS performs the acquire only — it publishes nothing
 *    (satellite regression, see tests/test_race.cpp).
 *  - The sync library (mutex/barrier/condvar in api.cpp) is treated
 *    like an interposed pthread library: its internal accesses are
 *    suppressed via InternalScope and replaced by primitive-level
 *    edges (acquireAddr/releaseAddr, barrierArrive/Leave). Checking
 *    the raw futex spin loops instead would false-positive on benign
 *    patterns such as the barrier's plain count reset.
 *  - MCP-derived edges (futexWake -> woken waiter, spawn, join,
 *    thread exit) are applied by the MCP service thread while both
 *    endpoints are blocked on their replies, so their vector clocks
 *    are quiescent. A futexWake edge forms only when the wake actually
 *    transfers to a queued waiter (count consumed); a value-mismatch
 *    futexWait return establishes no ordering.
 *
 * Shadow memory is a sharded hash of 64-byte lines. Granularity
 * (race/granularity):
 *  - adaptive (default): a line touched by a single thread uses a
 *    compact cell (per-word scalar clocks + owning tile) and expands
 *    losslessly to full per-word FastTrack cells on second-thread
 *    access. Exact, and bounds memory on the common mostly-private
 *    workload footprint.
 *  - word: always full per-word cells.
 *  - line: one cell per 64-byte line. Coarse — flags false sharing as
 *    if it were a race — only for memory-constrained runs.
 * race/max_shadow_lines bounds the table; eviction forgets history,
 * which can only miss races, never invent them.
 *
 * Config ([race]): enabled, granularity, max_shadow_lines, max_records,
 * report_out (JSONL for tools/race_report.py).
 *
 * Each Simulator owns its detector, built only when `race/enabled` is
 * set; the hooks hold a non-owning pointer, so the disabled hot path is
 * one null check.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"

namespace graphite
{

class Config;

namespace obs
{
class TraceSink;
}

namespace race
{

/** An epoch: (tile, scalar clock) packed as tile<<48 | clock. */
using epoch_t = std::uint64_t;

inline constexpr epoch_t EPOCH_NONE = 0;

inline epoch_t
makeEpoch(tile_id_t tile, std::uint64_t clock)
{
    return (static_cast<epoch_t>(static_cast<std::uint32_t>(tile)) << 48) |
           (clock & ((1ull << 48) - 1));
}

inline tile_id_t
epochTile(epoch_t e)
{
    return static_cast<tile_id_t>(e >> 48);
}

inline std::uint64_t
epochClock(epoch_t e)
{
    return e & ((1ull << 48) - 1);
}

/** Shadow granularity (race/granularity). */
enum class Granularity : std::uint8_t
{
    Adaptive = 0,
    Word,
    Line,
};

/** Kind of detected conflict. */
enum class RaceKind : std::uint8_t
{
    WriteWrite = 0,
    ReadWrite, ///< earlier read, racing write
    WriteRead, ///< earlier write, racing read
};

/** One deduplicated race report. */
struct RaceRecord
{
    RaceKind kind = RaceKind::WriteWrite;
    addr_t addr = 0;
    tile_id_t prevTile = INVALID_TILE_ID;
    tile_id_t curTile = INVALID_TILE_ID;
    std::uint64_t prevClock = 0;
    std::uint64_t curClock = 0;
    std::uint32_t prevSite = 0;
    std::uint32_t curSite = 0;
    cycle_t cycle = 0;       ///< simulated time of the second access
    std::uint64_t count = 1; ///< occurrences folded into this record
};

/** One Simulator's happens-before race detector. */
class Detector
{
  public:
    /**
     * A detector over @p total_tiles tiles configured by the remaining
     * [race] keys. Reports also land in @p trace when it is non-null.
     */
    Detector(const Config& cfg, tile_id_t total_tiles,
             obs::TraceSink* trace = nullptr);

    /** The detector `race/enabled` asks for; null when it is off. */
    static std::unique_ptr<Detector> fromConfig(const Config& cfg,
                                                tile_id_t total_tiles,
                                                obs::TraceSink* trace);

    /**
     * Suppress data-access checking on the calling thread while alive
     * (sync-library internals). Sync edges still apply. Nestable.
     */
    struct InternalScope
    {
        InternalScope();
        ~InternalScope();
        InternalScope(const InternalScope&) = delete;
        InternalScope& operator=(const InternalScope&) = delete;
    };

    /** True while the calling thread is inside an InternalScope. */
    static bool suppressed();

    /**
     * Set the calling thread's current access-site label (sticky until
     * the next call); @return the interned site id.
     */
    std::uint32_t setSite(const char* name);

    /** @name Data accesses (checked) @{ */

    /** One plain access of @p size bytes; split into 4-byte words. */
    void onAccess(tile_id_t tile, addr_t addr, std::uint64_t size,
                  bool is_write, cycle_t when);

    /** Forget shadow history for [addr, addr+size) (alloc reuse). */
    void clearRange(addr_t addr, std::uint64_t size);
    /** @} */

    /** @name Synchronization edges @{ */

    /**
     * Atomic RMW on @p addr: acquire from the address's sync clock and,
     * when @p release (CAS success, exchange, add), publish to it.
     * A failed CAS must pass release=false.
     */
    void onAtomic(tile_id_t tile, addr_t addr, bool release);

    /** Lock-level acquire of @p addr (after mutexLock succeeds). */
    void acquireAddr(tile_id_t tile, addr_t addr);

    /** Lock-level release of @p addr (before mutexUnlock's exchange). */
    void releaseAddr(tile_id_t tile, addr_t addr);

    /**
     * Barrier arrival: joins the caller's clock into the generation's
     * pending set (release). The last of @p total arrivals closes the
     * generation. @return the generation joined, for barrierLeave().
     */
    std::uint64_t barrierArrive(tile_id_t tile, addr_t barrier,
                                std::uint32_t total);

    /** Barrier departure: acquire generation @p gen's closed set. */
    void barrierLeave(tile_id_t tile, addr_t barrier, std::uint64_t gen);

    /**
     * Direct edge from -> to (MCP: futex wake transfer, spawn, join,
     * exit). Both endpoints must be quiescent (blocked on MCP replies,
     * or not yet running). Acts as release(from) + acquire(to).
     */
    void edge(tile_id_t from, tile_id_t to);

    /** New occupant of @p tile begins (epoch bump; VC is inherited —
     *  reuse of a freed tile is ordered through exit->MCP->spawn). */
    void threadStart(tile_id_t tile);

    /** Message send: push sender's clock on the (from,to) channel. */
    void msgSendEdge(tile_id_t from, tile_id_t to);

    /** Message receipt: pop and acquire the matching pushed clock. */
    void msgRecvEdge(tile_id_t from, tile_id_t to);
    /** @} */

    /** @name Reporting @{ */

    /** Deduplicated records, in first-detection order. */
    std::vector<RaceRecord> records() const;

    /** Human-readable one-liner for @p r. */
    std::string describe(const RaceRecord& r) const;

    /** Resolve an interned site id. */
    std::string siteName(std::uint32_t id) const;

    /** Write records as JSONL to race/report_out, when configured. */
    void finalizeReport() const;

    stat_t raceCount() const
    {
        return races_.load(std::memory_order_relaxed);
    }
    stat_t wordsChecked() const
    {
        return checked_.load(std::memory_order_relaxed);
    }
    stat_t syncEdges() const
    {
        return edges_.load(std::memory_order_relaxed);
    }
    stat_t shadowLines() const;
    stat_t shadowEvictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    stat_t shadowExpansions() const
    {
        return expansions_.load(std::memory_order_relaxed);
    }
    /** @} */

    static Granularity parseGranularity(const std::string& name);

  private:
    static constexpr std::uint32_t LINE_BYTES = 64;
    static constexpr std::uint32_t WORDS_PER_LINE = LINE_BYTES / 4;
    static constexpr std::uint32_t NUM_SHARDS = 64;

    /** Per-thread (tile-slot) clock state; guarded by syncMutex_. */
    struct ThreadState
    {
        /** vc[t] = latest epoch of t known to happen-before us;
         *  vc[self] is our own clock. */
        std::vector<std::uint64_t> vc;
    };

    /** Expanded FastTrack cell for one 4-byte word. */
    struct WordCell
    {
        epoch_t w = EPOCH_NONE; ///< last write
        epoch_t r = EPOCH_NONE; ///< last read, when readVc is empty
        std::uint32_t wSite = 0;
        std::uint32_t rSite = 0;
        /** Promoted read clock (per-tile), empty unless two unordered
         *  reads were seen since the last write. */
        std::vector<std::uint64_t> readVc;
    };

    /** Shadow state for one 64-byte line. */
    struct ShadowLine
    {
        /** Compact single-owner representation (adaptive mode): all
         *  clocks belong to `owner`. owner < 0 = expanded. */
        tile_id_t owner = INVALID_TILE_ID;
        std::array<std::uint64_t, WORDS_PER_LINE> cw{};
        std::array<std::uint64_t, WORDS_PER_LINE> cr{};
        std::array<std::uint32_t, WORDS_PER_LINE> cwSite{};
        std::array<std::uint32_t, WORDS_PER_LINE> crSite{};
        std::vector<WordCell> cells; ///< expanded per-word cells
    };

    struct Shard
    {
        lockdep::OrderedMutex mutex{lockdep::LockClass::race_shadow};
        std::unordered_map<addr_t, ShadowLine> lines;
    };

    /** One barrier address's generation machinery. */
    struct BarrierState
    {
        std::uint64_t gen = 0;
        std::uint32_t arrived = 0;
        std::vector<std::uint64_t> pending;
        /** Closed generations (last two kept). */
        std::map<std::uint64_t, std::vector<std::uint64_t>> released;
    };

    void checkWord(tile_id_t tile, const std::vector<std::uint64_t>& vc,
                   addr_t word_addr, bool is_write, std::uint32_t site,
                   cycle_t when);
    void expandLine(ShadowLine& line) const;
    void report(RaceKind kind, addr_t addr, epoch_t prev,
                std::uint32_t prev_site, tile_id_t cur_tile,
                std::uint64_t cur_clock, std::uint32_t cur_site,
                cycle_t when);

    /** Join @p from into @p into (component-wise max). */
    static void join(std::vector<std::uint64_t>& into,
                     const std::vector<std::uint64_t>& from);

    tile_id_t totalTiles_;
    Granularity granularity_;
    std::uint64_t maxShadowLines_;
    std::uint64_t maxRecords_;
    std::string reportOut_;
    obs::TraceSink* trace_;

    std::array<Shard, NUM_SHARDS> shards_;

    /** Guards thread VCs, sync clocks, barriers, and channels. */
    mutable lockdep::OrderedMutex syncMutex_{lockdep::LockClass::race_sync};
    std::vector<ThreadState> threads_;
    std::unordered_map<addr_t, std::vector<std::uint64_t>> syncVc_;
    std::unordered_map<addr_t, BarrierState> barriers_;
    /** (from<<32|to) -> FIFO of released clocks. */
    std::unordered_map<std::uint64_t,
                       std::deque<std::vector<std::uint64_t>>>
        channels_;

    mutable lockdep::OrderedMutex recordsMutex_{lockdep::LockClass::race_records};
    std::vector<RaceRecord> records_;
    std::unordered_map<std::uint64_t, std::size_t> recordIndex_;

    mutable lockdep::OrderedMutex sitesMutex_{lockdep::LockClass::race_sites};
    std::vector<std::string> siteNames_;
    std::unordered_map<std::string, std::uint32_t> siteIds_;

    std::atomic<stat_t> races_{0};
    std::atomic<stat_t> checked_{0};
    std::atomic<stat_t> edges_{0};
    std::atomic<stat_t> evictions_{0};
    std::atomic<stat_t> expansions_{0};
    std::atomic<stat_t> lineCount_{0};
};

} // namespace race
} // namespace graphite
