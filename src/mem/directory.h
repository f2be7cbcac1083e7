/**
 * @file
 * Directory state for the MSI and MESI coherence protocols (paper §3.2,
 * §4.4).
 *
 * "Cache coherence is maintained using a directory-based MSI protocol in
 * which the directory is uniformly distributed across all the tiles."
 * Every entry keeps its sharers in one vector. The three sharer-tracking
 * schemes of the §4.4 coherence study differ only in how
 * Directory::addSharer() and removeSharer() order it:
 *
 *  - full-map:            one presence bit per tile [Agarwal et al.]:
 *                         any number of sharers, in ascending tile order;
 *  - Dir_iNB (limited):   i sharer pointers, no broadcast — adding a
 *                         sharer beyond i evicts the oldest, so sharers
 *                         are kept oldest first;
 *  - LimitLESS(i):        i hardware pointers, then a software list of
 *                         overflowing sharers, each added at a
 *                         configurable software-trap penalty [Chaiken et
 *                         al.]; the newest software sharer moves into a
 *                         freed hardware pointer.
 *
 * Invalidations go out in sharer order, so the order is part of the
 * timing model.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Global state of a memory line at its home directory. */
enum class DirectoryState : std::uint8_t
{
    Uncached = 0, ///< no cache holds the line
    Shared,       ///< one or more read-only copies
    Modified      ///< exactly one writable copy (the owner)
};

/** Outcome of Directory::addSharer(). */
struct AddSharerResult
{
    /** Set when the scheme had to evict an existing sharer to make room
     *  (Dir_iNB); the protocol must invalidate it before proceeding. */
    std::optional<tile_id_t> evicted;
    /** Extra modeled latency (LimitLESS software trap). */
    cycle_t extraLatency = 0;
};

/** Per-line directory entry: state, owner and sharers in scheme order. */
class DirectoryEntry
{
  public:
    DirectoryState state() const { return state_; }
    void setState(DirectoryState s) { state_ = s; }

    /** Owner tile; only meaningful in Modified state. */
    tile_id_t owner() const { return owner_; }
    void setOwner(tile_id_t t) { owner_ = t; }

    /** Sharers in the order of the directory's scheme (file comment). */
    const std::vector<tile_id_t>& sharers() const { return sharers_; }
    size_t numSharers() const { return sharers_.size(); }
    bool isSharer(tile_id_t tile) const;
    void clearSharers() { sharers_.clear(); }

    /** Back to Uncached, with no owner and no sharers. */
    void reset();

  private:
    friend class Directory; // keeps sharers_ in scheme order

    DirectoryState state_ = DirectoryState::Uncached;
    tile_id_t owner_ = INVALID_TILE_ID;
    std::vector<tile_id_t> sharers_;
};

/** Scheme selector, parsed from config. */
enum class DirectoryType
{
    FullMap,
    LimitedNoBroadcast,
    Limitless
};

/** Parse "full_map" | "limited_no_broadcast" | "limitless". */
DirectoryType parseDirectoryType(const std::string& name);

/**
 * The distributed directory slice homed on one tile: entries for every
 * line whose home is this tile, created on demand.
 */
class Directory
{
  public:
    /**
     * @param type                  sharer-tracking scheme
     * @param max_sharers           pointer count i for Dir_iNB/LimitLESS
     * @param software_trap_penalty LimitLESS overflow cost, cycles
     */
    Directory(DirectoryType type, int max_sharers,
              cycle_t software_trap_penalty);

    /** Get or create the entry for @p line_addr. */
    DirectoryEntry& entry(addr_t line_addr);

    /** @return the entry, or nullptr if never touched. */
    DirectoryEntry* peek(addr_t line_addr);

    /** Record @p tile as a sharer of @p e (see AddSharerResult). */
    AddSharerResult addSharer(DirectoryEntry& e, tile_id_t tile);

    /** Remove @p tile from @p e's sharers (no-op when absent). */
    void removeSharer(DirectoryEntry& e, tile_id_t tile);

    /** Number of allocated entries. */
    size_t size() const { return entries_.size(); }

    DirectoryType type() const { return type_; }

    /** @name Statistics @{ */
    stat_t pointerEvictions() const { return pointerEvictions_; }
    stat_t softwareTraps() const { return softwareTraps_; }
    /** @} */

    /**
     * Checkpoint serialization. Entries are saved sorted by line
     * address, each with its sharers in scheme order, and restored
     * exactly as saved.
     * @throws snapshot::SnapshotError on scheme mismatch, or on a
     *         restored state, owner or sharer outside the @p tiles
     *         tiles the memory system indexes with them.
     */
    void serialize(snapshot::Archive& ar, tile_id_t tiles);

  private:
    DirectoryType type_;
    size_t maxSharers_;
    cycle_t trapPenalty_;
    std::unordered_map<addr_t, DirectoryEntry> entries_;
    stat_t pointerEvictions_ = 0;
    stat_t softwareTraps_ = 0;
};

} // namespace graphite
