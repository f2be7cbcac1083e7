#include "mem/directory.h"

#include <algorithm>

#include "common/log.h"
#include "common/strfmt.h"
#include "snapshot/snapshot.h"

namespace graphite
{

bool
DirectoryEntry::isSharer(tile_id_t tile) const
{
    return std::find(sharers_.begin(), sharers_.end(), tile) !=
           sharers_.end();
}

void
DirectoryEntry::reset()
{
    state_ = DirectoryState::Uncached;
    owner_ = INVALID_TILE_ID;
    sharers_.clear();
}

DirectoryType
parseDirectoryType(const std::string& name)
{
    if (name == "full_map")
        return DirectoryType::FullMap;
    if (name == "limited_no_broadcast")
        return DirectoryType::LimitedNoBroadcast;
    if (name == "limitless")
        return DirectoryType::Limitless;
    fatal("unknown directory type '{}'", name);
}

Directory::Directory(DirectoryType type, int max_sharers,
                     cycle_t software_trap_penalty)
    : type_(type),
      maxSharers_(static_cast<size_t>(std::max(max_sharers, 0))),
      trapPenalty_(software_trap_penalty)
{
    if (max_sharers <= 0 && type != DirectoryType::FullMap)
        fatal("directory: max_sharers must be positive for limited "
              "schemes (got {})",
              max_sharers);
}

DirectoryEntry&
Directory::entry(addr_t line_addr)
{
    return entries_[line_addr];
}

DirectoryEntry*
Directory::peek(addr_t line_addr)
{
    auto it = entries_.find(line_addr);
    return it == entries_.end() ? nullptr : &it->second;
}

AddSharerResult
Directory::addSharer(DirectoryEntry& e, tile_id_t tile)
{
    std::vector<tile_id_t>& s = e.sharers_;
    if (type_ == DirectoryType::FullMap) {
        auto it = std::lower_bound(s.begin(), s.end(), tile);
        if (it == s.end() || *it != tile)
            s.insert(it, tile);
        return {};
    }
    if (e.isSharer(tile))
        return {};
    s.push_back(tile);
    if (s.size() <= maxSharers_)
        return {};
    if (type_ == DirectoryType::Limitless) {
        // Software trap: the sharer is recorded, at a cost.
        ++softwareTraps_;
        return {std::nullopt, trapPenalty_};
    }
    // Dir_iNB: evict the oldest pointer (FIFO).
    tile_id_t victim = s.front();
    s.erase(s.begin());
    ++pointerEvictions_;
    return {victim, 0};
}

void
Directory::removeSharer(DirectoryEntry& e, tile_id_t tile)
{
    std::vector<tile_id_t>& s = e.sharers_;
    auto it = std::find(s.begin(), s.end(), tile);
    if (it == s.end())
        return;
    bool hw_pointer = static_cast<size_t>(it - s.begin()) < maxSharers_;
    s.erase(it);
    // LimitLESS: the newest software sharer takes the freed hardware
    // pointer, which is now the last of them.
    if (type_ == DirectoryType::Limitless && hw_pointer &&
        s.size() >= maxSharers_) {
        auto last_hw =
            s.begin() + static_cast<std::ptrdiff_t>(maxSharers_ - 1);
        std::rotate(last_hw, s.end() - 1, s.end());
    }
}

void
Directory::serialize(snapshot::Archive& ar, tile_id_t tiles)
{
    ar.expect<std::uint8_t>(type_, "directory scheme");
    ar.u64(pointerEvictions_);
    ar.u64(softwareTraps_);
    auto is_tile = [tiles](tile_id_t t) { return t >= 0 && t < tiles; };
    ar.sorted(entries_, [&](addr_t& addr, DirectoryEntry& e) {
        ar.u64(addr);
        ar.u8(e.state_);
        ar.i64(e.owner_);
        ar.seq<std::int64_t>(e.sharers_);
        // The protocol table is indexed by the state, and the memory
        // system's tile array by the owner and the sharers.
        if (ar.loading() &&
            (e.state_ > DirectoryState::Modified ||
             (e.owner_ != INVALID_TILE_ID && !is_tile(e.owner_)) ||
             !std::all_of(e.sharers_.begin(), e.sharers_.end(), is_tile)))
            throw snapshot::SnapshotError(
                strfmt("snapshot: directory entry {} names a state, "
                       "owner or sharer outside {} tiles",
                       addr, tiles));
    });
}

} // namespace graphite
