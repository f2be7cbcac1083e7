#include "mem/directory.h"

#include <algorithm>
#include <map>

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
Directory::saveState(snapshot::SnapshotWriter& w) const
{
    w.u8(static_cast<std::uint8_t>(type_));
    w.u64(pointerEvictions_);
    w.u64(softwareTraps_);
    std::map<addr_t, const DirectoryEntry*> sorted;
    for (const auto& [addr, e] : entries_)
        sorted.emplace(addr, &e);
    w.u64(static_cast<std::uint64_t>(sorted.size()));
    for (const auto& [addr, e] : sorted) {
        w.u64(addr);
        w.u8(static_cast<std::uint8_t>(e->state()));
        w.i64(e->owner());
        w.u64(static_cast<std::uint64_t>(e->numSharers()));
        for (tile_id_t t : e->sharers())
            w.i64(t);
    }
}

void
Directory::loadState(snapshot::SnapshotReader& r)
{
    auto type = static_cast<DirectoryType>(r.u8());
    if (type != type_)
        throw snapshot::SnapshotError(
            strfmt("snapshot: directory scheme mismatch (snapshot {}, "
                   "configured {})",
                   static_cast<int>(type), static_cast<int>(type_)));
    pointerEvictions_ = r.u64();
    softwareTraps_ = r.u64();
    entries_.clear();
    std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        DirectoryEntry& e = entry(r.u64());
        e.setState(static_cast<DirectoryState>(r.u8()));
        e.setOwner(static_cast<tile_id_t>(r.i64()));
        e.sharers_.resize(r.u64());
        for (tile_id_t& t : e.sharers_)
            t = static_cast<tile_id_t>(r.i64());
    }
}

} // namespace graphite
