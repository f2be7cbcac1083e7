#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/strfmt.h"
#include "snapshot/snapshot.h"

namespace graphite
{

Cache::Cache(std::string name, std::uint64_t size_bytes,
             int associativity, std::uint64_t line_size)
    : name_(std::move(name)),
      capacity_(size_bytes),
      assoc_(associativity),
      lineSize_(line_size),
      lineShift_(std::countr_zero(line_size))
{
    if (line_size == 0 || !std::has_single_bit(line_size))
        fatal("cache {}: line size {} is not a power of two", name_,
              line_size);
    if (associativity <= 0)
        fatal("cache {}: associativity must be positive", name_);
    if (size_bytes == 0 ||
        size_bytes % (line_size * static_cast<std::uint64_t>(assoc_)) != 0)
        fatal("cache {}: size {} not divisible by line*assoc", name_,
              size_bytes);
    numSets_ = size_bytes / (line_size * assoc_);
    lines_.resize(numSets_ * assoc_);
}

std::uint64_t
Cache::setIndex(addr_t line_addr) const
{
    return (line_addr >> lineShift_) % numSets_;
}

CacheLine*
Cache::lookup(addr_t line_addr)
{
    std::uint64_t set = setIndex(line_addr);
    CacheLine* base = &lines_[set * assoc_];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid() && base[w].lineAddr == line_addr)
            return &base[w];
    }
    return nullptr;
}

const CacheLine*
Cache::lookup(addr_t line_addr) const
{
    return const_cast<Cache*>(this)->lookup(line_addr);
}

CacheLine*
Cache::find(addr_t addr)
{
    return lookup(lineAlign(addr));
}

const CacheLine*
Cache::find(addr_t addr) const
{
    return lookup(lineAlign(addr));
}

CacheLine*
Cache::recordAccess(CacheLine* line, bool is_write)
{
    addSerialized(accesses_);
    if (line == nullptr) {
        addSerialized(misses_);
        return nullptr;
    }
    if (is_write && line->state == CacheState::Exclusive) {
        // MESI silent upgrade: the sole clean owner gains write
        // permission without a directory transaction.
        line->state = CacheState::Modified;
    }
    if (is_write && line->state != CacheState::Modified) {
        // Upgrade required: treated as a miss by the caller's protocol
        // logic, but the probe itself found data. Count as miss so
        // write-permission misses show up in the stats.
        addSerialized(misses_);
        line->lruStamp = ++lruCounter_;
        return nullptr;
    }
    line->lruStamp = ++lruCounter_;
    return line;
}

bool
Cache::sufficient(const CacheLine* line, bool is_write)
{
    if (line == nullptr || !line->valid())
        return false;
    return !is_write || line->state == CacheState::Modified ||
           line->state == CacheState::Exclusive;
}

std::optional<addr_t>
Cache::peekVictim(addr_t line_addr) const
{
    GRAPHITE_ASSERT(lineAlign(line_addr) == line_addr);
    if (lookup(line_addr) != nullptr)
        return std::nullopt; // already present: insert() is illegal
    std::uint64_t set = setIndex(line_addr);
    const CacheLine* base = &lines_[set * assoc_];
    const CacheLine* victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
        if (!base[w].valid())
            return std::nullopt; // free way: no eviction
        if (victim == nullptr || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    return victim->lineAddr;
}

std::optional<Eviction>
Cache::insert(addr_t line_addr, CacheState state,
              std::span<const std::uint8_t> data)
{
    GRAPHITE_ASSERT(lineAlign(line_addr) == line_addr);
    GRAPHITE_ASSERT(data.size() == lineSize_);
    GRAPHITE_ASSERT(state != CacheState::Invalid);
    GRAPHITE_ASSERT(lookup(line_addr) == nullptr);

    std::uint64_t set = setIndex(line_addr);
    CacheLine* base = &lines_[set * assoc_];
    CacheLine* victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
        if (!base[w].valid()) {
            victim = &base[w];
            break;
        }
        if (victim == nullptr || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }

    std::optional<Eviction> evicted;
    if (victim->valid()) {
        addSerialized(evictions_);
        evicted = release(*victim);
        if (evicted->dirty)
            evicted->data.assign(victim->data.get(),
                                 victim->data.get() + lineSize_);
    }
    if (!victim->data)
        victim->data = std::make_unique_for_overwrite<std::uint8_t[]>(
            lineSize_);
    std::copy(data.begin(), data.end(), victim->data.get());
    victim->lineAddr = line_addr;
    victim->state = state;
    victim->lruStamp = ++lruCounter_;
    return evicted;
}

Eviction
Cache::release(CacheLine& line)
{
    Eviction out{line.lineAddr, line.state == CacheState::Modified,
                 line.writtenWords, {}};
    line.writtenWords = 0;
    return out;
}

std::optional<Eviction>
Cache::invalidate(addr_t line_addr)
{
    CacheLine* line = lookup(line_addr);
    if (line == nullptr)
        return std::nullopt;
    addSerialized(invalidations_);
    Eviction out = release(*line);
    line->state = CacheState::Invalid;
    return out;
}

std::optional<Eviction>
Cache::downgrade(addr_t line_addr)
{
    CacheLine* line = lookup(line_addr);
    if (line == nullptr || (line->state != CacheState::Modified &&
                            line->state != CacheState::Exclusive))
        return std::nullopt;
    Eviction out = release(*line);
    line->state = CacheState::Shared;
    return out;
}

double
Cache::missRate() const
{
    return accesses_ == 0
               ? 0.0
               : static_cast<double>(misses_) /
                     static_cast<double>(accesses_);
}

std::vector<const CacheLine*>
Cache::validLines() const
{
    std::vector<const CacheLine*> out;
    for (const auto& line : lines_) {
        if (line.valid())
            out.push_back(&line);
    }
    return out;
}

void
Cache::serialize(snapshot::Archive& ar)
{
    ar.expect(lines_.size(), strfmt("cache '{}' geometry", name_));
    ar.u64(lruCounter_);
    ar.u64(accesses_);
    ar.u64(misses_);
    ar.u64(evictions_);
    ar.u64(invalidations_);
    const auto line_words =
        static_cast<int>(lineSize_ / CacheLine::WORD_BYTES);
    for (CacheLine& line : lines_) {
        ar.u64(line.lineAddr);
        ar.u8(line.state);
        ar.u64(line.lruStamp);
        if (!line.valid()) {
            line.writtenWords = 0; // an invalid line has no mask
            continue;
        }
        if (!line.data)
            line.data = std::make_unique_for_overwrite<std::uint8_t[]>(
                lineSize_);
        ar.bytes(line.data.get(), lineSize_);
        ar.u64(line.writtenWords);
        if (ar.loading() &&
            std::countl_zero(line.writtenWords) < 64 - line_words)
            throw snapshot::SnapshotError(
                strfmt("snapshot: cache '{}' line marks a word past its "
                       "{} bytes",
                       name_, lineSize_));
    }
}

} // namespace graphite
