#include "common/lockdep.h"
#include "mem/address_space.h"

#include "common/log.h"
#include "snapshot/snapshot.h"

namespace graphite
{

const char*
AddressSpaceLayout::segmentName(addr_t a)
{
    if (a >= CODE_BASE && a < CODE_END)
        return "code";
    if (a >= STATIC_BASE && a < STATIC_END)
        return "static";
    if (a >= HEAP_BASE && a < HEAP_END)
        return "heap";
    if (a >= MMAP_BASE && a < MMAP_END)
        return "mmap";
    if (a >= STACK_BASE && a < STACK_END)
        return "stack";
    return "unmapped";
}

MemoryManager::MemoryManager(tile_id_t total_tiles,
                             std::uint64_t stack_size_per_thread)
    : totalTiles_(total_tiles), stackSize_(stack_size_per_thread)
{
    if (total_tiles <= 0)
        fatal("memory manager: total_tiles must be positive");
    std::uint64_t stack_span = AddressSpaceLayout::STACK_END -
                               AddressSpaceLayout::STACK_BASE;
    if (stack_size_per_thread * total_tiles > stack_span)
        fatal("memory manager: {} stacks of {} bytes exceed the stack "
              "segment ({} bytes)",
              total_tiles, stack_size_per_thread, stack_span);
}

addr_t
MemoryManager::brk(addr_t new_brk)
{
    lockdep::Guard lock(mutex_);
    if (new_brk == 0)
        return heapBrk_;
    if (new_brk < AddressSpaceLayout::HEAP_BASE ||
        new_brk > AddressSpaceLayout::HEAP_END)
        return heapBrk_; // Linux brk semantics: failure returns old break
    heapBrk_ = new_brk;
    return heapBrk_;
}

addr_t
MemoryManager::mmap(std::uint64_t length)
{
    if (length == 0)
        fatal("mmap: zero length");
    lockdep::Guard lock(mutex_);
    std::uint64_t aligned = (length + 4095) & ~std::uint64_t{4095};
    if (mmapNext_ + aligned > AddressSpaceLayout::MMAP_END)
        fatal("mmap: target dynamic segment exhausted ({} bytes "
              "requested)",
              length);
    addr_t addr = mmapNext_;
    mmapNext_ += aligned;
    mmapRegions_[addr] = aligned;
    bytesAllocated_ += aligned;
    ++allocCount_;
    return addr;
}

void
MemoryManager::munmap(addr_t addr, std::uint64_t length)
{
    lockdep::Guard lock(mutex_);
    auto it = mmapRegions_.find(addr);
    if (it == mmapRegions_.end())
        fatal("munmap: {} is not a mapped region start", addr);
    std::uint64_t aligned = (length + 4095) & ~std::uint64_t{4095};
    if (aligned != it->second)
        fatal("munmap: length mismatch for region at {}", addr);
    mmapRegions_.erase(it);
    // Address space is not recycled for mmap regions (monotonic bump);
    // acceptable for application-lifetime simulations.
}

addr_t
MemoryManager::allocate(std::uint64_t size)
{
    if (size == 0)
        size = 1;
    std::uint64_t aligned = (size + 15) & ~std::uint64_t{15};

    lockdep::Guard lock(mutex_);
    // First fit in the free list.
    for (auto it = freeList_.begin(); it != freeList_.end(); ++it) {
        if (it->second >= aligned) {
            addr_t addr = it->first;
            std::uint64_t remaining = it->second - aligned;
            freeList_.erase(it);
            if (remaining > 0)
                freeList_[addr + aligned] = remaining;
            liveBlocks_[addr] = aligned;
            bytesAllocated_ += aligned;
            ++allocCount_;
            return addr;
        }
    }
    // Extend the break.
    if (heapBrk_ + aligned > AddressSpaceLayout::HEAP_END)
        fatal("target heap exhausted: cannot allocate {} bytes", size);
    addr_t addr = heapBrk_;
    heapBrk_ += aligned;
    liveBlocks_[addr] = aligned;
    bytesAllocated_ += aligned;
    ++allocCount_;
    return addr;
}

void
MemoryManager::deallocate(addr_t addr)
{
    lockdep::Guard lock(mutex_);
    auto it = liveBlocks_.find(addr);
    if (it == liveBlocks_.end())
        fatal("free of unallocated target pointer {}", addr);
    std::uint64_t size = it->second;
    liveBlocks_.erase(it);

    // Insert into the free list and coalesce with neighbors.
    auto [fit, inserted] = freeList_.emplace(addr, size);
    GRAPHITE_ASSERT(inserted);
    // Coalesce with successor.
    auto next = std::next(fit);
    if (next != freeList_.end() && fit->first + fit->second == next->first) {
        fit->second += next->second;
        freeList_.erase(next);
    }
    // Coalesce with predecessor.
    if (fit != freeList_.begin()) {
        auto prev = std::prev(fit);
        if (prev->first + prev->second == fit->first) {
            prev->second += fit->second;
            freeList_.erase(fit);
        }
    }
}

addr_t
MemoryManager::stackBase(tile_id_t tile) const
{
    GRAPHITE_ASSERT(tile >= 0 && tile < totalTiles_);
    return AddressSpaceLayout::STACK_BASE +
           static_cast<addr_t>(tile) * stackSize_;
}

stat_t
MemoryManager::bytesAllocated() const
{
    lockdep::Guard lock(mutex_);
    return bytesAllocated_;
}

stat_t
MemoryManager::allocationCount() const
{
    lockdep::Guard lock(mutex_);
    return allocCount_;
}

stat_t
MemoryManager::liveBytes() const
{
    lockdep::Guard lock(mutex_);
    stat_t total = 0;
    for (const auto& [addr, size] : liveBlocks_)
        total += size;
    for (const auto& [addr, size] : mmapRegions_)
        total += size;
    return total;
}

stat_t
MemoryManager::liveBlockCount() const
{
    lockdep::Guard lock(mutex_);
    return static_cast<stat_t>(liveBlocks_.size() +
                               mmapRegions_.size());
}

void
MemoryManager::serialize(snapshot::Archive& ar)
{
    lockdep::Guard lock(mutex_);
    ar.u64(heapBrk_);
    ar.u64(mmapNext_);
    ar.u64(bytesAllocated_);
    ar.u64(allocCount_);
    for (auto* blocks : {&freeList_, &liveBlocks_, &mmapRegions_})
        ar.sorted(*blocks, [&](addr_t& addr, std::uint64_t& size) {
            ar.u64(addr);
            ar.u64(size);
        });
}

} // namespace graphite
