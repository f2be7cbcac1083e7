#include "common/lockdep.h"
#include "mem/main_memory.h"

#include <algorithm>
#include <cstring>

#include "snapshot/snapshot.h"

namespace graphite
{

MainMemory::Bucket&
MainMemory::bucketFor(addr_t page_addr) const
{
    // Consecutive pages land in different buckets so a hot region still
    // spreads across locks.
    return buckets_[(page_addr / PAGE_SIZE) % NUM_BUCKETS];
}

MainMemory::Page*
MainMemory::findPage(addr_t page_addr) const
{
    Bucket& b = bucketFor(page_addr);
    lockdep::Guard lock(b.mutex);
    auto it = b.pages.find(page_addr);
    return it == b.pages.end() ? nullptr : it->second.get();
}

MainMemory::Page&
MainMemory::ensurePage(addr_t page_addr)
{
    Bucket& b = bucketFor(page_addr);
    lockdep::Guard lock(b.mutex);
    auto& slot = b.pages[page_addr];
    if (!slot)
        slot = std::make_unique<Page>();
    return *slot;
}

void
MainMemory::read(addr_t addr, void* buf, size_t size) const
{
    auto* out = static_cast<std::uint8_t*>(buf);
    while (size > 0) {
        addr_t page_addr = addr & ~(PAGE_SIZE - 1);
        std::uint64_t off = addr - page_addr;
        size_t chunk =
            std::min<std::uint64_t>(size, PAGE_SIZE - off);
        if (const Page* page = findPage(page_addr)) {
            std::memcpy(out, page->bytes + off, chunk);
        } else {
            std::memset(out, 0, chunk);
        }
        out += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
MainMemory::write(addr_t addr, const void* buf, size_t size)
{
    const auto* in = static_cast<const std::uint8_t*>(buf);
    while (size > 0) {
        addr_t page_addr = addr & ~(PAGE_SIZE - 1);
        std::uint64_t off = addr - page_addr;
        size_t chunk =
            std::min<std::uint64_t>(size, PAGE_SIZE - off);
        Page& page = ensurePage(page_addr);
        std::memcpy(page.bytes + off, in, chunk);
        in += chunk;
        addr += chunk;
        size -= chunk;
    }
}

size_t
MainMemory::pagesAllocated() const
{
    size_t total = 0;
    for (const Bucket& b : buckets_) {
        lockdep::Guard lock(b.mutex);
        total += b.pages.size();
    }
    return total;
}

void
MainMemory::serialize(snapshot::Archive& ar)
{
    // One view of every bucket's pages (none on restore, which starts
    // from an empty memory).
    std::unordered_map<addr_t, Page*> pages;
    for (Bucket& b : buckets_) {
        lockdep::Guard lock(b.mutex);
        if (ar.loading())
            b.pages.clear();
        for (const auto& [addr, page] : b.pages)
            pages.emplace(addr, page.get());
    }
    ar.sorted(pages, [&](addr_t& addr, Page*& page) {
        ar.u64(addr);
        if (ar.loading())
            page = &ensurePage(addr);
        ar.bytes(page->bytes, PAGE_SIZE);
    });
}

} // namespace graphite
