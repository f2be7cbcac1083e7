/**
 * @file
 * Unit tests for the memory-system building blocks: set-associative
 * cache, the three directory schemes, DRAM controller, sparse main
 * memory, and the target memory manager.
 */

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/log.h"
#include "mem/address_space.h"
#include "mem/cache.h"
#include "mem/directory.h"
#include "mem/dram_controller.h"
#include "mem/main_memory.h"
#include "mem/memory_system.h"
#include "network/global_progress.h"
#include "snapshot/snapshot.h"

namespace graphite
{
namespace
{

std::vector<std::uint8_t>
lineOf(std::uint8_t fill, size_t n = 64)
{
    return std::vector<std::uint8_t>(n, fill);
}

// ------------------------------------------------------------------- Cache

TEST(Cache, HitAfterInsert)
{
    Cache c("t", 1024, 2, 64);
    EXPECT_EQ(c.access(0x100, false), nullptr); // miss
    c.insert(0x100, CacheState::Shared, lineOf(7));
    CacheLine* line = c.access(0x104, false); // same line, offset 4
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->data[4], 7);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, WriteProbeNeedsModified)
{
    Cache c("t", 1024, 2, 64);
    c.insert(0x100, CacheState::Shared, lineOf(1));
    EXPECT_EQ(c.access(0x100, /*is_write=*/true), nullptr); // S, no M
    c.invalidate(0x100);
    c.insert(0x100, CacheState::Modified, lineOf(1));
    EXPECT_NE(c.access(0x100, true), nullptr);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64B lines, 2 sets => set stride 128.
    Cache c("t", 256, 2, 64);
    c.insert(0x000, CacheState::Shared, lineOf(1));
    c.insert(0x100, CacheState::Shared, lineOf(2)); // same set 0
    c.access(0x000, false);                          // touch 0x000
    auto ev = c.insert(0x200, CacheState::Shared, lineOf(3));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x100u); // LRU victim
    EXPECT_FALSE(ev->dirty);
}

TEST(Cache, DirtyEvictionCarriesData)
{
    Cache c("t", 128, 1, 64); // direct-mapped, 2 sets
    c.insert(0x000, CacheState::Modified, lineOf(9));
    auto ev = c.insert(0x100, CacheState::Shared, lineOf(1));
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->data[0], 9);
}

TEST(Cache, InvalidateReturnsData)
{
    Cache c("t", 1024, 2, 64);
    c.insert(0x40, CacheState::Modified, lineOf(5));
    auto ev = c.invalidate(0x40);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(c.find(0x40), nullptr);
    EXPECT_FALSE(c.invalidate(0x40).has_value()); // already gone
}

TEST(Cache, DowngradeKeepsSharedCopy)
{
    Cache c("t", 1024, 2, 64);
    c.insert(0x80, CacheState::Modified, lineOf(3));
    auto lost = c.downgrade(0x80);
    ASSERT_TRUE(lost.has_value());
    EXPECT_TRUE(lost->dirty);
    EXPECT_EQ(c.find(0x80)->data[0], 3);
    EXPECT_EQ(c.find(0x80)->state, CacheState::Shared);
    EXPECT_FALSE(c.downgrade(0x80).has_value()); // already S
}

TEST(Cache, LosingOwnershipHandsOverTheWriteMask)
{
    Cache c("t", 128, 1, 64); // direct-mapped, 2 sets
    auto mark = [&](addr_t a, std::uint64_t words) {
        c.find(a)->writtenWords = words;
    };
    c.insert(0x000, CacheState::Modified, lineOf(1));
    mark(0x000, 0b101);
    auto down = c.downgrade(0x000);
    ASSERT_TRUE(down.has_value());
    EXPECT_EQ(down->writtenWords, 0b101u);
    EXPECT_EQ(c.find(0x000)->writtenWords, 0u);

    c.insert(0x040, CacheState::Modified, lineOf(2));
    mark(0x040, 1ULL << 63);
    auto inv = c.invalidate(0x040);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(inv->writtenWords, 1ULL << 63);

    // A refill of the same way starts with no mask; its victim's mask
    // rides on the eviction.
    c.insert(0x040, CacheState::Modified, lineOf(3));
    EXPECT_EQ(c.find(0x040)->writtenWords, 0u);
    mark(0x040, 0b10);
    auto ev = c.insert(0x0c0, CacheState::Shared, lineOf(4));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x040u);
    EXPECT_EQ(ev->writtenWords, 0b10u);
    EXPECT_EQ(ev->data[0], 3);
    EXPECT_EQ(c.find(0x0c0)->writtenWords, 0u);
    EXPECT_EQ(c.find(0x0c0)->data[63], 4);
}

TEST(Cache, BadGeometryIsFatal)
{
    EXPECT_THROW(Cache("t", 1000, 3, 60), FatalError);  // line not pow2
    EXPECT_THROW(Cache("t", 100, 2, 64), FatalError);   // size mismatch
}

// --------------------------------------------------------------- Directory

TEST(Directory, FullMapTracksAllSharers)
{
    Directory dir(DirectoryType::FullMap, 0, 0);
    DirectoryEntry& e = dir.entry(0x1000);
    for (tile_id_t t = 0; t < 64; ++t) {
        AddSharerResult r = dir.addSharer(e, t);
        EXPECT_FALSE(r.evicted.has_value());
        EXPECT_EQ(r.extraLatency, 0u);
    }
    EXPECT_EQ(e.numSharers(), 64u);
    dir.removeSharer(e, 5);
    EXPECT_FALSE(e.isSharer(5));
    EXPECT_EQ(e.numSharers(), 63u);
    e.clearSharers();
    EXPECT_EQ(e.numSharers(), 0u);
}

TEST(Directory, FullMapKeepsSharersAscending)
{
    // Invalidations go out in sharer order: ascending tile ids, however
    // the sharers arrived.
    Directory dir(DirectoryType::FullMap, 0, 0);
    DirectoryEntry& e = dir.entry(0);
    for (tile_id_t t : {9, 2, 30, 2, 0, 17})
        dir.addSharer(e, t);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{0, 2, 9, 17, 30}));
    dir.removeSharer(e, 9);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{0, 2, 17, 30}));
}

TEST(Directory, LimitedEvictsBeyondPointerCount)
{
    // Dir_4NB: the 5th sharer displaces the oldest pointer (§4.4).
    Directory dir(DirectoryType::LimitedNoBroadcast, 4, 0);
    DirectoryEntry& e = dir.entry(0);
    for (tile_id_t t = 0; t < 4; ++t)
        EXPECT_FALSE(dir.addSharer(e, t).evicted.has_value());
    AddSharerResult r = dir.addSharer(e, 4);
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(*r.evicted, 0); // FIFO victim
    EXPECT_EQ(e.numSharers(), 4u);
    EXPECT_FALSE(e.isSharer(0));
    EXPECT_TRUE(e.isSharer(4));
    EXPECT_EQ(dir.pointerEvictions(), 1u);
}

TEST(Directory, LimitedKeepsSharersOldestFirst)
{
    Directory dir(DirectoryType::LimitedNoBroadcast, 3, 0);
    DirectoryEntry& e = dir.entry(0);
    for (tile_id_t t : {7, 3, 5})
        dir.addSharer(e, t);
    EXPECT_EQ(*dir.addSharer(e, 1).evicted, 7);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{3, 5, 1}));
    dir.removeSharer(e, 5);
    dir.addSharer(e, 6);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{3, 1, 6}));
    EXPECT_EQ(*dir.addSharer(e, 2).evicted, 3);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{1, 6, 2}));
}

TEST(Directory, LimitedReaddIsIdempotent)
{
    Directory dir(DirectoryType::LimitedNoBroadcast, 2, 0);
    DirectoryEntry& e = dir.entry(0);
    dir.addSharer(e, 1);
    dir.addSharer(e, 1);
    EXPECT_EQ(e.numSharers(), 1u);
}

TEST(Directory, LimitlessTrapsInsteadOfEvicting)
{
    // LimitLESS(2): overflow sharers kept in software at a trap cost.
    Directory dir(DirectoryType::Limitless, 2, 100);
    DirectoryEntry& e = dir.entry(0);
    EXPECT_EQ(dir.addSharer(e, 0).extraLatency, 0u);
    EXPECT_EQ(dir.addSharer(e, 1).extraLatency, 0u);
    AddSharerResult r = dir.addSharer(e, 2);
    EXPECT_FALSE(r.evicted.has_value()); // nobody evicted
    EXPECT_EQ(r.extraLatency, 100u);     // software trap
    EXPECT_EQ(e.numSharers(), 3u);
    EXPECT_EQ(dir.softwareTraps(), 1u);
    // Removing a hardware pointer promotes a software sharer.
    dir.removeSharer(e, 0);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{1, 2}));
}

TEST(Directory, LimitlessPromotesNewestSoftwareSharer)
{
    // Hardware pointers first, then the software list in arrival order.
    Directory dir(DirectoryType::Limitless, 2, 100);
    DirectoryEntry& e = dir.entry(0);
    for (tile_id_t t : {4, 8, 1, 6, 3})
        dir.addSharer(e, t);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{4, 8, 1, 6, 3}));
    EXPECT_EQ(dir.softwareTraps(), 3u);
    // Freeing a hardware pointer moves the newest software sharer to
    // the end of the hardware pointers.
    dir.removeSharer(e, 4);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{8, 3, 1, 6}));
    // Removing a software sharer promotes nobody.
    dir.removeSharer(e, 1);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{8, 3, 6}));
    dir.removeSharer(e, 3);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{8, 6}));
    dir.removeSharer(e, 8);
    EXPECT_EQ(e.sharers(), (std::vector<tile_id_t>{6}));
}

TEST(Directory, ParseTypeNames)
{
    EXPECT_EQ(parseDirectoryType("full_map"), DirectoryType::FullMap);
    EXPECT_EQ(parseDirectoryType("limited_no_broadcast"),
              DirectoryType::LimitedNoBroadcast);
    EXPECT_EQ(parseDirectoryType("limitless"), DirectoryType::Limitless);
    EXPECT_THROW(parseDirectoryType("snoopy"), FatalError);
}

TEST(Directory, EntriesCreatedOnDemand)
{
    Directory dir(DirectoryType::FullMap, 0, 0);
    EXPECT_EQ(dir.peek(0x40), nullptr);
    dir.entry(0x40).setState(DirectoryState::Shared);
    EXPECT_NE(dir.peek(0x40), nullptr);
    EXPECT_EQ(dir.size(), 1u);
}

TEST(Directory, RestoreRejectsTilesOutsideTheTarget)
{
    // Saved with 8 tiles in mind; restored where the memory system has
    // only 4, the owner or a sharer would index past its tile array.
    auto restore = [](tile_id_t owner, tile_id_t sharer, tile_id_t tiles) {
        Directory saved(DirectoryType::FullMap, 0, 0);
        DirectoryEntry& e = saved.entry(0x40);
        e.setState(DirectoryState::Shared);
        e.setOwner(owner);
        saved.addSharer(e, sharer);
        snapshot::SnapshotWriter w;
        snapshot::Archive save(w);
        saved.serialize(save, 8);
        snapshot::SnapshotReader r(w.finish());
        snapshot::Archive load(r);
        Directory restored(DirectoryType::FullMap, 0, 0);
        restored.serialize(load, tiles);
        return restored.peek(0x40)->sharers();
    };
    EXPECT_EQ(restore(INVALID_TILE_ID, 3, 4), std::vector<tile_id_t>{3});
    EXPECT_THROW(restore(INVALID_TILE_ID, 5, 4), snapshot::SnapshotError);
    EXPECT_THROW(restore(6, 3, 4), snapshot::SnapshotError);
}

// ------------------------------------------------------------ MemorySystem

TEST(MemorySystem, LineSizeOutsideTheWriteMaskIsFatal)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 2);
    ClusterTopology topo(2, 1);
    NetworkFabric fabric(topo, cfg);
    auto build = [&](std::int64_t line) {
        cfg.setInt("perf_model/l2_cache/line_size", line);
        MemorySystem mem(topo, fabric, cfg);
    };
    EXPECT_NO_THROW(build(256)); // 64 words: the mask's every bit
    EXPECT_NO_THROW(build(4));
    for (std::int64_t line : {512, 2}) {
        try {
            build(line);
            ADD_FAILURE() << line << "-byte lines were accepted";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "perf_model/l2_cache/line_size"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------- DramController

TEST(Dram, LatencyIncludesServiceTime)
{
    DramController dram(100, /*bytes_per_cycle=*/1.0, nullptr,
                        /*outlier_window=*/100000, /*max_backlog=*/10000);
    // 64 bytes at 1 B/cycle: 100 + 64.
    EXPECT_EQ(dram.access(0, 64).total, 164u);
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(Dram, QueueingDelaysBursts)
{
    GlobalProgress gp(8);
    gp.observe(1000);
    DramController dram(100, /*bytes_per_cycle=*/0.5, &gp,
                        /*outlier_window=*/100000, /*max_backlog=*/10000);
    cycle_t first = dram.access(1000, 64).total;
    cycle_t second = dram.access(1000, 64).total; // backlogged
    EXPECT_GT(second, first);
    EXPECT_GT(dram.totalQueueDelay(), 0u);
}

TEST(Dram, BandwidthSplitRaisesServiceTime)
{
    // §4.4: splitting total bandwidth across more controllers raises
    // per-access service time (1-tile and 256-tile shares).
    DramController wide(100, 5.13, nullptr, 100000, 10000);
    DramController narrow(100, 5.13 / 256, nullptr, 100000, 10000);
    EXPECT_LT(wide.access(0, 64).total, narrow.access(0, 64).total);
}

TEST(Dram, ZeroBandwidthIsFatal)
{
    EXPECT_THROW(DramController(100, 0.0, nullptr, 100000, 10000),
                 FatalError);
}

// ------------------------------------------------------------- MainMemory

TEST(MainMemory, UntouchedReadsAsZero)
{
    MainMemory mem;
    std::uint64_t v = 123;
    mem.read(0x5000, &v, 8);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.pagesAllocated(), 0u); // reads do not materialize
}

TEST(MainMemory, WriteReadRoundTrip)
{
    MainMemory mem;
    std::uint64_t v = 0xDEADBEEFCAFEull;
    mem.write(0x1234, &v, 8);
    std::uint64_t back = 0;
    mem.read(0x1234, &back, 8);
    EXPECT_EQ(back, v);
    EXPECT_EQ(mem.pagesAllocated(), 1u);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory mem;
    std::vector<std::uint8_t> data(8192, 0xAB);
    mem.write(MainMemory::PAGE_SIZE - 100, data.data(), data.size());
    std::vector<std::uint8_t> back(8192, 0);
    mem.read(MainMemory::PAGE_SIZE - 100, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(mem.pagesAllocated(), 3u);
}

// ---------------------------------------------------------- MemoryManager

TEST(MemoryManager, AllocateIsAlignedAndDisjoint)
{
    MemoryManager mm(4, 1 << 20);
    addr_t a = mm.allocate(10);
    addr_t b = mm.allocate(100);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 16, 0u);
    EXPECT_GE(b, a + 16);
    EXPECT_EQ(mm.allocationCount(), 2u);
}

TEST(MemoryManager, FreeListReusesAndCoalesces)
{
    MemoryManager mm(1, 1 << 20);
    addr_t a = mm.allocate(64);
    addr_t b = mm.allocate(64);
    addr_t c = mm.allocate(64);
    mm.deallocate(a);
    mm.deallocate(b); // coalesces with a
    (void)c;
    addr_t big = mm.allocate(128); // fits in the coalesced hole
    EXPECT_EQ(big, a);
}

TEST(MemoryManager, DoubleFreeIsFatal)
{
    MemoryManager mm(1, 1 << 20);
    addr_t a = mm.allocate(8);
    mm.deallocate(a);
    EXPECT_THROW(mm.deallocate(a), FatalError);
}

TEST(MemoryManager, BrkSemantics)
{
    MemoryManager mm(1, 1 << 20);
    addr_t base = mm.brk(0);
    EXPECT_EQ(base, AddressSpaceLayout::HEAP_BASE);
    addr_t grown = mm.brk(base + 4096);
    EXPECT_EQ(grown, base + 4096);
    // Out-of-segment request fails by returning the old break.
    EXPECT_EQ(mm.brk(1), grown);
}

TEST(MemoryManager, MmapMunmap)
{
    MemoryManager mm(1, 1 << 20);
    addr_t r = mm.mmap(100);
    EXPECT_EQ(r % 4096, 0u);
    EXPECT_GE(r, AddressSpaceLayout::MMAP_BASE);
    mm.munmap(r, 100);
    EXPECT_THROW(mm.munmap(r, 100), FatalError); // already unmapped
}

TEST(MemoryManager, StacksPartitionedPerTile)
{
    MemoryManager mm(8, 1 << 20);
    for (tile_id_t t = 0; t + 1 < 8; ++t)
        EXPECT_EQ(mm.stackBase(t + 1) - mm.stackBase(t), 1u << 20);
    EXPECT_GE(mm.stackBase(0), AddressSpaceLayout::STACK_BASE);
}

TEST(AddressSpaceLayout, SegmentNames)
{
    EXPECT_STREQ(AddressSpaceLayout::segmentName(0x2000), "code");
    EXPECT_STREQ(
        AddressSpaceLayout::segmentName(AddressSpaceLayout::HEAP_BASE),
        "heap");
    EXPECT_STREQ(
        AddressSpaceLayout::segmentName(AddressSpaceLayout::STACK_BASE),
        "stack");
    EXPECT_STREQ(AddressSpaceLayout::segmentName(0xFFFF'FFFF'0000ull),
                 "unmapped");
}

} // namespace
} // namespace graphite
