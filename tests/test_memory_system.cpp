/**
 * @file
 * Integration tests of the MSI coherence engine: state transitions,
 * functional data movement, miss classification, atomics, kernel-side
 * coherent access, and a randomized property stress that checks the
 * full invariant set after every phase.
 */

#include <gtest/gtest.h>

#include "common/config.h"
#include <cstring>

#include "common/lockdep.h"
#include "common/rng.h"
#include "mem/memory_system.h"

namespace graphite
{
namespace
{

struct MemFixture
{
    explicit MemFixture(int tiles = 4, Config overrides = Config())
        : cfg(defaultTargetConfig())
    {
        cfg.setInt("general/total_tiles", tiles);
        cfg.parseText(overrides.toString());
        topo = std::make_unique<ClusterTopology>(tiles, 1);
        fabric = std::make_unique<NetworkFabric>(*topo, cfg);
        mem = std::make_unique<MemorySystem>(*topo, *fabric, cfg);
    }

    std::uint64_t
    read64(tile_id_t tile, addr_t addr, cycle_t t = 0)
    {
        std::uint64_t v = 0;
        mem->access(tile, MemAccessType::Read, addr, &v, 8, t);
        return v;
    }

    AccessResult
    write64(tile_id_t tile, addr_t addr, std::uint64_t v, cycle_t t = 0)
    {
        return mem->access(tile, MemAccessType::Write, addr, &v, 8, t);
    }

    Config cfg;
    std::unique_ptr<ClusterTopology> topo;
    std::unique_ptr<NetworkFabric> fabric;
    std::unique_ptr<MemorySystem> mem;
};

const addr_t A = 0x1000'0000; // heap base, line-aligned

// -------------------------------------------------------- MSI transitions

TEST(Msi, ReadInstallsShared)
{
    MemFixture f;
    f.read64(0, A);
    tile_id_t home = f.mem->homeTile(A);
    DirectoryEntry* e = f.mem->directory(home).peek(A);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state(), DirectoryState::Shared);
    EXPECT_TRUE(e->isSharer(0));
    EXPECT_EQ(f.mem->l2(0).find(A)->state, CacheState::Shared);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, WriteInstallsModified)
{
    MemFixture f;
    f.write64(1, A, 77);
    tile_id_t home = f.mem->homeTile(A);
    DirectoryEntry* e = f.mem->directory(home).peek(A);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state(), DirectoryState::Modified);
    EXPECT_EQ(e->owner(), 1);
    EXPECT_EQ(f.read64(1, A), 77u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, WriteInvalidatesSharers)
{
    MemFixture f;
    f.read64(0, A);
    f.read64(1, A);
    f.read64(2, A);
    f.write64(3, A, 5);
    EXPECT_EQ(f.mem->l2(0).find(A), nullptr);
    EXPECT_EQ(f.mem->l2(1).find(A), nullptr);
    EXPECT_EQ(f.mem->l2(2).find(A), nullptr);
    EXPECT_GT(f.mem->stats(3).invalidationsSent, 0u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, ReadRecallsAndDowngradesOwner)
{
    MemFixture f;
    f.write64(0, A, 99);
    EXPECT_EQ(f.read64(1, A), 99u); // data travels via recall
    tile_id_t home = f.mem->homeTile(A);
    DirectoryEntry* e = f.mem->directory(home).peek(A);
    EXPECT_EQ(e->state(), DirectoryState::Shared);
    EXPECT_TRUE(e->isSharer(0));
    EXPECT_TRUE(e->isSharer(1));
    EXPECT_EQ(f.mem->l2(0).find(A)->state, CacheState::Shared);
    EXPECT_GT(f.mem->stats(1).recalls, 0u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, WriteRecallsAndInvalidatesOwner)
{
    MemFixture f;
    f.write64(0, A, 11);
    f.write64(1, A, 22); // ownership migrates 0 -> 1
    EXPECT_EQ(f.mem->l2(0).find(A), nullptr);
    tile_id_t home = f.mem->homeTile(A);
    EXPECT_EQ(f.mem->directory(home).peek(A)->owner(), 1);
    EXPECT_EQ(f.read64(0, A), 22u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, UpgradeKeepsDataInPlace)
{
    MemFixture f;
    f.read64(2, A);
    AccessResult r = f.write64(2, A, 7);
    EXPECT_EQ(r.missClass, MissClass::Upgrade);
    EXPECT_EQ(f.mem->stats(2).l2UpgradeMisses, 1u);
    EXPECT_EQ(f.mem->l2(2).find(A)->state, CacheState::Modified);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, LatencyGrowsWithDistanceAndLevel)
{
    MemFixture f(16);
    // First access: full miss. Second: L1 hit.
    std::uint64_t v;
    AccessResult miss =
        f.mem->access(0, MemAccessType::Read, A, &v, 8, 0);
    AccessResult hit =
        f.mem->access(0, MemAccessType::Read, A, &v, 8, miss.latency);
    EXPECT_GT(miss.latency, hit.latency);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_FALSE(miss.l1Hit);
}

TEST(Msi, CrossLineAccessSplits)
{
    MemFixture f;
    std::vector<std::uint8_t> buf(200, 0x5A);
    f.mem->access(0, MemAccessType::Write, A + 30, buf.data(),
                  buf.size(), 0);
    std::vector<std::uint8_t> back(200, 0);
    f.mem->access(1, MemAccessType::Read, A + 30, back.data(),
                  back.size(), 0);
    EXPECT_EQ(back, buf);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Msi, InstructionFetchUsesL1I)
{
    MemFixture f;
    std::uint32_t word = 0;
    f.mem->access(0, MemAccessType::Fetch, 0x2000, &word, 4, 0);
    EXPECT_NE(f.mem->l1i(0)->find(0x2000), nullptr);
    EXPECT_EQ(f.mem->l1d(0)->find(0x2000), nullptr);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

// ------------------------------------------------------------- L1/L2 paths

TEST(Hierarchy, L1InclusionOnL2Eviction)
{
    // Tiny L2 (4 lines) forces evictions; L1 copies must go too.
    Config over;
    over.setInt("perf_model/l2_cache/cache_size", 256);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(2, over);
    for (int i = 0; i < 16; ++i)
        f.read64(0, A + static_cast<addr_t>(i) * 64);
    EXPECT_EQ(f.mem->validateCoherence(), ""); // inclusion checked there
    EXPECT_GT(f.mem->l2(0).evictions(), 0u);
}

TEST(Hierarchy, DirtyEvictionWritesBack)
{
    Config over;
    over.setInt("perf_model/l2_cache/cache_size", 256);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(2, over);
    f.write64(0, A, 0xAB);
    for (int i = 1; i < 16; ++i)
        f.write64(0, A + static_cast<addr_t>(i) * 64,
                  static_cast<std::uint64_t>(i));
    // The first line was evicted dirty; its data must be in memory.
    std::uint64_t v = 0;
    f.mem->backing().read(A, &v, 8);
    EXPECT_EQ(v, 0xABu);
    EXPECT_GT(f.mem->stats(0).writebacks, 0u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Hierarchy, DisabledL1StillWorks)
{
    Config over;
    over.setBool("perf_model/l1_dcache/enabled", false);
    over.setBool("perf_model/l1_icache/enabled", false);
    MemFixture f(2, over);
    EXPECT_EQ(f.mem->l1d(0), nullptr);
    f.write64(0, A, 42);
    EXPECT_EQ(f.read64(1, A), 42u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Hierarchy, ValidateCoherenceAt64Tiles)
{
    // validateCoherence() holds every shard lock and every tile lock at
    // once, and a write to a line all tiles share locks every sharer.
    // Lockdep's held set must not grow with the tile count.
    lockdep::Mode saved = lockdep::mode();
    lockdep::setMode(lockdep::Mode::Enforce);
    MemFixture f(64);
    for (tile_id_t t = 0; t < 64; ++t)
        f.read64(t, A);
    f.write64(0, A, 5);
    EXPECT_EQ(f.read64(63, A), 5u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
    lockdep::setMode(saved);
}

// ------------------------------------------------------ miss classification

TEST(MissClass, ColdThenCapacity)
{
    Config over;
    over.setInt("perf_model/l2_cache/cache_size", 256);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(1, over);
    std::uint64_t v = 0;
    AccessResult first = f.mem->access(0, MemAccessType::Read, A, &v, 8, 0);
    EXPECT_EQ(first.missClass, MissClass::Cold);
    // Blow the cache, then return: capacity miss.
    for (int i = 1; i < 32; ++i)
        f.read64(0, A + static_cast<addr_t>(i) * 64);
    AccessResult again =
        f.mem->access(0, MemAccessType::Read, A, &v, 8, 0);
    EXPECT_EQ(again.missClass, MissClass::Capacity);
    EXPECT_GT(f.mem->stats(0).l2CapacityMisses, 0u);
}

TEST(MissClass, TrueVsFalseSharing)
{
    MemFixture f;
    // Tile 0 reads words 0 and 8 of a line; tile 1 writes word 0.
    f.read64(0, A);
    std::uint32_t w = 1;
    f.mem->access(1, MemAccessType::Write, A, &w, 4, 0);
    // Tile 0 re-reads the written word: true sharing.
    std::uint32_t v;
    AccessResult t =
        f.mem->access(0, MemAccessType::Read, A, &v, 4, 0);
    EXPECT_EQ(t.missClass, MissClass::TrueSharing);

    // Again, but tile 0 re-reads an untouched word: false sharing.
    f.mem->access(1, MemAccessType::Write, A, &w, 4, 0); // re-own
    AccessResult fs =
        f.mem->access(0, MemAccessType::Read, A + 32, &v, 4, 0);
    EXPECT_EQ(fs.missClass, MissClass::FalseSharing);
    EXPECT_EQ(f.mem->stats(0).l2TrueSharingMisses, 1u);
    EXPECT_EQ(f.mem->stats(0).l2FalseSharingMisses, 1u);
}

// ----------------------------------------------------------------- atomics

TEST(Atomics, RmwIsOneTransaction)
{
    MemFixture f;
    std::uint32_t init = 10;
    f.mem->access(0, MemAccessType::Write, A, &init, 4, 0);
    auto r = f.mem->atomicRmw(
        1, A, 4, [](std::uint64_t v) { return v + 5; }, 0);
    EXPECT_EQ(r.oldValue, 10u);
    std::uint32_t now;
    f.mem->access(0, MemAccessType::Read, A, &now, 4, 0);
    EXPECT_EQ(now, 15u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

// ------------------------------------------------------- coherent (kernel)

TEST(CoherentAccess, ReadsSeeModifiedData)
{
    MemFixture f;
    f.write64(2, A, 1234); // dirty in tile 2's L2, memory stale
    std::uint64_t v = 0;
    f.mem->readCoherent(A, &v, 8);
    EXPECT_EQ(v, 1234u);
}

TEST(CoherentAccess, WritesInvalidateStaleCopies)
{
    MemFixture f;
    f.read64(0, A);
    f.read64(1, A);
    std::uint64_t v = 555;
    f.mem->writeCoherent(A, &v, 8);
    EXPECT_EQ(f.mem->l2(0).find(A), nullptr);
    EXPECT_EQ(f.read64(0, A), 555u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

// ------------------------------------------------------- property testing

class MsiStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MsiStress, RandomOpsPreserveInvariantsAndData)
{
    // Reference model: a plain byte array. After every batch of random
    // reads/writes (single-threaded, so the reference is exact), every
    // simulated read must match it and all coherence invariants hold.
    Config over;
    over.setInt("perf_model/l2_cache/cache_size", 4096);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(8, over);
    Rng rng(GetParam());
    constexpr addr_t BASE = 0x1000'0000;
    constexpr size_t SPAN = 4096; // 64 lines across 8 homes
    std::vector<std::uint8_t> ref(SPAN, 0);

    for (int step = 0; step < 2000; ++step) {
        auto tile = static_cast<tile_id_t>(rng.nextBounded(8));
        addr_t off = rng.nextBounded(SPAN - 8);
        if (rng.nextBounded(2) == 0) {
            std::uint64_t v = rng.next();
            size_t size = 1ull << rng.nextBounded(4); // 1..8 bytes
            f.mem->access(tile, MemAccessType::Write, BASE + off, &v,
                          size, 0);
            std::memcpy(ref.data() + off, &v, size);
        } else {
            std::uint64_t v = 0, expect = 0;
            size_t size = 1ull << rng.nextBounded(4);
            f.mem->access(tile, MemAccessType::Read, BASE + off, &v,
                          size, 0);
            std::memcpy(&expect, ref.data() + off, size);
            ASSERT_EQ(v, expect) << "step " << step;
        }
        if (step % 500 == 499) {
            ASSERT_EQ(f.mem->validateCoherence(), "")
                << "step " << step;
        }
    }
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsiStress,
                         ::testing::Values(1, 2, 3, 17, 99));

class MsiStressDirectories
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(MsiStressDirectories, AllSchemesStayFunctionallyCorrect)
{
    // The same stress under each directory scheme: limited directories
    // must stay *functionally* identical (only timing differs).
    Config over;
    over.set("caching_protocol/directory_type", GetParam());
    over.setInt("caching_protocol/max_sharers", 2);
    MemFixture f(8, over);
    Rng rng(7);
    constexpr addr_t BASE = 0x1000'0000;
    constexpr size_t SPAN = 1024;
    std::vector<std::uint8_t> ref(SPAN, 0);

    for (int step = 0; step < 1500; ++step) {
        auto tile = static_cast<tile_id_t>(rng.nextBounded(8));
        addr_t off = rng.nextBounded(SPAN - 8) & ~7ull;
        if (rng.nextBounded(3) == 0) {
            std::uint64_t v = rng.next();
            f.mem->access(tile, MemAccessType::Write, BASE + off, &v, 8,
                          0);
            std::memcpy(ref.data() + off, &v, 8);
        } else {
            std::uint64_t v = 0, expect = 0;
            f.mem->access(tile, MemAccessType::Read, BASE + off, &v, 8,
                          0);
            std::memcpy(&expect, ref.data() + off, 8);
            ASSERT_EQ(v, expect) << "step " << step;
        }
    }
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

INSTANTIATE_TEST_SUITE_P(Schemes, MsiStressDirectories,
                         ::testing::Values("full_map",
                                           "limited_no_broadcast",
                                           "limitless"),
                         [](const auto& info) {
                             std::string s = info.param;
                             return s;
                         });

} // namespace
} // namespace graphite

namespace graphite
{
namespace
{

Config
mesiOverride()
{
    Config over;
    over.set("caching_protocol/type", "dir_mesi");
    return over;
}

TEST(Mesi, FirstReadGrantsExclusive)
{
    MemFixture f(4, mesiOverride());
    f.read64(0, A);
    EXPECT_EQ(f.mem->l2(0).find(A)->state, CacheState::Exclusive);
    tile_id_t home = f.mem->homeTile(A);
    DirectoryEntry* e = f.mem->directory(home).peek(A);
    EXPECT_EQ(e->state(), DirectoryState::Modified);
    EXPECT_EQ(e->owner(), 0);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Mesi, SilentUpgradeSkipsDirectory)
{
    MemFixture f(4, mesiOverride());
    f.read64(0, A);
    AccessResult w = f.write64(0, A, 9);
    // No upgrade transaction: the write hit the Exclusive line.
    EXPECT_EQ(w.missClass, MissClass::None);
    EXPECT_EQ(f.mem->stats(0).l2UpgradeMisses, 0u);
    EXPECT_EQ(f.mem->l2(0).find(A)->state, CacheState::Modified);
    EXPECT_EQ(f.read64(0, A), 9u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Mesi, MsiStillPaysTheUpgrade)
{
    MemFixture f(4); // default MSI
    f.read64(0, A);
    AccessResult w = f.write64(0, A, 9);
    EXPECT_EQ(w.missClass, MissClass::Upgrade);
    EXPECT_EQ(f.mem->stats(0).l2UpgradeMisses, 1u);
}

TEST(Mesi, SecondReaderDowngradesCleanOwner)
{
    MemFixture f(4, mesiOverride());
    f.read64(0, A);
    EXPECT_EQ(f.read64(1, A), 0u); // recall from the clean owner
    EXPECT_EQ(f.mem->l2(0).find(A)->state, CacheState::Shared);
    EXPECT_EQ(f.mem->l2(1).find(A)->state, CacheState::Shared);
    tile_id_t home = f.mem->homeTile(A);
    EXPECT_EQ(f.mem->directory(home).peek(A)->state(),
              DirectoryState::Shared);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Mesi, WriteRecallsExclusiveOwner)
{
    MemFixture f(4, mesiOverride());
    f.read64(0, A); // tile 0 Exclusive
    f.write64(1, A, 77);
    EXPECT_EQ(f.mem->l2(0).find(A), nullptr);
    EXPECT_EQ(f.read64(0, A), 77u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST(Mesi, CleanEvictionLapsesOwnership)
{
    Config over = mesiOverride();
    over.setInt("perf_model/l2_cache/cache_size", 256);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(1, over);
    f.read64(0, A); // Exclusive
    for (int i = 1; i < 16; ++i)
        f.read64(0, A + static_cast<addr_t>(i) * 64); // evict it clean
    tile_id_t home = f.mem->homeTile(A);
    DirectoryEntry* e = f.mem->directory(home).peek(A);
    EXPECT_EQ(e->state(), DirectoryState::Uncached);
    EXPECT_EQ(f.read64(0, A), 0u); // refetch works
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

TEST_P(MsiStress, MesiRandomOpsPreserveInvariantsAndData)
{
    Config over = mesiOverride();
    over.setInt("perf_model/l2_cache/cache_size", 4096);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(8, over);
    Rng rng(GetParam() ^ 0x4D455349ull);
    constexpr addr_t BASE = 0x1000'0000;
    constexpr size_t SPAN = 4096;
    std::vector<std::uint8_t> ref(SPAN, 0);

    for (int step = 0; step < 2000; ++step) {
        auto tile = static_cast<tile_id_t>(rng.nextBounded(8));
        addr_t off = rng.nextBounded(SPAN - 8);
        if (rng.nextBounded(2) == 0) {
            std::uint64_t v = rng.next();
            size_t size = 1ull << rng.nextBounded(4);
            f.mem->access(tile, MemAccessType::Write, BASE + off, &v,
                          size, 0);
            std::memcpy(ref.data() + off, &v, size);
        } else {
            std::uint64_t v = 0, expect = 0;
            size_t size = 1ull << rng.nextBounded(4);
            f.mem->access(tile, MemAccessType::Read, BASE + off, &v,
                          size, 0);
            std::memcpy(&expect, ref.data() + off, size);
            ASSERT_EQ(v, expect) << "step " << step;
        }
        if (step % 500 == 499) {
            ASSERT_EQ(f.mem->validateCoherence(), "")
                << "step " << step;
        }
    }
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

} // namespace
} // namespace graphite
