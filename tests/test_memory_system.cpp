/**
 * @file
 * Integration tests of the MSI coherence engine: state transitions,
 * functional data movement, miss classification, atomics, kernel-side
 * coherent access, a randomized property stress that checks the
 * full invariant set after every phase, and a cycle-exact timing pin of
 * every protocol and directory scheme.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>

#include "common/config.h"
#include "common/lockdep.h"
#include "common/rng.h"
#include "core/simulator.h"
#include "mem/memory_system.h"
#include "obs/span/span_sink.h"
#include "snapshot/snapshot.h"
#include "workloads/registry.h"

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

// --------------------------------------------------------------- snapshot

TEST(MemSnapshot, SavedTotalsMustMatchTheTileCounters)
{
    Config over;
    over.setInt("perf_model/l2_cache/cache_size", 256);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(2, over);
    for (int i = 0; i < 16; ++i)
        f.write64(i % 2, A + static_cast<addr_t>(i) * 64, i);
    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    f.mem->serialize(save);
    std::vector<std::uint8_t> blob = w.finish();

    MemFixture g(2, over);
    snapshot::SnapshotReader intact(blob);
    snapshot::Archive restore(intact);
    EXPECT_NO_THROW(g.mem->serialize(restore));

    // Re-seal the stream (8-byte header and checksum trailer) with the
    // last saved total, the writebacks, off by one.
    std::vector<std::uint8_t> body(blob.begin() + 8, blob.end() - 8);
    ++body[body.size() - 8];
    snapshot::SnapshotWriter tampered;
    for (std::uint8_t byte : body)
        tampered.u8(byte);
    snapshot::SnapshotReader r(tampered.finish());
    snapshot::Archive restore_tampered(r);
    EXPECT_THROW(g.mem->serialize(restore_tampered),
                 snapshot::SnapshotError);
}

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

// A write commit marks its words in the writer's L2 line; the marks
// reach the home's word versions only when that copy loses write
// permission. Until then the classifier adds the current owner's marks.

/** Write one 4-byte word, word index @p w of line @p line. */
AccessResult
writeWord(MemFixture& f, tile_id_t tile, addr_t line, int w)
{
    std::uint32_t v = 0xabcd0000u + static_cast<std::uint32_t>(w);
    return f.mem->access(tile, MemAccessType::Write,
                         line + static_cast<addr_t>(w) * 4, &v, 4, 0);
}

/** The miss class of @p tile's read of word @p w of line @p line. */
MissClass
readWordClass(MemFixture& f, tile_id_t tile, addr_t line, int w)
{
    std::uint32_t v = 0;
    return f.mem
        ->access(tile, MemAccessType::Read,
                 line + static_cast<addr_t>(w) * 4, &v, 4, 0)
        .missClass;
}

TEST(MissClass, PendingOwnerMaskCountsBeforeAnyFold)
{
    for (int read : {5, 6}) {
        MemFixture f;
        f.read64(0, A);
        writeWord(f, 1, A, 5); // invalidates tile 0's copy
        const CacheLine* owned = f.mem->l2(1).find(A);
        ASSERT_NE(owned, nullptr);
        EXPECT_EQ(owned->state, CacheState::Modified);
        EXPECT_EQ(owned->writtenWords, 1u << 5);
        EXPECT_EQ(readWordClass(f, 0, A, read),
                  read == 5 ? MissClass::TrueSharing
                            : MissClass::FalseSharing)
            << "word " << read;
        // The read recalled the owner's copy: its mask is folded.
        EXPECT_EQ(f.mem->l2(1).find(A)->writtenWords, 0u);
        EXPECT_EQ(f.mem->validateCoherence(), "");
    }
}

/** How the writer's copy loses write permission. */
enum class OwnerLoss
{
    Replacement,  ///< evicted by two conflicting reads on its own tile
    Downgrade,    ///< recalled to Shared by a third tile's read
    Invalidation  ///< recalled by a third tile's write of another word
};

/**
 * Tile 0 reads line A and loses it to tile 1's write of word
 * @p written; tile 1 then loses write permission by @p loss (a third
 * tile's write takes the word after the middle one). Returns
 * the class of tile 0's read of word @p read. The L2s hold two sets of
 * two ways of @p line_bytes lines. Under dir_mesi tile 1 first evicts
 * the line it took by a write of the middle word and reads it back
 * alone, so its write of @p written is a silent E->M upgrade.
 */
MissClass
classAfterOwnerLoss(const std::string& protocol, OwnerLoss loss,
                    int written, int read, std::int64_t line_bytes = 64)
{
    Config over;
    over.set("caching_protocol/type", protocol);
    over.setInt("perf_model/l2_cache/line_size", line_bytes);
    over.setInt("perf_model/l2_cache/cache_size", 4 * line_bytes);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(4, over);
    const addr_t set_stride = 2 * static_cast<addr_t>(line_bytes);
    auto evict_a = [&](tile_id_t t) {
        f.read64(t, A + set_stride);
        f.read64(t, A + 2 * set_stride);
        EXPECT_EQ(f.mem->l2(t).find(A), nullptr);
    };
    const bool silent = protocol == "dir_mesi";
    f.read64(0, A);
    if (silent) {
        writeWord(f, 1, A, static_cast<int>(line_bytes / 8));
        evict_a(1);
        f.read64(1, A);
        EXPECT_EQ(f.mem->l2(1).find(A)->state, CacheState::Exclusive);
    }
    AccessResult w = writeWord(f, 1, A, written);
    EXPECT_EQ(w.missClass, silent ? MissClass::None : MissClass::Cold);
    EXPECT_EQ(f.mem->l2(1).find(A)->writtenWords, 1ULL << written);
    if (loss == OwnerLoss::Replacement) {
        evict_a(1);
    } else if (loss == OwnerLoss::Downgrade) {
        f.read64(2, A);
        EXPECT_EQ(f.mem->l2(1).find(A)->state, CacheState::Shared);
        EXPECT_EQ(f.mem->l2(1).find(A)->writtenWords, 0u);
    } else {
        writeWord(f, 2, A, static_cast<int>(line_bytes / 8) + 1);
        EXPECT_EQ(f.mem->l2(1).find(A), nullptr);
    }
    MissClass mc = readWordClass(f, 0, A, read);
    EXPECT_EQ(f.mem->validateCoherence(), "");
    return mc;
}

TEST(MissClass, OwnerLossFoldsItsMask)
{
    for (const char* protocol : {"dir_msi", "dir_mesi"}) {
        for (OwnerLoss loss :
             {OwnerLoss::Replacement, OwnerLoss::Downgrade,
              OwnerLoss::Invalidation}) {
            SCOPED_TRACE(std::string(protocol) + " loss " +
                         std::to_string(static_cast<int>(loss)));
            EXPECT_EQ(classAfterOwnerLoss(protocol, loss, 5, 5),
                      MissClass::TrueSharing);
            EXPECT_EQ(classAfterOwnerLoss(protocol, loss, 5, 6),
                      MissClass::FalseSharing);
        }
    }
}

TEST(MissClass, TopWordOfA256ByteLine)
{
    for (const char* protocol : {"dir_msi", "dir_mesi"}) {
        SCOPED_TRACE(protocol);
        EXPECT_EQ(classAfterOwnerLoss(protocol, OwnerLoss::Downgrade, 63,
                                      63, 256),
                  MissClass::TrueSharing);
        EXPECT_EQ(classAfterOwnerLoss(protocol, OwnerLoss::Replacement,
                                      63, 63, 256),
                  MissClass::TrueSharing);
        EXPECT_EQ(classAfterOwnerLoss(protocol, OwnerLoss::Replacement,
                                      63, 62, 256),
                  MissClass::FalseSharing);
    }
    // Pending, before any fold.
    Config over;
    over.setInt("perf_model/l2_cache/line_size", 256);
    MemFixture f(4, over);
    f.read64(0, A);
    writeWord(f, 1, A, 63);
    EXPECT_EQ(f.mem->l2(1).find(A)->writtenWords, 1ULL << 63);
    EXPECT_EQ(readWordClass(f, 0, A, 63), MissClass::TrueSharing);
}

TEST(MissClass, WriteCoherentAfterTheLossCounts)
{
    // Word 0 changed through tile 1's copy, which the kernel write
    // demotes; word 9 through the kernel write itself.
    for (int read : {0, 9, 10}) {
        MemFixture f;
        f.read64(0, A);
        writeWord(f, 1, A, 0); // tile 0 loses the line
        std::uint32_t v = 7;
        f.mem->writeCoherent(A + 9 * 4, &v, 4);
        EXPECT_EQ(f.mem->l2(1).find(A), nullptr);
        EXPECT_EQ(readWordClass(f, 0, A, read),
                  read == 10 ? MissClass::FalseSharing
                             : MissClass::TrueSharing)
            << "word " << read;
    }
}

TEST(MissClass, PendingMaskCrossesACheckpoint)
{
    MemFixture f;
    f.read64(0, A);
    writeWord(f, 1, A, 3);
    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    f.mem->serialize(save);
    std::vector<std::uint8_t> blob = w.finish();

    MemFixture g;
    snapshot::SnapshotReader r(blob);
    snapshot::Archive restore(r);
    g.mem->serialize(restore);
    ASSERT_NE(g.mem->l2(1).find(A), nullptr);
    EXPECT_EQ(g.mem->l2(1).find(A)->writtenWords, 1u << 3);
    EXPECT_EQ(readWordClass(g, 0, A, 3), MissClass::TrueSharing);
    EXPECT_EQ(g.mem->validateCoherence(), "");
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

// --------------------------------------------------------- cache counters

TEST(CacheCounters, EachAccessKindChargesItsLevels)
{
    // Two ways per set in the L1d (4 sets) and the L2 (8 sets), so A
    // and C, 512 bytes apart, fill one set at both levels; D, S and I
    // each have a set of their own.
    Config over = mesiOverride();
    over.setInt("perf_model/l1_dcache/cache_size", 512);
    over.setInt("perf_model/l1_dcache/associativity", 2);
    over.setInt("perf_model/l2_cache/cache_size", 1024);
    over.setInt("perf_model/l2_cache/associativity", 2);
    MemFixture f(2, over);
    const addr_t C = A + 512, D = A + 64, S = A + 128, I = A + 192;
    Cache& l1i = *f.mem->l1i(0);
    Cache& l1d = *f.mem->l1d(0);
    Cache& l2 = f.mem->l2(0);
    using Counts = std::array<stat_t, 6>;
    // Tile 0's {L1i, L1d, L2} x {accesses, misses}.
    auto counts = [&] {
        return Counts{l1i.accesses(), l1i.misses(), l1d.accesses(),
                      l1d.misses(),   l2.accesses(),  l2.misses()};
    };
    auto atomicAdd = [&](addr_t a) {
        f.mem->atomicRmw(
            0, a, 8, [](std::uint64_t v) { return v + 1; }, 0);
    };
    std::uint32_t word = 0;

    f.read64(0, A); // cold: Exclusive in the L2, a copy in the L1d
    EXPECT_EQ(counts(), (Counts{0, 0, 1, 1, 1, 1}));
    f.read64(0, A); // L1 read hit
    EXPECT_EQ(counts(), (Counts{0, 0, 2, 1, 1, 1}));

    atomicAdd(C); // an atomic bypasses the L1: C is in the L2 alone
    EXPECT_EQ(counts(), (Counts{0, 0, 2, 1, 2, 2}));
    f.read64(0, C); // misses the L1, hits the L2
    EXPECT_EQ(counts(), (Counts{0, 0, 3, 2, 3, 2}));
    f.write64(0, C, 5); // write hit with an L1d copy
    EXPECT_EQ(counts(), (Counts{0, 0, 4, 2, 4, 2}));

    atomicAdd(D);
    EXPECT_EQ(counts(), (Counts{0, 0, 4, 2, 5, 3}));
    f.write64(0, D, 6); // write hit without an L1d copy
    EXPECT_EQ(counts(), (Counts{0, 0, 5, 3, 6, 3}));
    EXPECT_NE(l1d.find(D), nullptr); // a plain write allocates

    f.read64(1, S); // tile 1 Exclusive; tile 0's counters stay
    f.read64(0, S); // both Shared
    EXPECT_EQ(counts(), (Counts{0, 0, 6, 4, 7, 4}));
    AccessResult up = f.write64(0, S, 7); // upgrade from Shared
    EXPECT_EQ(up.missClass, MissClass::Upgrade);
    EXPECT_EQ(counts(), (Counts{0, 0, 7, 4, 8, 5}));

    AccessResult silent = f.write64(0, A, 8); // MESI silent E -> M
    EXPECT_EQ(silent.missClass, MissClass::None);
    EXPECT_EQ(l2.find(A)->state, CacheState::Modified);
    EXPECT_EQ(counts(), (Counts{0, 0, 8, 4, 9, 5}));
    EXPECT_EQ(f.mem->stats(0).l2UpgradeMisses, 1u);

    f.mem->access(0, MemAccessType::Fetch, I, &word, 4, 0); // cold fetch
    EXPECT_EQ(counts(), (Counts{1, 1, 8, 4, 10, 6}));
    f.mem->access(0, MemAccessType::Fetch, I, &word, 4, 0); // L1i hit
    EXPECT_EQ(counts(), (Counts{2, 1, 8, 4, 10, 6}));

    // A's set: A was inserted first at both levels, but the silent
    // upgrade touched it last, so the next insert evicts C.
    const addr_t next = A + 1024;
    EXPECT_EQ(l1d.peekVictim(next), std::optional<addr_t>(C));
    EXPECT_EQ(l2.peekVictim(next), std::optional<addr_t>(C));
    f.read64(0, next);
    EXPECT_EQ(l2.find(C), nullptr);
    EXPECT_NE(l2.find(A), nullptr);
    EXPECT_EQ(f.read64(0, C), 5u); // C's write reached memory
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

// ------------------------------------------------------ protocol timing pin

/**
 * One cell of the protocol x directory-scheme timing pin: everything a
 * coherence message leg's order, time or size feeds into.
 */
struct PinCell
{
    const char* protocol;
    const char* directory;
    cycle_t cycles;
    /** Memory network: packets, bytes, total latency. */
    std::array<stat_t, 3> network;
    /** TileMemoryStats fields in declaration order, summed over tiles. */
    std::array<stat_t, 10> tileStats;
    /** Per home directory. */
    std::array<stat_t, 16> pointerEvictions;
    std::array<stat_t, 16> softwareTraps;
    /** SpanSink::stageCycles() in SpanStage order. */
    std::array<stat_t, obs::NUM_SPAN_STAGES> stageCycles;
};

/** @p c as the initializer that would pin it. */
std::string
formatPin(const PinCell& c)
{
    std::ostringstream os;
    auto list = [&os](const auto& values) {
        os << "{";
        for (size_t i = 0; i < values.size(); ++i)
            os << (i ? ", " : "") << values[i];
        os << "},\n";
    };
    os << "{\"" << c.protocol << "\", \"" << c.directory << "\", "
       << c.cycles << ",\n";
    list(c.network);
    list(c.tileStats);
    list(c.pointerEvictions);
    list(c.softwareTraps);
    list(c.stageCycles);
    os << "}";
    return os.str();
}

PinCell
measurePin(const char* protocol, const char* directory)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 16);
    cfg.set("host/scheduler", "deterministic");
    cfg.setBool("obs/spans_enabled", true);
    cfg.setInt("perf_model/l2_cache/cache_size", 16384);
    cfg.setInt("perf_model/l2_cache/associativity", 4);
    cfg.set("caching_protocol/type", protocol);
    cfg.set("caching_protocol/directory_type", directory);
    cfg.setInt("caching_protocol/max_sharers", 2);
    Simulator sim(cfg);
    workloads::WorkloadParams p;
    p.threads = 16;
    p.size = 8192;
    workloads::runSim(sim, workloads::findWorkload("radix"), p);

    PinCell c{protocol, directory, sim.simulatedTime(), {}, {}, {}, {},
              {}};
    const NetworkModel& net = sim.fabric().modelFor(PacketType::Memory);
    c.network = {net.packetsRouted(), net.bytesRouted(),
                 net.totalLatency()};
    MemorySystem& mem = sim.memory();
    for (tile_id_t t = 0; t < 16; ++t) {
        const TileMemoryStats& s = mem.stats(t);
        const stat_t fields[] = {
            s.totalAccesses,       s.totalLatency,
            s.l2ColdMisses,        s.l2CapacityMisses,
            s.l2TrueSharingMisses, s.l2FalseSharingMisses,
            s.l2UpgradeMisses,     s.invalidationsSent,
            s.recalls,             s.writebacks};
        for (size_t i = 0; i < c.tileStats.size(); ++i)
            c.tileStats[i] += fields[i];
        c.pointerEvictions[t] = mem.directory(t).pointerEvictions();
        c.softwareTraps[t] = mem.directory(t).softwareTraps();
    }
    for (int s = 0; s < obs::NUM_SPAN_STAGES; ++s)
        c.stageCycles[s] =
            sim.spanSink()->stageCycles(static_cast<obs::SpanStage>(s));
    return c;
}

// Reference values: a change that keeps simulated timing reproduces
// them exactly. One that moves timing on purpose re-records them from
// the failure message, which prints each measured cell in this form.
const PinCell PINNED[] = {
    {"dir_msi", "full_map", 743116,
     {19926, 997968, 4110152},
     {95715, 7373425, 2078, 2567, 105, 60, 2403, 402, 857, 2454},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {72035, 13146, 3402621, 50217, 72130, 11773, 232577, 1159007, 2360800,
      11226, 291820, 60119},
    },
    {"dir_msi", "limited_no_broadcast", 757379,
     {19965, 999096, 4198375},
     {95715, 7482797, 2078, 2567, 105, 63, 2403, 419, 857, 2454},
     {72, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {72065, 13176, 3475455, 50223, 72160, 242147, 191789, 1142468, 2361775,
      11256, 154177, 60152},
    },
    {"dir_msi", "limitless", 760821,
     {19926, 997968, 4220488},
     {95715, 7477304, 2078, 2567, 105, 60, 2403, 402, 857, 2454},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {72035, 13148, 3466350, 50217, 79130, 11022, 233348, 1161474, 2360800,
      11228, 322479, 60119},
    },
    {"dir_mesi", "full_map", 742809,
     {15816, 899392, 4093803},
     {95715, 7335597, 2078, 2567, 105, 60, 347, 402, 858, 2454},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {51475, 13136, 3398634, 44049, 51570, 11773, 232601, 1158413, 2360475,
      11216, 291790, 53951},
    },
    {"dir_mesi", "limited_no_broadcast", 757072,
     {15855, 900520, 4182327},
     {95715, 7444969, 2078, 2567, 105, 63, 347, 419, 858, 2454},
     {72, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {51505, 13166, 3471775, 44055, 51600, 242147, 191813, 1141573, 2361450,
      11246, 154141, 53984},
    },
    {"dir_mesi", "limitless", 760514,
     {15816, 899392, 4204147},
     {95715, 7439476, 2078, 2567, 105, 60, 347, 402, 858, 2454},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {51475, 13138, 3462367, 44049, 58570, 11022, 233372, 1160872, 2360475,
      11218, 322453, 53951},
    },
};

// Radix on 16 tiles under the deterministic scheduler, with a 16 KB
// 4-way L2 and two sharer pointers, so that capacity writebacks, recalls,
// Dir_iNB pointer evictions and LimitLESS traps all run in every cell.
TEST(ProtocolPin, EveryProtocolAndSchemeKeepsItsTiming)
{
    for (const PinCell& want : PINNED) {
        PinCell got = measurePin(want.protocol, want.directory);
        EXPECT_EQ(formatPin(got), formatPin(want));
    }
}

} // namespace
} // namespace graphite
