/**
 * @file
 * Concurrency stress for the two-level (tile + home-shard) locking in
 * MemorySystem: N host threads hammer private and shared lines with
 * plain accesses, atomicRmw, and kernel-side coherent access, then
 * every coherence invariant must still hold and per-tile access counts
 * must sum exactly. Run under GRAPHITE_SANITIZE=thread this doubles as
 * the tsan_mem CI entry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "mem/memory_system.h"

namespace graphite
{
namespace
{

#if defined(__SANITIZE_THREAD__)
constexpr int kIters = 2000; // TSan slows each access ~20x
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kIters = 2000;
#else
constexpr int kIters = 20000;
#endif
#else
constexpr int kIters = 20000;
#endif

struct MemFixture
{
    explicit MemFixture(int tiles = 8) : cfg(defaultTargetConfig())
    {
        cfg.setInt("general/total_tiles", tiles);
        topo = std::make_unique<ClusterTopology>(tiles, 1);
        fabric = std::make_unique<NetworkFabric>(*topo, cfg);
        mem = std::make_unique<MemorySystem>(*topo, *fabric, cfg);
        mem->registerStats(stats);
    }

    Config cfg;
    std::unique_ptr<ClusterTopology> topo;
    std::unique_ptr<NetworkFabric> fabric;
    std::unique_ptr<MemorySystem> mem;
    StatsRegistry stats;
};

const addr_t PRIVATE_BASE = 0x1000'0000; // line-aligned heap region
const addr_t SHARED_BASE = 0x2000'0000;

/** Sum of per-tile access counts — must match issued ops exactly. */
stat_t
sumTileAccesses(MemFixture& f, int tiles)
{
    stat_t total = 0;
    for (tile_id_t t = 0; t < tiles; ++t)
        total += f.mem->stats(t).totalAccesses;
    return total;
}

void
expectAggregatesConsistent(MemFixture& f, int tiles)
{
    stat_t l2_misses = 0, writebacks = 0;
    for (tile_id_t t = 0; t < tiles; ++t) {
        l2_misses += f.mem->l2(t).misses();
        writebacks += f.mem->stats(t).writebacks;
    }
    EXPECT_EQ(f.stats.get("mem.l2_misses_total"), l2_misses);
    EXPECT_EQ(f.stats.get("mem.writebacks_total"), writebacks);
    EXPECT_EQ(f.stats.get("mem.accesses_total"), sumTileAccesses(f, tiles));
    // The latency distribution counts application accesses only.
    std::optional<HistogramStat> latency =
        f.stats.histogram("mem.access_latency");
    ASSERT_TRUE(latency.has_value());
    EXPECT_LE(latency->count(), f.stats.get("mem.accesses_total"));
}

// Each thread owns one tile and hammers a private region: the pure
// fast-path case. No coherence traffic should corrupt anything, and
// every tile's counters must equal its own issue count.
TEST(MemConcurrency, PrivateLinesFastPath)
{
    constexpr int kThreads = 8;
    MemFixture f(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&f, i] {
            addr_t base = PRIVATE_BASE + static_cast<addr_t>(i) * 0x10000;
            Rng rng(1234 + i);
            for (int it = 0; it < kIters; ++it) {
                addr_t addr = base + (rng.next() % 64) * 8;
                std::uint64_t v = rng.next();
                f.mem->access(i, MemAccessType::Write, addr, &v, 8, it);
                std::uint64_t r = 0;
                f.mem->access(i, MemAccessType::Read, addr, &r, 8, it);
                EXPECT_EQ(r, v);
            }
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(f.mem->validateCoherence(), "");
    for (tile_id_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(f.mem->stats(t).totalAccesses,
                  static_cast<stat_t>(2 * kIters));
    expectAggregatesConsistent(f, kThreads);
    // No atomics here, so every access is in the merged distribution.
    EXPECT_EQ(f.stats.histogram("mem.access_latency")->count(),
              static_cast<stat_t>(2 * kIters * kThreads));
}

// All threads fight over a handful of shared lines: invalidations,
// recalls, and upgrades race on the same home shards.
TEST(MemConcurrency, SharedLineContention)
{
    constexpr int kThreads = 8;
    constexpr int kSharedLines = 4;
    MemFixture f(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&f, i] {
            Rng rng(99 + i);
            for (int it = 0; it < kIters / 2; ++it) {
                addr_t addr =
                    SHARED_BASE +
                    (rng.next() % kSharedLines) * f.mem->lineSize();
                if (rng.next() % 2 == 0) {
                    std::uint64_t v = rng.next();
                    f.mem->access(i, MemAccessType::Write, addr, &v, 8,
                                  it);
                } else {
                    std::uint64_t r = 0;
                    f.mem->access(i, MemAccessType::Read, addr, &r, 8,
                                  it);
                }
            }
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(f.mem->validateCoherence(), "");
    EXPECT_EQ(sumTileAccesses(f, kThreads),
              static_cast<stat_t>(kThreads) * (kIters / 2));
    expectAggregatesConsistent(f, kThreads);
}

// atomicRmw must stay atomic across tiles: a shared counter incremented
// from every thread lands on exactly threads*iters.
TEST(MemConcurrency, AtomicRmwSharedCounter)
{
    constexpr int kThreads = 8;
    MemFixture f(kThreads);
    const addr_t counter = SHARED_BASE;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&f, i] {
            for (int it = 0; it < kIters / 4; ++it) {
                f.mem->atomicRmw(
                    i, counter, 8,
                    [](std::uint64_t v) { return v + 1; }, it);
            }
        });
    }
    for (auto& t : threads)
        t.join();

    std::uint64_t final_val = 0;
    f.mem->readCoherent(counter, &final_val, 8);
    EXPECT_EQ(final_val,
              static_cast<std::uint64_t>(kThreads) * (kIters / 4));
    EXPECT_EQ(f.mem->validateCoherence(), "");
    expectAggregatesConsistent(f, kThreads);
}

// Kernel-side coherent reads/writes interleave with application traffic
// on the same lines; the directory must never desynchronize.
TEST(MemConcurrency, CoherentAccessMix)
{
    constexpr int kThreads = 8;
    MemFixture f(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&f, i] {
            Rng rng(7 + i);
            for (int it = 0; it < kIters / 4; ++it) {
                addr_t addr =
                    SHARED_BASE + (rng.next() % 8) * f.mem->lineSize();
                switch (rng.next() % 4) {
                  case 0: {
                    std::uint64_t v = rng.next();
                    f.mem->access(i, MemAccessType::Write, addr, &v, 8,
                                  it);
                    break;
                  }
                  case 1: {
                    std::uint64_t r = 0;
                    f.mem->access(i, MemAccessType::Read, addr, &r, 8,
                                  it);
                    break;
                  }
                  case 2: {
                    std::uint64_t v = rng.next();
                    f.mem->writeCoherent(addr, &v, 8);
                    break;
                  }
                  default: {
                    std::uint64_t r = 0;
                    f.mem->readCoherent(addr, &r, 8);
                    break;
                  }
                }
            }
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(f.mem->validateCoherence(), "");
    expectAggregatesConsistent(f, kThreads);
}

// Two host threads share one tile id (the paper's multiple-app-threads
// per tile case): the same-tile revalidation path must serialize them.
TEST(MemConcurrency, SameTileTwoThreads)
{
    MemFixture f(4);
    constexpr int kThreadsPerTile = 2;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreadsPerTile; ++i) {
        threads.emplace_back([&f, i] {
            Rng rng(41 + i);
            for (int it = 0; it < kIters / 2; ++it) {
                // Wide range so L2 victims force the transaction path.
                addr_t addr =
                    PRIVATE_BASE + (rng.next() % 8192) * f.mem->lineSize();
                std::uint64_t v = rng.next();
                f.mem->access(0, MemAccessType::Write, addr, &v, 8, it);
            }
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(f.mem->validateCoherence(), "");
    EXPECT_EQ(f.mem->stats(0).totalAccesses,
              static_cast<stat_t>(kThreadsPerTile) * (kIters / 2));
    expectAggregatesConsistent(f, 4);
}

// Wide working set: every thread streams through more lines than its L2
// holds, forcing evictions whose victims are homed on other shards
// (exercises the plan/validate/retry victim path).
TEST(MemConcurrency, EvictionStorm)
{
    constexpr int kThreads = 8;
    MemFixture f(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&f, i] {
            Rng rng(1700 + i);
            addr_t base = PRIVATE_BASE + static_cast<addr_t>(i) *
                                             0x4000'0000;
            for (int it = 0; it < kIters / 2; ++it) {
                addr_t addr =
                    base + (rng.next() % 16384) * f.mem->lineSize();
                std::uint64_t v = rng.next();
                f.mem->access(i, MemAccessType::Write, addr, &v, 8, it);
            }
        });
    }
    for (auto& t : threads)
        t.join();

    EXPECT_EQ(f.mem->validateCoherence(), "");
    EXPECT_EQ(sumTileAccesses(f, kThreads),
              static_cast<stat_t>(kThreads) * (kIters / 2));
    expectAggregatesConsistent(f, kThreads);
}

// Shard-lock contention statistics must be plausible: acquisitions
// cover at least every L2 miss, and contended <= acquisitions.
TEST(MemConcurrency, ContentionStatsSane)
{
    constexpr int kThreads = 4;
    MemFixture f(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&f, i] {
            Rng rng(55 + i);
            for (int it = 0; it < kIters / 4; ++it) {
                addr_t addr =
                    SHARED_BASE + (rng.next() % 4) * f.mem->lineSize();
                std::uint64_t v = rng.next();
                f.mem->access(i, MemAccessType::Write, addr, &v, 8, it);
            }
        });
    }
    for (auto& t : threads)
        t.join();

    stat_t acq = f.stats.get("mem.shard_lock.acquisitions");
    stat_t contended = f.stats.get("mem.shard_lock.contended");
    EXPECT_GE(acq, f.stats.get("mem.l2_misses_total"));
    EXPECT_LE(contended, acq);
    EXPECT_LE(f.stats.get("mem.tile_lock.contended"),
              f.stats.get("mem.tile_lock.acquisitions"));
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

// Plant contention deterministically (works even on a 1-CPU host): a
// holder thread pins a lock and signals once it owns it; an access
// issued strictly inside the hold window must lose the try-lock, so
// the contended counter and wait-time must both move. Guards against
// the counters silently reading zero forever.
TEST(MemConcurrency, PlantedContentionMovesCounters)
{
    MemFixture f(4);
    constexpr std::uint64_t kHoldNs = 50'000'000; // 50 ms

    // Tile lock: every access to tile 0 takes it.
    stat_t tile_before = f.stats.get("mem.tile_lock.contended");
    {
        std::atomic<bool> held{false};
        std::thread holder(
            [&] { f.mem->holdTileLockForTest(0, kHoldNs, &held); });
        while (!held.load(std::memory_order_acquire))
            std::this_thread::yield();
        std::uint64_t v = 1;
        f.mem->access(0, MemAccessType::Write, PRIVATE_BASE, &v, 8, 0);
        holder.join();
    }
    EXPECT_GT(f.stats.get("mem.tile_lock.contended"), tile_before);
    EXPECT_GT(f.stats.get("mem.tile_lock.wait_ns"), 0u);
    EXPECT_GT(f.stats.get("mem.tile_lock.acquisitions"), 0u);

    // Shard lock: a miss on a fresh line takes its home shard.
    addr_t fresh = SHARED_BASE + 64 * f.mem->lineSize();
    tile_id_t home = f.mem->homeTile(fresh);
    stat_t shard_before = f.stats.get("mem.shard_lock.contended");
    {
        std::atomic<bool> held{false};
        std::thread holder(
            [&] { f.mem->holdShardLockForTest(home, kHoldNs, &held); });
        while (!held.load(std::memory_order_acquire))
            std::this_thread::yield();
        std::uint64_t v = 2;
        f.mem->access(0, MemAccessType::Write, fresh, &v, 8, 0);
        holder.join();
    }
    EXPECT_GT(f.stats.get("mem.shard_lock.contended"), shard_before);
    EXPECT_GT(f.stats.get("mem.shard_lock.wait_ns"), 0u);
    EXPECT_EQ(f.mem->validateCoherence(), "");
}

} // namespace
} // namespace graphite
