/**
 * @file
 * Unit tests for the synchronization models (§3.6).
 * The models are driven directly with CoreModels on host threads, without
 * a full simulation; cases whose threads wait in the model attach a
 * HostScheduler, as every Simulator does.
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/config.h"
#include "common/log.h"
#include "perf/core_model.h"
#include "sched_test_util.h"
#include "sync/sync_model.h"

namespace graphite
{
namespace
{

Config
syncConfig(const std::string& model, cycle_t quantum = 1000,
           cycle_t slack = 100000)
{
    Config cfg = defaultTargetConfig();
    cfg.set("sync/model", model);
    cfg.setInt("sync/quantum", static_cast<std::int64_t>(quantum));
    cfg.setInt("sync/slack", static_cast<std::int64_t>(slack));
    return cfg;
}

TEST(SyncFactory, CreatesAllModels)
{
    for (const char* name : {"lax", "lax_p2p", "lax_barrier"}) {
        auto model = SyncModel::create(syncConfig(name), 4);
        EXPECT_EQ(model->name(), name);
    }
    EXPECT_THROW(SyncModel::create(syncConfig("bogus"), 4), FatalError);
}

TEST(LaxSync, NeverBlocks)
{
    LaxSync lax;
    Config cfg = defaultTargetConfig();
    CoreModel core(0, cfg);
    lax.threadStart(core);
    core.addLatency(1000000);
    lax.periodicSync(core); // returns immediately
    lax.threadExit(core);
    EXPECT_EQ(lax.syncEvents(), 0u);
}

TEST(LaxBarrier, KeepsTwoThreadsWithinQuanta)
{
    // Two threads advancing at very different rates: the barrier must
    // keep their clocks within a few quanta of each other.
    constexpr cycle_t QUANTUM = 1000;
    host::HostScheduler sched(testutil::unitSchedConfig(2, 1000000),
                              2);
    LaxBarrierSync barrier(QUANTUM, 2);
    barrier.attachScheduler(&sched);
    Config cfg = defaultTargetConfig();
    CoreModel fast(0, cfg), slow(1, cfg);
    testutil::registerTiles(sched, fast, slow);
    barrier.threadStart(fast);
    barrier.threadStart(slow);

    std::atomic<cycle_t> max_gap{0};
    auto runner = [&](CoreModel& core, cycle_t step, int iters) {
        sched.start(core.tileId());
        for (int i = 0; i < iters; ++i) {
            core.addLatency(step);
            barrier.periodicSync(core);
            cycle_t a = fast.cycle(), b = slow.cycle();
            cycle_t gap = a > b ? a - b : b - a;
            cycle_t prev = max_gap.load();
            while (gap > prev && !max_gap.compare_exchange_weak(prev,
                                                                gap)) {
            }
        }
        barrier.threadExit(core);
        sched.finishThread(core.tileId());
    };
    std::thread t1([&] { runner(fast, 500, 200); });   // 100k cycles
    std::thread t2([&] { runner(slow, 100, 1000); });  // 100k cycles
    t1.join();
    t2.join();
    EXPECT_GT(barrier.syncEvents(), 50u);
    // Each periodicSync step is <= 500 cycles, so the gap observed
    // right after a barrier is bounded by a couple of quanta.
    EXPECT_LE(max_gap.load(), 4 * QUANTUM);
}

TEST(LaxBarrier, BlockedThreadDoesNotDeadlockOthers)
{
    LaxBarrierSync barrier(100, 2);
    Config cfg = defaultTargetConfig();
    CoreModel a(0, cfg), b(1, cfg);
    barrier.threadStart(a);
    barrier.threadStart(b);
    // b blocks in "application synchronization" and cannot reach the
    // barrier; a must still be able to cross quanta.
    barrier.threadBlocked(b);
    std::thread runner([&] {
        for (int i = 0; i < 50; ++i) {
            a.addLatency(100);
            barrier.periodicSync(a);
        }
        barrier.threadExit(a);
    });
    runner.join(); // would hang forever if the barrier counted b
    barrier.threadUnblocked(b);
    barrier.threadExit(b);
    EXPECT_GE(a.cycle(), 5000u);
}

TEST(LaxP2P, BehindThreadDoesNotPark)
{
    LaxP2PSync p2p(2, 1000, 100, 42);
    Config cfg = defaultTargetConfig();
    CoreModel ahead(0, cfg), behind(1, cfg);
    p2p.threadStart(ahead);
    p2p.threadStart(behind);
    ahead.addLatency(100000);
    behind.addLatency(200);
    p2p.periodicSync(behind); // behind: partner ahead, no park
    EXPECT_EQ(p2p.syncEvents(), 0u);
}

TEST(LaxP2P, NoPartnerNoPark)
{
    LaxP2PSync p2p(4, 10, 100, 42);
    Config cfg = defaultTargetConfig();
    CoreModel only(2, cfg);
    p2p.threadStart(only);
    only.addLatency(100000);
    p2p.periodicSync(only); // no other active tile
    EXPECT_EQ(p2p.syncEvents(), 0u);
}

TEST(LaxP2P, ZeroSlackStaysLive)
{
    // slack = 0 makes every partner check with any clock difference a
    // park candidate; the model must still make forward progress.
    host::HostScheduler sched(testutil::unitSchedConfig(2, 1000000),
                              2);
    LaxP2PSync p2p(2, /*slack=*/0, /*interval=*/10, 42);
    p2p.attachScheduler(&sched);
    Config cfg = defaultTargetConfig();
    CoreModel a(0, cfg), b(1, cfg);
    testutil::registerTiles(sched, a, b);
    p2p.threadStart(a);
    p2p.threadStart(b);
    auto runner = [&](CoreModel& core) {
        sched.start(core.tileId());
        for (int i = 0; i < 100; ++i) {
            core.addLatency(10);
            p2p.periodicSync(core);
        }
        p2p.threadExit(core);
        sched.finishThread(core.tileId());
    };
    std::thread t1([&] { runner(a); });
    std::thread t2([&] { runner(b); });
    t1.join();
    t2.join(); // would hang here if zero slack could deadlock
    EXPECT_GE(a.cycle(), 1000u);
    EXPECT_GE(b.cycle(), 1000u);
}

} // namespace
} // namespace graphite
