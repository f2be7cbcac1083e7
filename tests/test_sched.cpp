/**
 * @file
 * Host execution scheduler tests (src/host/scheduler): config parsing,
 * pool smoke runs through the full Simulator, deterministic-mode
 * reproducibility across pool widths, skew parking under both
 * LaxBarrier and LaxP2P, and a free-running fuzz stress that doubles
 * as the tsan_sched CI entry under GRAPHITE_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "common/log.h"
#include "core/api.h"
#include "core/simulator.h"
#include "host/scheduler.h"
#include "perf/core_model.h"
#include "sched_test_util.h"
#include "sync/sync_model.h"

namespace graphite
{
namespace
{

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

Config
schedConfig(const std::string& mode, int host_threads, int tiles = 4)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", tiles);
    cfg.set("host/scheduler", mode);
    cfg.setInt("host/threads", host_threads);
    return cfg;
}

check::RunOptions
quickOpts()
{
    check::RunOptions opt;
    opt.watcherPeriodUs = 100;
    opt.validateEvery = 4;
    return opt;
}

// ------------------------------------------------------------------ config

TEST(SchedulerConfig, ParsesModesAndDefaults)
{
    Config cfg = defaultTargetConfig();
    host::SchedulerConfig sc = host::SchedulerConfig::fromConfig(cfg);
    EXPECT_EQ(sc.mode, host::SchedMode::FreeRunning);
    EXPECT_GE(sc.hostThreads, 1); // 0 resolves to hardware concurrency
    EXPECT_EQ(sc.quantumCycles, 10000u);

    cfg.set("host/scheduler", "deterministic");
    cfg.setInt("host/threads", 3);
    cfg.setInt("host/quantum_cycles", 500);
    sc = host::SchedulerConfig::fromConfig(cfg);
    EXPECT_EQ(sc.mode, host::SchedMode::Deterministic);
    EXPECT_EQ(sc.hostThreads, 3);
    EXPECT_EQ(sc.quantumCycles, 500u);

    cfg.set("host/scheduler", "bogus");
    EXPECT_THROW(host::SchedulerConfig::fromConfig(cfg), FatalError);
    cfg.set("host/scheduler", "free_running");
    cfg.setInt("host/quantum_cycles", 0);
    EXPECT_THROW(host::SchedulerConfig::fromConfig(cfg), FatalError);
}

// ------------------------------------------------------------- pool smoke

struct SmokeProbe
{
    addr_t base = 0;
    std::atomic<int> ran{0};
};

void
smokeWorker(void* p)
{
    auto* probe = static_cast<SmokeProbe*>(p);
    probe->ran.fetch_add(1);
    tile_id_t self = api::tileId();
    for (int i = 0; i < 50; ++i) {
        api::exec(InstrClass::IntAlu, 400);
        // Shared-line traffic so the pool interleaves real coherence.
        std::uint32_t v = api::read<std::uint32_t>(probe->base);
        api::write<std::uint32_t>(probe->base + 4 * self, v + 1);
    }
}

void
smokeMain(void* p)
{
    auto* probe = static_cast<SmokeProbe*>(p);
    probe->base = api::malloc(64);
    api::write<std::uint32_t>(probe->base, 7);
    std::vector<tile_id_t> tids;
    for (int i = 0; i < 3; ++i)
        tids.push_back(api::threadSpawn(&smokeWorker, p));
    smokeWorker(p);
    for (tile_id_t t : tids)
        api::threadJoin(t);
    api::free(probe->base);
}

// The scaling_smoke ctest entry (quick label) runs exactly this suite:
// the pool at host/threads=2, in both modes, through the full stack.
TEST(SchedSmoke, FreeRunningPoolWidth2Completes)
{
    Config cfg = schedConfig("free_running", 2);
    cfg.setInt("host/quantum_cycles", 1000);
    Simulator sim(cfg);
    SmokeProbe probe;
    sim.run(&smokeMain, &probe);
    EXPECT_EQ(probe.ran.load(), 4);
    host::HostScheduler* sched = sim.hostScheduler();
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->slots(), 2);
    EXPECT_GT(sched->quantaCounter()->load(), 0u);
    // Everything drained: no slot held, nobody waiting.
    host::PoolGauges g = sched->gauges();
    EXPECT_EQ(g.executing, 0);
    EXPECT_EQ(g.runnable, 0);
    EXPECT_EQ(g.blocked, 0);
    EXPECT_EQ(g.skewParked, 0);
}

TEST(SchedSmoke, DeterministicPoolWidth2Completes)
{
    Config cfg = schedConfig("deterministic", 2);
    cfg.setInt("host/quantum_cycles", 1000);
    Simulator sim(cfg);
    SmokeProbe probe;
    sim.run(&smokeMain, &probe);
    EXPECT_EQ(probe.ran.load(), 4);
    host::HostScheduler* sched = sim.hostScheduler();
    ASSERT_NE(sched, nullptr);
    // Deterministic mode serializes onto a single slot regardless of
    // the configured pool width (see DESIGN.md).
    EXPECT_EQ(sched->slots(), 1);
    EXPECT_GT(sched->quantaCounter()->load(), 0u);
}

// ---------------------------------------------------------- determinism

TEST(SchedDeterminism, ResultsIdenticalAcrossPoolWidths)
{
    const std::uint64_t seed = 5;
    check::FuzzProgram prog = check::FuzzProgram::generate(seed);
    std::uint64_t fp0 = 0;
    cycle_t cycles0 = 0;
    for (int ht : {1, 2, 4}) {
        Config cfg =
            check::makeFuzzConfig(check::baselinePoint(), seed);
        cfg.set("host/scheduler", "deterministic");
        cfg.setInt("host/threads", ht);
        check::FuzzResult res =
            check::runFuzzProgram(prog, cfg, quickOpts());
        EXPECT_TRUE(res.violations.empty())
            << "ht=" << ht << ": " << res.violations.front();
        if (ht == 1) {
            fp0 = res.fingerprint;
            cycles0 = res.simulatedCycles;
        } else {
            EXPECT_EQ(res.fingerprint, fp0) << "ht=" << ht;
            // Stronger than fingerprint equality: the timing result is
            // schedule-dependent in general, so identical cycles means
            // the schedule itself reproduced.
            EXPECT_EQ(res.simulatedCycles, cycles0) << "ht=" << ht;
        }
    }
}

TEST(SchedDeterminism, RepeatedRunsReproduce)
{
    const std::uint64_t seed = 11;
    check::FuzzProgram prog = check::FuzzProgram::generate(seed);
    Config cfg = check::makeFuzzConfig(check::baselinePoint(), seed);
    cfg.set("host/scheduler", "deterministic");
    cfg.setInt("host/threads", 2);
    check::FuzzResult a = check::runFuzzProgram(prog, cfg, quickOpts());
    check::FuzzResult b = check::runFuzzProgram(prog, cfg, quickOpts());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
}

// ------------------------------------------------------------- skew park
//
// These tests drive HostScheduler (and the blocking sync models with an
// attached scheduler) directly with CoreModels on test-owned host
// threads, like test_sync.cpp does for the bare models. The skew is
// forced by construction -- one core is held at a low clock until the
// other has provably parked -- so the assertions do not depend on how
// the host OS happens to interleave a full-simulator run (on a 1-CPU
// host that interleaving makes clock gaps genuinely nondeterministic).
// Full-stack integration of the same code paths runs in SchedStress.

using testutil::registerTiles;
using testutil::unitSchedConfig;

TEST(SchedSkew, QuantumBoundaryPromotesSkewParkedTile)
{
    constexpr cycle_t kQuantum = 100;
    constexpr cycle_t kAhead = 5000;
    constexpr cycle_t kWake = 4000;
    constexpr cycle_t kTarget = 30000;
    host::HostScheduler sched(unitSchedConfig(2, kQuantum), 2);
    Config cfg = defaultTargetConfig();
    CoreModel fast(0, cfg), slow(1, cfg);
    registerTiles(sched, fast, slow);
    std::uint64_t parkedNs = 0;
    cycle_t promotedAt = 0;

    std::thread fastThr([&] {
        sched.start(0);
        while (fast.cycle() < kAhead) {
            fast.addLatency(kQuantum);
            sched.quantumCheck(0);
        }
        // The slow tile sits at clock 0, so this parks, as LaxP2PSync
        // does with a tile that ran too far ahead of its partner.
        parkedNs = sched.skewPark(0, kWake);
        while (fast.cycle() < kTarget) {
            fast.addLatency(kQuantum);
            sched.quantumCheck(0);
        }
        sched.finishThread(0);
    });
    std::thread slowThr([&] {
        sched.start(1);
        // Hold at clock 0 until the fast tile has parked.
        while (sched.skewParksCounter()->load() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        // Catch up one quantum at a time. Nothing else releases a slot
        // meanwhile, so only a quantum boundary can promote the parked
        // tile, and the first one at or past its wake clock must.
        while (slow.cycle() < kTarget) {
            slow.addLatency(kQuantum);
            sched.quantumCheck(1);
            if (promotedAt == 0 && sched.gauges().skewParked == 0)
                promotedAt = slow.cycle();
        }
        sched.finishThread(1);
    });
    fastThr.join();
    slowThr.join();

    EXPECT_GT(parkedNs, 0u);
    EXPECT_EQ(promotedAt, kWake);
    EXPECT_EQ(sched.skewParksCounter()->load(), 1u);
    EXPECT_GT(sched.skewParkNsCounter()->load(), 0u);
    // Both tiles reached the target: parking never deadlocked, and the
    // rotation drained cleanly.
    EXPECT_GE(fast.cycle(), kTarget);
    EXPECT_GE(slow.cycle(), kTarget);
    host::PoolGauges g = sched.gauges();
    EXPECT_EQ(g.executing, 0);
    EXPECT_EQ(g.runnable, 0);
    EXPECT_EQ(g.skewParked, 0);
}

TEST(SchedSkew, LaxP2PParksOnSchedulerInsteadOfSleeping)
{
    constexpr cycle_t kSlack = 1000;
    constexpr cycle_t kTarget = 30000;
    // A huge quantum: any park observed below can only have come
    // through LaxP2P's skewPark call.
    host::HostScheduler sched(unitSchedConfig(2, 1000000), 2);
    LaxP2PSync p2p(2, kSlack, /*interval=*/100, /*seed=*/7);
    p2p.attachScheduler(&sched);
    Config cfg = defaultTargetConfig();
    CoreModel fast(0, cfg), slow(1, cfg);
    registerTiles(sched, fast, slow);
    std::atomic<bool> slowIn{false};

    std::thread fastThr([&] {
        sched.start(0);
        p2p.threadStart(fast);
        // Wait until the partner is registered, or periodicSync finds
        // no candidate and never parks.
        while (!slowIn.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        while (fast.cycle() < kTarget) {
            fast.addLatency(100);
            p2p.periodicSync(fast);
        }
        p2p.threadExit(fast);
        sched.finishThread(0);
    });
    std::thread slowThr([&] {
        sched.start(1);
        p2p.threadStart(slow);
        slowIn.store(true);
        // Pin the minimum clock to 0 until the fast tile has parked.
        while (sched.skewParksCounter()->load() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        while (slow.cycle() < kTarget) {
            slow.addLatency(100);
            p2p.periodicSync(slow);
        }
        p2p.threadExit(slow);
        sched.finishThread(1);
    });
    fastThr.join();
    slowThr.join();

    // The p2p "sleep" statistics measure scheduler parks now.
    EXPECT_GT(p2p.syncEvents(), 0u);
    EXPECT_GT(p2p.syncWaitMicroseconds(), 0u);
    EXPECT_GT(sched.skewParksCounter()->load(), 0u);
    EXPECT_GE(fast.cycle(), kTarget);
    EXPECT_GE(slow.cycle(), kTarget);
}

TEST(SchedSkew, LaxBarrierWaitReleasesSlotAndRecordsWait)
{
    constexpr cycle_t kQuantum = 1000;
    constexpr int kEpochs = 5;
    // A single execution slot makes slot release structurally load-
    // bearing: if arrive() held its slot across the epoch wait, the
    // laggard could never run and this test would deadlock (caught by
    // the ctest timeout) instead of pass.
    host::HostScheduler sched(unitSchedConfig(1, 1000000), 2);
    LaxBarrierSync barrier(kQuantum, 2);
    barrier.attachScheduler(&sched);
    Config cfg = defaultTargetConfig();
    CoreModel a(0, cfg), b(1, cfg);
    registerTiles(sched, a, b);
    std::atomic<bool> aIn{false}, bIn{false};

    std::thread ta([&] {
        // Register with the barrier before taking the slot: with one
        // slot, whoever is second blocks in start() until the first
        // thread's arrive() releases it.
        barrier.threadStart(a);
        aIn.store(true);
        while (!bIn.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        sched.start(0);
        for (int i = 0; i < kEpochs; ++i) {
            a.addLatency(kQuantum);
            barrier.periodicSync(a);
        }
        barrier.threadExit(a);
        sched.finishThread(0);
    });
    std::thread tb([&] {
        barrier.threadStart(b);
        bIn.store(true);
        while (!aIn.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        sched.start(1);
        for (int i = 0; i < kEpochs; ++i) {
            // Stagger so the partner measurably waits on each epoch.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            b.addLatency(kQuantum);
            barrier.periodicSync(b);
        }
        barrier.threadExit(b);
        sched.finishThread(1);
    });
    ta.join();
    tb.join();

    EXPECT_EQ(barrier.syncEvents(), static_cast<stat_t>(kEpochs));
    EXPECT_GT(barrier.syncWaitMicroseconds(), 0u);
    host::PoolGauges g = sched.gauges();
    EXPECT_EQ(g.executing, 0);
    EXPECT_EQ(g.blocked, 0);
}

// ---------------------------------------------------------------- stress

// Free-running pool over the fuzz harness: full spawn/join, futexes,
// messaging, shared memory — the scheduler must preserve every
// invariant. Under GRAPHITE_SANITIZE=thread this is the tsan_sched
// CI entry.
TEST(SchedStress, FreeRunningFuzzInvariantsHold)
{
    const int seeds = kTsan ? 2 : 4;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        check::FuzzProgram prog = check::FuzzProgram::generate(seed);
        Config cfg =
            check::makeFuzzConfig(check::baselinePoint(), seed);
        cfg.set("host/scheduler", "free_running");
        cfg.setInt("host/threads", 4);
        cfg.setInt("host/quantum_cycles", 1000);
        check::FuzzResult res =
            check::runFuzzProgram(prog, cfg, quickOpts());
        EXPECT_TRUE(res.violations.empty())
            << "seed " << seed << ": " << res.violations.front();
    }
}

// Full-stack integration of the blocking sync models with the pool:
// barrier arrive()/leave() and p2p skewPark() under real spawn/join,
// futex, and messaging traffic. Assertions are timing-independent
// (invariant violations only); the wait-statistics assertions live in
// the deterministic SchedSkew unit tests above.
TEST(SchedStress, BlockingSyncModelsUnderFreeRunningPool)
{
    for (const char* model : {"lax_barrier", "lax_p2p"}) {
        const std::uint64_t seed = 3;
        check::FuzzProgram prog = check::FuzzProgram::generate(seed);
        Config cfg =
            check::makeFuzzConfig(check::baselinePoint(), seed);
        cfg.set("sync/model", model);
        cfg.setInt("sync/quantum", 2000);
        cfg.setInt("sync/slack", 5000);
        cfg.setInt("sync/p2p_interval", 500);
        cfg.set("host/scheduler", "free_running");
        cfg.setInt("host/threads", 2);
        cfg.setInt("host/quantum_cycles", 1000);
        check::FuzzResult res =
            check::runFuzzProgram(prog, cfg, quickOpts());
        EXPECT_TRUE(res.violations.empty())
            << model << ": " << res.violations.front();
    }
}

} // namespace
} // namespace graphite
