/**
 * @file
 * Cross-cutting property tests:
 *
 *  - Distribution transparency (paper §2.2): a workload's checksum must
 *    be identical for every host-process count — distribution is purely
 *    a deployment choice, invisible to the application.
 *  - Directory-scheme transparency: coherence schemes change timing,
 *    never function.
 *  - Line-size transparency: the functional result cannot depend on
 *    cache geometry.
 *  - Concurrent API stress: random threads hammer shared counters with
 *    atomics and mutexes; totals must be exact and the coherence
 *    invariants intact.
 *  - Determinism of the timing domain under single-threaded execution.
 */

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"
#include "workloads/registry.h"

namespace graphite
{
namespace
{

using workloads::WorkloadParams;

double
runWith(const std::string& app, const WorkloadParams& p,
        const std::function<void(Config&)>& tweak)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 8);
    tweak(cfg);
    Simulator sim(cfg);
    return workloads::runSim(sim, workloads::findWorkload(app), p)
        .checksum;
}

TEST(Transparency, ProcessCountIsInvisibleToTheApplication)
{
    WorkloadParams p;
    p.threads = 8;
    p.size = 48;
    p.iters = 2;
    double one = runWith("ocean_cont", p, [](Config& cfg) {
        cfg.setInt("general/num_processes", 1);
    });
    for (int procs : {2, 4, 8}) {
        double n = runWith("ocean_cont", p, [&](Config& cfg) {
            cfg.setInt("general/num_processes", procs);
        });
        EXPECT_EQ(one, n) << procs << " processes";
    }
}

TEST(Transparency, DirectorySchemeIsFunctionallyInvisible)
{
    WorkloadParams p;
    p.threads = 8;
    p.size = 2048;
    p.iters = 2;
    double ref = runWith("radix", p, [](Config&) {});
    for (const char* scheme :
         {"limited_no_broadcast", "limitless"}) {
        double n = runWith("radix", p, [&](Config& cfg) {
            cfg.set("caching_protocol/directory_type", scheme);
            cfg.setInt("caching_protocol/max_sharers", 2);
        });
        EXPECT_EQ(ref, n) << scheme;
    }
    double mesi = runWith("radix", p, [](Config& cfg) {
        cfg.set("caching_protocol/type", "dir_mesi");
    });
    EXPECT_EQ(ref, mesi) << "dir_mesi";
}

TEST(Transparency, LineSizeIsFunctionallyInvisible)
{
    WorkloadParams p;
    p.threads = 8;
    p.size = 48;
    double ref = runWith("lu_non_cont", p, [](Config&) {});
    for (int line : {16, 256}) {
        double n = runWith("lu_non_cont", p, [&](Config& cfg) {
            cfg.setInt("perf_model/l2_cache/line_size", line);
        });
        EXPECT_EQ(ref, n) << line << "-byte lines";
    }
}

// --------------------------------------------------------- API stress test

struct StressArgs
{
    addr_t atomicCounter = 0;
    addr_t lockedCounter = 0;
    addr_t mutex = 0;
    addr_t barrier = 0;
    int increments = 0;
};

void
stressWorker(void* p)
{
    auto* a = static_cast<StressArgs*>(p);
    for (int i = 0; i < a->increments; ++i) {
        api::atomicAdd32(a->atomicCounter, 1);
        if (i % 3 == 0) {
            api::mutexLock(a->mutex);
            std::uint64_t v =
                api::read<std::uint64_t>(a->lockedCounter);
            api::write<std::uint64_t>(a->lockedCounter, v + 2);
            api::mutexUnlock(a->mutex);
        }
        api::exec(InstrClass::IntAlu, 3);
        api::branch(0xBEEF, i % 2 == 0);
    }
    api::barrierWait(a->barrier);
}

struct StressResult
{
    std::uint32_t atomicTotal = 0;
    std::uint64_t lockedTotal = 0;
};

struct StressLaunch
{
    StressArgs args;
    StressResult result;
    int workers = 0;
};

void
stressMain(void* p)
{
    auto* launch = static_cast<StressLaunch*>(p);
    StressArgs& a = launch->args;
    a.atomicCounter = api::malloc(4);
    a.lockedCounter = api::malloc(8);
    a.mutex = api::malloc(api::MUTEX_BYTES);
    a.barrier = api::malloc(api::BARRIER_BYTES);
    api::write<std::uint32_t>(a.atomicCounter, 0);
    api::write<std::uint64_t>(a.lockedCounter, 0);
    api::mutexInit(a.mutex);
    api::barrierInit(a.barrier, launch->workers + 1);

    std::vector<tile_id_t> tids;
    for (int i = 0; i < launch->workers; ++i)
        tids.push_back(api::threadSpawn(&stressWorker, &a));
    api::barrierWait(a.barrier);
    for (tile_id_t t : tids)
        api::threadJoin(t);

    launch->result.atomicTotal =
        api::read<std::uint32_t>(a.atomicCounter);
    launch->result.lockedTotal =
        api::read<std::uint64_t>(a.lockedCounter);
}

class ApiStress : public ::testing::TestWithParam<int>
{
};

TEST_P(ApiStress, CountersAreExactUnderContention)
{
    const int procs = GetParam();
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 16);
    cfg.setInt("general/num_processes", procs);
    Simulator sim(cfg);

    StressLaunch launch;
    launch.workers = 12;
    launch.args.increments = 40;
    sim.run(&stressMain, &launch);

    EXPECT_EQ(launch.result.atomicTotal, 12u * 40u);
    // Each worker takes the locked path for i = 0, 3, 6, ... => 14 times.
    EXPECT_EQ(launch.result.lockedTotal, 12u * 14u * 2u);
    EXPECT_EQ(sim.memory().validateCoherence(), "");
}

INSTANTIATE_TEST_SUITE_P(Procs, ApiStress, ::testing::Values(1, 3, 8));

// ------------------------------------------------------------- determinism

void
deterministicMain(void* p)
{
    auto* out = static_cast<cycle_t*>(p);
    addr_t a = api::malloc(1024);
    for (int i = 0; i < 200; ++i) {
        api::write<std::uint32_t>(a + (i % 32) * 4,
                                  static_cast<std::uint32_t>(i));
        api::exec(InstrClass::FpMul, 3);
        api::branch(7, i % 4 != 0);
    }
    for (int i = 0; i < 200; ++i)
        api::read<std::uint32_t>(a + (i % 32) * 4);
    api::free(a);
    *out = api::cycle();
}

TEST(Determinism, SingleThreadTimingIsReproducible)
{
    // With one application thread there is no interleaving freedom:
    // the simulated cycle count must be bit-identical across runs.
    cycle_t first = 0;
    for (int run = 0; run < 3; ++run) {
        Config cfg = defaultTargetConfig();
        cfg.setInt("general/total_tiles", 4);
        Simulator sim(cfg);
        cycle_t cycles = 0;
        sim.run(&deterministicMain, &cycles);
        if (run == 0)
            first = cycles;
        else
            EXPECT_EQ(cycles, first) << "run " << run;
    }
}

} // namespace
} // namespace graphite
