/**
 * @file
 * End-to-end smoke tests: full simulator lifecycle with threads, shared
 * memory, and synchronization. If coherence or the MCP/LCP protocol is
 * broken, these deadlock or produce wrong sums.
 */

#include <gtest/gtest.h>

#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"

namespace graphite
{
namespace
{

struct WorkerArgs
{
    addr_t data;
    addr_t mutex;
    addr_t barrier;
    int index;
    int iters;
};

void
sumWorker(void* p)
{
    auto* a = static_cast<WorkerArgs*>(p);
    for (int i = 0; i < a->iters; ++i) {
        api::mutexLock(a->mutex);
        std::uint64_t v = api::read<std::uint64_t>(a->data);
        api::write<std::uint64_t>(a->data, v + 1);
        api::mutexUnlock(a->mutex);
        api::exec(InstrClass::IntAlu, 3);
    }
    api::barrierWait(a->barrier);
}

struct MainArgs
{
    int workers;
    int iters;
    std::uint64_t result = 0;
    cycle_t cycles = 0;
};

void
smokeMain(void* p)
{
    auto* m = static_cast<MainArgs*>(p);
    addr_t data = api::malloc(8);
    addr_t mutex = api::malloc(api::MUTEX_BYTES);
    addr_t barrier = api::malloc(api::BARRIER_BYTES);
    api::write<std::uint64_t>(data, 0);
    api::mutexInit(mutex);
    api::barrierInit(barrier, m->workers + 1);

    std::vector<WorkerArgs> args(m->workers);
    std::vector<tile_id_t> tids;
    for (int i = 0; i < m->workers; ++i) {
        args[i] = WorkerArgs{data, mutex, barrier, i, m->iters};
        tids.push_back(api::threadSpawn(&sumWorker, &args[i]));
    }
    api::barrierWait(barrier);
    for (tile_id_t t : tids)
        api::threadJoin(t);

    m->result = api::read<std::uint64_t>(data);
    m->cycles = api::cycle();
    api::free(data);
    api::free(mutex);
    api::free(barrier);
}

TEST(Smoke, MutexProtectedSum)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 8);
    Simulator sim(cfg);
    MainArgs m{4, 50};
    SimulationSummary s = sim.run(&smokeMain, &m);
    EXPECT_EQ(m.result, 4u * 50u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_EQ(s.threadsSpawned, 4u);
    EXPECT_EQ(sim.memory().validateCoherence(), "");
}

TEST(Smoke, MultiProcessDistribution)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 8);
    cfg.setInt("general/num_processes", 4);
    Simulator sim(cfg);
    MainArgs m{7, 25};
    sim.run(&smokeMain, &m);
    EXPECT_EQ(m.result, 7u * 25u);
    EXPECT_EQ(sim.memory().validateCoherence(), "");
    // Tiles striped over 4 processes: coherence traffic must have
    // crossed simulated process boundaries.
    const ClusterTopology& topo = sim.topology();
    stat_t cross = 0;
    for (tile_id_t a = 0; a < 8; ++a)
        for (tile_id_t b = 0; b < 8; ++b)
            if (topo.processForTile(a) != topo.processForTile(b))
                cross += sim.fabric().pairMessages(a, b);
    EXPECT_GT(cross, 0u);
}

void
messagingMain(void*);

void
pongWorker(void*)
{
    for (int i = 0; i < 10; ++i) {
        api::Message msg = api::msgRecv();
        std::uint64_t v;
        std::memcpy(&v, msg.data.data(), 8);
        v += 1;
        api::msgSend(msg.sender, &v, 8);
    }
}

void
messagingMain(void* p)
{
    auto* out = static_cast<std::uint64_t*>(p);
    tile_id_t t = api::threadSpawn(&pongWorker, nullptr);
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
        api::msgSend(t, &v, 8);
        api::Message reply = api::msgRecv();
        std::memcpy(&v, reply.data.data(), 8);
    }
    api::threadJoin(t);
    *out = v;
}

TEST(Smoke, MessagePingPong)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    cfg.setInt("general/num_processes", 2);
    Simulator sim(cfg);
    std::uint64_t result = 0;
    sim.run(&messagingMain, &result);
    EXPECT_EQ(result, 10u);
}

} // namespace
} // namespace graphite
