/**
 * @file
 * Component microbenchmarks (google-benchmark).
 *
 * Measures the host-side cost of the simulator's hot-path operations —
 * the same quantities the host cluster model's [host] cost parameters
 * abstract (instruction modeling, cache probes, full coherence
 * transactions, network routing, queue-model updates, transport
 * round trips). Use these numbers to calibrate
 * host/instruction_model_cost, host/memory_event_cost,
 * host/miss_event_cost and host/message_send_cost for your machine.
 */

#include <benchmark/benchmark.h>

#include "common/config.h"
#include "common/strfmt.h"
#include "mem/cache.h"
#include "mem/memory_system.h"
#include "network/network_model.h"
#include "network/queue_model.h"
#include "perf/core_model.h"
#include "transport/transport.h"

namespace graphite
{
namespace
{

void
BM_CoreModelInstruction(benchmark::State& state)
{
    Config cfg = defaultTargetConfig();
    CoreModel core(0, cfg);
    for (auto _ : state) {
        core.executeInstructions(InstrClass::IntAlu, 1);
        benchmark::DoNotOptimize(core.cycle());
    }
}
BENCHMARK(BM_CoreModelInstruction);

void
BM_BranchPredictorTrain(benchmark::State& state)
{
    Config cfg = defaultTargetConfig();
    CoreModel core(0, cfg);
    addr_t site = 0;
    for (auto _ : state) {
        core.executeBranch(site % 64, (site & 3) != 0);
        ++site;
    }
}
BENCHMARK(BM_BranchPredictorTrain);

void
BM_CacheHitProbe(benchmark::State& state)
{
    Cache cache("bench", 32768, 8, 64);
    std::vector<std::uint8_t> line(64, 0);
    for (addr_t a = 0; a < 8192; a += 64)
        cache.insert(a, CacheState::Shared, line);
    addr_t a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a, false));
        a = (a + 64) % 8192;
    }
}
BENCHMARK(BM_CacheHitProbe);

void
BM_QueueModelEnqueue(benchmark::State& state)
{
    QueueModel queue(/*outlier_window=*/100000, /*max_backlog=*/10000);
    cycle_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(queue.enqueue(t, 10));
        t += 12;
    }
}
BENCHMARK(BM_QueueModelEnqueue);

void
BM_MeshRouteContention(benchmark::State& state)
{
    GlobalProgress progress(64);
    EMeshContentionNetworkModel model(64, /*hop=*/2, /*bw=*/8, &progress,
                                      /*outlier_window=*/100000,
                                      /*max_backlog=*/10000);
    tile_id_t dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.computeLatency(0, dst, 80, 1000).total);
        dst = (dst % 63) + 1;
    }
}
BENCHMARK(BM_MeshRouteContention);

/** Fixture: a small memory system driven without a full simulation. */
struct MemBench
{
    MemBench()
        : cfg(defaultTargetConfig()),
          topo((cfg.setInt("general/total_tiles", 16), 16), 1),
          fabric(topo, cfg),
          mem(topo, fabric, cfg)
    {
    }
    Config cfg;
    ClusterTopology topo;
    NetworkFabric fabric;
    MemorySystem mem;
};

void
BM_MemoryL1Hit(benchmark::State& state)
{
    MemBench b;
    std::uint64_t v = 0;
    b.mem.access(0, MemAccessType::Read, 0x10000000, &v, 8, 0);
    for (auto _ : state) {
        b.mem.access(0, MemAccessType::Read, 0x10000000, &v, 8, 0);
    }
}
BENCHMARK(BM_MemoryL1Hit);

void
BM_MemoryCoherenceMissPingPong(benchmark::State& state)
{
    // Alternating writers: every access is a full recall transaction
    // (request + recall + data reply through the network models).
    MemBench b;
    std::uint64_t v = 0;
    tile_id_t who = 0;
    for (auto _ : state) {
        b.mem.access(who, MemAccessType::Write, 0x10000000, &v, 8, 0);
        who ^= 1;
    }
}
BENCHMARK(BM_MemoryCoherenceMissPingPong);

void
BM_TransportRoundTrip(benchmark::State& state)
{
    ClusterTopology topo(2, 2);
    Transport transport(topo);
    NetPacket pkt;
    pkt.type = PacketType::Memory;
    pkt.sender = 0;
    pkt.receiver = 1;
    pkt.payload.assign(80, 0);
    for (auto _ : state) {
        transport.send(1, pkt);
        NetPacket got = transport.recv(1, PacketType::Memory);
        benchmark::DoNotOptimize(got);
    }
}
BENCHMARK(BM_TransportRoundTrip);

void
BM_Strfmt(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            strfmt("tile {} at cycle {}", 12, 345678ull));
    }
}
BENCHMARK(BM_Strfmt);

} // namespace
} // namespace graphite

BENCHMARK_MAIN();
