/**
 * @file
 * Experiment E6 — Figure 8: "Breakdown of cache misses by type as line
 * size changes" for six SPLASH benchmarks, validating the memory system
 * against Woo et al.'s characterization (§4.4).
 *
 * Matching the paper's methodology: "the L1I and L1D cache models ...
 * are disabled and all memory accesses are redirected to the L2 cache
 * ... The L2 cache modeled is a 1MB 4-way set associative cache." Line
 * size sweeps 8..256 bytes; misses are classified cold / capacity /
 * true sharing / false sharing by the word-version tracker.
 *
 * Expected trends (paper §4.4): lu_cont and fft drop linearly (perfect
 * spatial locality); radix's false sharing blows up at 256 B; water and
 * barnes trade true sharing down / false sharing up as lines grow.
 */

#include <vector>

#include "bench_common.h"

using namespace graphite;

int
main()
{
    bench::banner(
        "Figure 8 — cache-miss breakdown vs line size",
        "Single-level 1MB 4-way L2 (L1s disabled), 32 tiles, misses "
        "per 1000 accesses by class.");

    const std::vector<std::string> apps = {
        "fft", "lu_cont", "radix", "water_spatial", "barnes",
        "ocean_cont"};
    const std::vector<int> line_sizes = {8, 16, 32, 64, 128, 256};

    for (const std::string& app : apps) {
        TextTable table;
        table.header({"line", "miss/1k", "cold", "capacity",
                      "true-sh", "false-sh", "upgrade"});
        for (int line : line_sizes) {
            workloads::WorkloadParams p =
                workloads::findWorkload(app).defaults;
            p.threads = 32;

            Config cfg = bench::benchConfig(32);
            cfg.setBool("perf_model/l1_icache/enabled", false);
            cfg.setBool("perf_model/l1_dcache/enabled", false);
            cfg.setInt("perf_model/l2_cache/cache_size", 1 << 20);
            cfg.setInt("perf_model/l2_cache/associativity", 4);
            cfg.setInt("perf_model/l2_cache/line_size", line);

            const workloads::WorkloadInfo& w =
                workloads::findWorkload(app);
            Simulator sim(std::move(cfg));
            workloads::runSim(sim, w, p);

            stat_t accesses = 0, cold = 0, cap = 0, tru = 0, fal = 0,
                   upg = 0;
            for (tile_id_t t = 0; t < sim.totalTiles(); ++t) {
                const TileMemoryStats& ms = sim.memory().stats(t);
                accesses += ms.totalAccesses;
                cold += ms.l2ColdMisses;
                cap += ms.l2CapacityMisses;
                tru += ms.l2TrueSharingMisses;
                fal += ms.l2FalseSharingMisses;
                upg += ms.l2UpgradeMisses;
            }
            double per1k = accesses ? 1000.0 / accesses : 0;
            stat_t total = cold + cap + tru + fal;
            table.row({std::to_string(line),
                       TextTable::num(total * per1k, 2),
                       TextTable::num(cold * per1k, 2),
                       TextTable::num(cap * per1k, 2),
                       TextTable::num(tru * per1k, 2),
                       TextTable::num(fal * per1k, 2),
                       TextTable::num(upg * per1k, 2)});
        }
        std::printf("--- %s ---\n%s\n", app.c_str(),
                    table.render().c_str());
    }
    return 0;
}
