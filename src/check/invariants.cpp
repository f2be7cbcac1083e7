#include "check/invariants.h"

#include <algorithm>
#include <chrono>

#include "common/lockdep.h"
#include "common/strfmt.h"
#include "core/simulator.h"

namespace graphite
{
namespace check
{

std::vector<std::string>
checkConservation(Simulator& sim)
{
    std::vector<std::string> out;
    MemorySystem& mem = sim.memory();

    std::string coherence = mem.validateCoherence();
    if (!coherence.empty())
        out.push_back("coherence: " + coherence);

    // The registered mem.* aggregates, which sum the hot path's
    // per-tile parts, must equal the per-tile architectural counters at
    // quiescence: reading them by name also catches a gauge that sums
    // the wrong field.
    stat_t accesses = 0, writebacks = 0, l2_misses = 0;
    for (tile_id_t t = 0; t < sim.totalTiles(); ++t) {
        accesses += mem.stats(t).totalAccesses;
        writebacks += mem.stats(t).writebacks;
        l2_misses += mem.l2(t).misses();
    }
    const StatsRegistry& stats = sim.stats();
    stat_t agg_accesses = stats.get("mem.accesses_total");
    stat_t agg_writebacks = stats.get("mem.writebacks_total");
    stat_t agg_l2 = stats.get("mem.l2_misses_total");
    if (accesses != agg_accesses)
        out.push_back(strfmt("counter sum: per-tile accesses {} != "
                             "aggregate {}",
                             accesses, agg_accesses));
    if (writebacks != agg_writebacks)
        out.push_back(strfmt("counter sum: per-tile writebacks {} != "
                             "aggregate {}",
                             writebacks, agg_writebacks));
    if (l2_misses != agg_l2)
        out.push_back(strfmt("counter sum: per-tile L2 misses {} != "
                             "aggregate {}",
                             l2_misses, agg_l2));

    // The traffic matrix records every App and Memory packet the fabric
    // timed, so its sums equal those two models' routed totals.
    const NetworkFabric& fabric = sim.fabric();
    stat_t matrix_msgs = 0, matrix_bytes = 0;
    for (tile_id_t src = 0; src < sim.totalTiles(); ++src)
        for (tile_id_t dst = 0; dst < sim.totalTiles(); ++dst) {
            matrix_msgs += fabric.pairMessages(src, dst);
            matrix_bytes += fabric.pairBytes(src, dst);
        }
    const NetworkModel& app = fabric.modelFor(PacketType::App);
    const NetworkModel& memory = fabric.modelFor(PacketType::Memory);
    stat_t routed = app.packetsRouted() + memory.packetsRouted();
    stat_t routed_bytes = app.bytesRouted() + memory.bytesRouted();
    if (matrix_msgs != routed)
        out.push_back(strfmt("network: app and memory models routed {} "
                             "packets but the traffic matrix sums to {}",
                             routed, matrix_msgs));
    if (matrix_bytes != routed_bytes)
        out.push_back(strfmt("network: app and memory models routed {} "
                             "bytes but the traffic matrix sums to {}",
                             routed_bytes, matrix_bytes));

    // The fuzz program frees every allocation it makes, so nothing may
    // be live at quiescence (bytesAllocated() is cumulative; the live
    // set is what conservation cares about).
    MemoryManager& mgr = mem.manager();
    if (mgr.liveBytes() != 0 || mgr.liveBlockCount() != 0)
        out.push_back(strfmt("heap: {} bytes in {} blocks still live "
                             "after shutdown",
                             mgr.liveBytes(), mgr.liveBlockCount()));
    return out;
}

ClockWatcher::ClockWatcher(Simulator& sim, int period_us,
                           int validate_every)
    : sim_(sim), periodUs_(period_us), validateEvery_(validate_every)
{
    lastSeen_.assign(sim.totalTiles(), 0);
}

ClockWatcher::~ClockWatcher()
{
    stop();
}

void
ClockWatcher::start()
{
    stopFlag_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { loop(); });
}

void
ClockWatcher::stop()
{
    stopFlag_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
}

void
ClockWatcher::loop()
{
    std::uint64_t ticks = 0;
    while (!stopFlag_.load(std::memory_order_relaxed)) {
        cycle_t lo = 0, hi = 0;
        bool any = false;
        for (tile_id_t t = 0; t < sim_.totalTiles(); ++t) {
            Tile& tile = sim_.tile(t);
            cycle_t c = tile.core().cycle();
            if (c < lastSeen_[t]) {
                lockdep::Guard lock(mutex_);
                if (violations_.size() < 8)
                    violations_.push_back(
                        strfmt("clock: tile {} moved backwards "
                               "({} -> {})",
                               t, lastSeen_[t], c));
            }
            lastSeen_[t] = std::max(lastSeen_[t], c);
            if (tile.running() && c > 0) {
                if (!any || c < lo)
                    lo = c;
                if (!any || c > hi)
                    hi = c;
                any = true;
            }
        }
        if (any) {
            lockdep::Guard lock(mutex_);
            maxSkew_ = std::max(maxSkew_, hi - lo);
        }

        ++ticks;
        if (validateEvery_ > 0 && ticks % validateEvery_ == 0) {
            std::string err = sim_.memory().validateCoherence();
            if (!err.empty()) {
                lockdep::Guard lock(mutex_);
                violations_.push_back("coherence (mid-run): " + err);
                return; // one report is enough; stop probing
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(periodUs_));
    }
}

std::vector<std::string>
ClockWatcher::violations() const
{
    lockdep::Guard lock(mutex_);
    return violations_;
}

cycle_t
ClockWatcher::maxSkew() const
{
    lockdep::Guard lock(mutex_);
    return maxSkew_;
}

} // namespace check
} // namespace graphite
