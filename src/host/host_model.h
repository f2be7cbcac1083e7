/**
 * @file
 * Analytical model of the simulator's own host-side performance.
 *
 * The paper's scaling evaluation (Figures 4 and 5, Table 2) measures
 * wall-clock time of Graphite itself on a cluster of 8-core machines.
 * This environment has a single host core (see DESIGN.md substitution 2),
 * so cluster wall-clock is *modeled*: a functional run produces a
 * SimulationProfile (per-tile event counts + a tile-pair traffic
 * matrix), and HostModel::estimate() computes the wall-clock time that
 * run would take for a hypothetical cluster layout — work per tile from
 * per-event costs, machine time from core multiplexing and per-thread
 * critical paths (communication stalls overlap compute across threads
 * but not within one), barrier/sync overhead by sync model, and the
 * sequential per-process initialization the paper cites as the scaling
 * limit of Figure 5.
 *
 * Per-event costs are configurable under [host]; their defaults in
 * graphite.cfg were calibrated with bench/micro_components.
 */

#pragma once

#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"

namespace graphite
{

class Config;
class Simulator;

/** Everything the host model needs from a finished functional run. */
struct SimulationProfile
{
    tile_id_t tiles = 0;
    int appThreads = 0;

    /** @name Per-tile event counts @{ */
    std::vector<stat_t> instructions;
    std::vector<stat_t> memAccesses;
    std::vector<stat_t> l2Misses;
    std::vector<stat_t> syscalls;
    /** @} */

    /** Tile-pair message/byte counts, src-major (App + Memory). */
    std::vector<stat_t> msgMatrix;
    std::vector<stat_t> byteMatrix;

    std::string syncModel;        ///< "lax" | "lax_barrier" | "lax_p2p"
    stat_t syncEvents = 0;        ///< barrier epochs / P2P sleeps
    stat_t syncWaitMicros = 0;    ///< measured sync-model wait time

    cycle_t simulatedCycles = 0;
    double measuredWallSeconds = 0; ///< actual wall time of this run

    /** Gather the profile from a simulator after run(). */
    static SimulationProfile capture(Simulator& sim,
                                     double wall_seconds = 0);
};

/**
 * Extrapolate a reduced-size profile toward the paper's problem sizes.
 *
 * Functional runs here use scaled-down inputs (a 1-core host cannot run
 * SPLASH default sizes in reasonable time), which inflates coherence
 * traffic per instruction relative to the paper's runs. Compute-type
 * counts (instructions, memory accesses) are multiplied by
 * @p compute_scale and sharing-type counts (misses, messages, syscalls)
 * by @p comm_scale; the per-experiment factors and the asymptotic
 * op-count formulas they come from are tabulated in EXPERIMENTS.md.
 */
SimulationProfile scaleProfile(const SimulationProfile& prof,
                               double compute_scale, double comm_scale);

/**
 * Host-side cost parameters: the [host] keys and the [transport]
 * latencies, read by fromConfig (graphite.cfg holds their defaults).
 */
struct HostCosts
{
    double hostClockGhz{};
    int coresPerMachine{};
    int procsPerMachine{};
    double nativeIpc{};

    double instructionCost{};      ///< host cycles / modeled instr
    double memEventCost{};         ///< host cycles / memory access
    double missEventCost{};        ///< host cycles / L2 miss transaction
    double messageCost{};          ///< host cycles / transported message
    double interProcessByteCost{}; ///< extra host cycles / byte, sockets
    double syscallHostCost{};      ///< host cycles / MCP syscall

    double intraProcessLatencyUs{}; ///< one-way, shared memory
    double interProcessLatencyUs{}; ///< one-way, TCP
    /**
     * Fraction of per-thread message latency that is *not* hidden by
     * multiplexing other threads onto the stalled thread's host core
     * (lax synchronization overlaps most of it).
     */
    double stallExposure{};
    double initSecondsPerProcess{}; ///< sequential startup (§4.2)
    double barrierBaseUs{};         ///< in-process barrier release

    static HostCosts fromConfig(const Config& cfg);
};

/** One cluster-configuration estimate. */
struct HostEstimate
{
    double totalSeconds = 0;
    double initSeconds = 0;
    double computeSeconds = 0;   ///< parallel-region machine time
    double commStallSeconds = 0; ///< largest per-thread latency stall
    double syncSeconds = 0;      ///< sync-model overhead
};

/** The simulator-of-the-simulator. */
class HostModel
{
  public:
    explicit HostModel(HostCosts costs);

    /**
     * Estimate simulation wall-clock for @p machines host machines.
     * @param cores_per_machine overrides the configured core count when
     *        positive (Figure 4 sweeps cores within one machine).
     */
    HostEstimate estimate(const SimulationProfile& prof, int machines,
                          int cores_per_machine = 0) const;

    /**
     * Estimated native execution time of the profiled application on
     * one host machine (critical-path thread at nativeIpc, cores
     * shared).
     */
    double nativeSeconds(const SimulationProfile& prof) const;

    const HostCosts& costs() const { return costs_; }

  private:
    HostCosts costs_;
};

} // namespace graphite
