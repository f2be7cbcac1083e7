/**
 * @file
 * Top-level simulator: owns every subsystem and drives a simulation
 * (paper §2).
 *
 * A simulation executes a multi-threaded application (written against
 * graphite::api, the Pin-substitute instrumentation interface — see
 * DESIGN.md) on a target architecture defined by the models and the
 * runtime configuration. Tiles are striped across simulated host
 * processes; the MCP/LCP service threads maintain the single-process
 * illusion.
 *
 * Usage:
 * @code
 *   Config cfg = defaultTargetConfig();
 *   cfg.setInt("general/total_tiles", 64);
 *   Simulator sim(cfg);
 *   sim.run(&app_main, nullptr);
 *   cycle_t t = sim.simulatedTime();
 * @endcode
 */

#pragma once

#include <memory>
#include <vector>

#include "common/config.h"
#include "common/fixed_types.h"
#include "common/stats.h"
#include "core/thread_manager.h"
#include "host/scheduler.h"
#include "core/tile.h"
#include "mem/memory_system.h"
#include "network/network.h"
#include "obs/observers.h"
#include "obs/telemetry/server.h"
#include "obs/telemetry/watchdog.h"
#include "sync/sync_model.h"
#include "transport/transport.h"

namespace graphite
{

namespace obs
{
class MetricsSampler;
}

/** Aggregate results of one simulation run. */
struct SimulationSummary
{
    cycle_t simulatedCycles = 0;   ///< max final tile clock
    stat_t totalInstructions = 0;  ///< across all tiles
    double wallSeconds = 0;        ///< host wall-clock of run()
    stat_t threadsSpawned = 0;
};

/** The simulation: models + functional infrastructure + lifecycle. */
class Simulator
{
  public:
    explicit Simulator(Config cfg);
    ~Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /**
     * Execute the application: @p app_main runs as the thread on tile 0;
     * it may spawn further threads via the API. Returns when every
     * application thread has finished and the MCP has shut down.
     * Writes the observers' artifacts before returning. Simulators are
     * independent: several may run at once on different host threads.
     */
    SimulationSummary run(thread_func_t app_main, void* arg);

    /** @name Component access @{ */
    const Config& config() const { return cfg_; }
    const ClusterTopology& topology() const { return topo_; }
    Transport& transport() { return transport_; }
    NetworkFabric& fabric() { return *fabric_; }
    const NetworkFabric& fabric() const { return *fabric_; }
    MemorySystem& memory() { return *memory_; }
    SyncModel& syncModel() { return *sync_; }
    ThreadManager& threadManager() { return *threads_; }
    /** Host execution scheduler; never null. */
    host::HostScheduler* hostScheduler() { return sched_.get(); }
    Tile& tile(tile_id_t id);
    tile_id_t totalTiles() const { return topo_.totalTiles(); }
    /** @} */

    /** Largest tile clock observed (the simulated run time). */
    cycle_t simulatedTime() const;

    /** Sum of instructions retired on all tiles. */
    stat_t totalInstructions() const;

    /**
     * Render a full post-run statistics report: run summary, per-tile
     * core/cache/miss-class tables, network-model totals, sync-model
     * overhead, and memory-manager usage. Call after run().
     */
    std::string statsReport() const;

    /**
     * The simulation's statistics registry: gauges over every model's
     * headline counters plus the memory-latency histogram, registered
     * at construction. Input of the obs-layer interval sampler.
     */
    const StatsRegistry& stats() const { return stats_; }

    /**
     * @name Observers
     * Owned by this Simulator and built at construction from their
     * config keys; each is null when the config leaves it off. They
     * keep recording across run() calls, and their artifacts are
     * written at the end of each run() (or by the destructor when no
     * run() returned since construction).
     * @{
     */
    obs::TraceSink* traceSink() const { return trace_.get(); }
    obs::SpanSink* spanSink() const { return spans_.get(); }
    obs::MetricsSampler* metricsSampler() const { return sampler_.get(); }
    obs::accuracy::AccuracyObservatory* accuracy() const
    {
        return accuracy_.get();
    }
    race::Detector* raceDetector() const { return race_.get(); }
    check::FaultPlan* faultPlan() const { return faults_.get(); }
    /** @} */

    /**
     * @name Telemetry plane
     * The HTTP server starts with run() when telemetry/http_port >= 0
     * and keeps serving until the Simulator dies, so a prober can
     * scrape final values after run() returns (--telemetry-linger).
     * The watchdog beats only while run() is in flight.
     * @{
     */
    obs::telemetry::TelemetryServer& telemetryServer()
    {
        return telemetryServer_;
    }
    obs::telemetry::ProgressWatchdog& watchdog() { return watchdog_; }
    /** Build the live-status callbacks for servers/watchdogs/tests. */
    obs::telemetry::StatusSource makeStatusSource();
    /** @} */

    /**
     * @name Fast-forward ROI control
     * With config `snapshot/fast_forward = true`, run() starts in
     * functional-only warmup mode (see MemorySystem::setFastForward)
     * and switches to detailed timing at api::roiBegin() or when a
     * tile clock reaches `snapshot/ff_detail_at` (0 = marker only).
     * @{
     */
    bool fastForwardConfigured() const { return ffEnabled_; }
    cycle_t fastForwardDetailAt() const { return ffDetailAt_; }
    bool fastForwarding() const { return memory_->fastForward(); }
    /** Resume warmup mode after an ROI (no-op unless configured). */
    void beginFastForward()
    {
        if (ffEnabled_)
            memory_->setFastForward(true);
    }
    /** Enter detailed timing (ROI begin / threshold reached). */
    void endFastForward() { memory_->setFastForward(false); }
    /** @} */

    /** Cycles between periodic sync-model checks. */
    cycle_t syncCheckInterval() const { return syncCheckInterval_; }

    /** Modeled cost of one system call round trip, cycles. */
    cycle_t syscallCost() const { return syscallCost_; }

    /** Modeled cost charged to a freshly spawned thread, cycles. */
    cycle_t spawnCost() const { return spawnCost_; }

  private:
    void registerStats();

    /** The observers, as handed to the components that hook them. */
    obs::Observers observers() const;

    /** Flush the sampler and write every configured artifact file. */
    void writeArtifacts();

    Config cfg_;
    ClusterTopology topo_;
    Transport transport_;
    std::unique_ptr<NetworkFabric> fabric_;
    // Observers, declared before the components that hold pointers to
    // them so they outlive those components.
    std::unique_ptr<obs::TraceSink> trace_;
    std::unique_ptr<obs::SpanSink> spans_;
    std::unique_ptr<obs::accuracy::AccuracyObservatory> accuracy_;
    std::unique_ptr<race::Detector> race_;
    std::unique_ptr<check::FaultPlan> faults_;
    std::unique_ptr<MemorySystem> memory_;
    std::unique_ptr<SyncModel> sync_;
    std::vector<std::unique_ptr<Tile>> tiles_;
    // Destroyed after threads_, whose app/MCP threads use it.
    std::unique_ptr<host::HostScheduler> sched_;
    std::unique_ptr<ThreadManager> threads_;
    StatsRegistry stats_;
    // Samples stats_ and the tiles, so it is declared after both.
    std::unique_ptr<obs::MetricsSampler> sampler_;
    bool artifactsWritten_ = false;
    cycle_t syncCheckInterval_;
    cycle_t syscallCost_;
    cycle_t spawnCost_;
    bool ffEnabled_ = false;
    cycle_t ffDetailAt_ = 0;

    // Telemetry plane. Declared last so both host threads die before
    // the components their status callbacks read.
    int telemetryPort_ = -1; ///< -1 off, 0 ephemeral, >0 fixed
    bool watchdogEnabled_ = false;
    obs::telemetry::WatchdogConfig watchdogConfig_;
    obs::telemetry::TelemetryServer telemetryServer_;
    obs::telemetry::ProgressWatchdog watchdog_;
};

} // namespace graphite
