#include "core/simulator.h"

#include <chrono>
#include <sstream>

#include "check/fault.h"
#include "common/log.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "obs/accuracy/accuracy.h"
#include "obs/metrics_sampler.h"
#include "obs/span/span_sink.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/trace_event.h"
#include "race/detector.h"

namespace graphite
{

namespace
{

/**
 * Set up the one process-wide observer, the flight recorder, whose
 * crash handler needs one async-signal-safe target for the whole
 * process. Building a Simulator resets it.
 */
void
configureProcessWide(const Config& cfg)
{
    // Black-box flight recorder: always-on by default. Reconfigure
    // drops the previous run's events so dumps never mix runs.
    obs::telemetry::FlightRecorder& recorder =
        obs::telemetry::FlightRecorder::instance();
    recorder.setArmed(false);
    if (cfg.getBool("telemetry/recorder")) {
        recorder.configure(static_cast<std::size_t>(
            cfg.getInt("telemetry/recorder_capacity")));
        recorder.setArmed(true);
    }
    std::string crash_dump = cfg.getString("telemetry/crash_dump");
    if (!crash_dump.empty())
        recorder.installCrashHandler(crash_dump);
    else
        recorder.uninstallCrashHandler();
}

} // namespace

Simulator::Simulator(Config cfg)
    : cfg_(std::move(cfg)),
      topo_(static_cast<tile_id_t>(cfg_.getInt("general/total_tiles")),
            static_cast<proc_id_t>(cfg_.getInt("general/num_processes"))),
      transport_(topo_)
{
    configureProcessWide(cfg_);

    const tile_id_t tiles = topo_.totalTiles();
    fabric_ = std::make_unique<NetworkFabric>(topo_, cfg_);

    trace_ = obs::TraceSink::fromConfig(cfg_, tiles);
    obs::SpanSink::Options span_opt;
    MeshShape mesh(tiles);
    span_opt.hops = [mesh](tile_id_t a, tile_id_t b) {
        return mesh.hops(a, b);
    };
    span_opt.maxHops = mesh.width() + mesh.height();
    span_opt.progress = [fabric = fabric_.get()] {
        return fabric->progress().current().value_or(0);
    };
    spans_ = obs::SpanSink::fromConfig(cfg_, tiles, std::move(span_opt),
                                       trace_.get());
    accuracy_ = obs::accuracy::AccuracyObservatory::fromConfig(cfg_, tiles);
    race_ = race::Detector::fromConfig(cfg_, tiles, trace_.get());
    faults_ = check::FaultPlan::fromConfig(cfg_);

    memory_ =
        std::make_unique<MemorySystem>(topo_, *fabric_, cfg_, observers());
    sync_ = SyncModel::create(cfg_, tiles);

    sched_ = std::make_unique<host::HostScheduler>(
        host::SchedulerConfig::fromConfig(cfg_), tiles);
    // Sync models that block release the execution slot while waiting.
    sync_->attachScheduler(sched_.get());
    sync_->attachObservers(observers());

    tiles_.reserve(tiles);
    for (tile_id_t t = 0; t < tiles; ++t)
        tiles_.push_back(std::make_unique<Tile>(t, cfg_, *fabric_,
                                                transport_, observers()));

    // Hand the accuracy observatory live clock pointers so delivery
    // hooks can compare event timestamps against receiver clocks.
    if (accuracy_)
        for (tile_id_t t = 0; t < tiles; ++t)
            accuracy_->attachClock(t, tiles_[t]->core().clockPtr());

    threads_ = std::make_unique<ThreadManager>(*this);

    syncCheckInterval_ = cfg_.getInt("sync/check_interval");
    syscallCost_ = cfg_.getInt("system/syscall_cost");
    spawnCost_ = cfg_.getInt("system/spawn_cost");
    ffEnabled_ = cfg_.getBool("snapshot/fast_forward");
    ffDetailAt_ = cfg_.getInt("snapshot/ff_detail_at");

    telemetryPort_ = static_cast<int>(cfg_.getInt("telemetry/http_port"));
    watchdogEnabled_ = cfg_.getBool("telemetry/watchdog");
    watchdogConfig_ = obs::telemetry::WatchdogConfig::fromConfig(cfg_);

    registerStats();
    sampler_ = obs::MetricsSampler::fromConfig(
        cfg_, &stats_, [this] { return simulatedTime(); },
        [this] {
            std::vector<double> clocks;
            clocks.reserve(tiles_.size());
            for (const auto& tile : tiles_) {
                cycle_t c = tile->core().cycle();
                if (tile->running() && c > 0)
                    clocks.push_back(static_cast<double>(c));
            }
            return clocks;
        });
}

Simulator::~Simulator()
{
    // A run() that never returned (error paths) still leaves artifacts.
    if (!artifactsWritten_)
        writeArtifacts();
}

obs::Observers
Simulator::observers() const
{
    return obs::Observers{trace_.get(), spans_.get(), accuracy_.get(),
                          race_.get(), faults_.get()};
}

void
Simulator::writeArtifacts()
{
    artifactsWritten_ = true;
    if (sampler_) {
        sampler_->flush();
        informc("obs", "wrote {} metrics intervals to {}",
                sampler_->rowCount(), sampler_->path());
    }
    if (spans_ && !spans_->path().empty()) {
        spans_->writeFile();
        informc("obs", "wrote {} sampled spans ({} completed) to {}",
                spans_->sampledCount(), spans_->completedCount(),
                spans_->path());
    }
    if (trace_) {
        trace_->writeFile();
        informc("obs", "wrote {} trace events to {} ({} dropped)",
                trace_->recorded(), trace_->path(), trace_->dropped());
    }
    if (accuracy_)
        accuracy_->writeReport();
}

void
Simulator::registerStats()
{
    for (tile_id_t t = 0; t < topo_.totalTiles(); ++t) {
        const CoreModel* core = &tiles_[t]->core();
        stats_.registerGauge(strfmt("tile.{}.cycles", t),
                             [core] { return core->cycle(); });
        stats_.registerGauge(
            strfmt("tile.{}.instructions", t),
            [core] { return core->instructionsRetired(); });
        MemorySystem* mem = memory_.get();
        stats_.registerGauge(strfmt("tile.{}.l1d.misses", t),
                             [mem, t]() -> stat_t {
                                 Cache* c = mem->l1d(t);
                                 return c ? c->misses() : 0;
                             });
        stats_.registerGauge(strfmt("tile.{}.l2.misses", t), [mem, t] {
            return mem->l2(t).misses();
        });
    }

    // The memory system keeps its aggregates in per-tile and per-shard
    // parts, so no host thread writes a counter another one writes; the
    // registry sums the parts when read.
    memory_->registerStats(stats_);

    NetworkFabric* fabric = fabric_.get();
    auto net_gauges = [&](const char* tag, PacketType type) {
        stats_.registerGauge(strfmt("net.{}.packets", tag),
                             [fabric, type] {
                                 return fabric->modelFor(type)
                                     .packetsRouted();
                             });
        stats_.registerGauge(strfmt("net.{}.bytes", tag),
                             [fabric, type] {
                                 return fabric->modelFor(type)
                                     .bytesRouted();
                             });
    };
    net_gauges("app", PacketType::App);
    net_gauges("memory", PacketType::Memory);
    net_gauges("system", PacketType::System);
    stats_.registerGauge("net.inflight_packets", [fabric] {
        return fabric->inflightAppPackets();
    });
    Transport* transport = &transport_;
    stats_.registerGauge("transport.queue_depth", [transport] {
        return static_cast<stat_t>(transport->totalPending());
    });

    SyncModel* sync = sync_.get();
    stats_.registerGauge("sync.events",
                         [sync] { return sync->syncEvents(); });
    stats_.registerGauge("sync.wait_us", [sync] {
        return sync->syncWaitMicroseconds();
    });

    host::HostScheduler* sched = sched_.get();
    stats_.registerGauge("host.pool.slots", [sched] {
        return static_cast<stat_t>(sched->slots());
    });
    stats_.registerGauge("host.pool.executing", [sched] {
        return static_cast<stat_t>(sched->gauges().executing);
    });
    stats_.registerGauge("host.pool.runnable", [sched] {
        return static_cast<stat_t>(sched->gauges().runnable);
    });
    stats_.registerGauge("host.pool.blocked", [sched] {
        return static_cast<stat_t>(sched->gauges().blocked);
    });
    stats_.registerGauge("host.pool.skew_parked", [sched] {
        return static_cast<stat_t>(sched->gauges().skewParked);
    });
    stats_.registerCounter("host.pool.quanta", sched->quantaCounter());
    stats_.registerCounter("host.pool.yields", sched->yieldsCounter());
    stats_.registerCounter("host.pool.skew_parks",
                           sched->skewParksCounter());
    stats_.registerCounter("host.pool.skew_park_ns",
                           sched->skewParkNsCounter());

    if (race::Detector* det = race_.get()) {
        stats_.registerGauge("race.races",
                             [det] { return det->raceCount(); });
        stats_.registerGauge("race.words_checked",
                             [det] { return det->wordsChecked(); });
        stats_.registerGauge("race.sync_edges",
                             [det] { return det->syncEdges(); });
        stats_.registerGauge("race.shadow_lines",
                             [det] { return det->shadowLines(); });
        stats_.registerGauge("race.shadow_evictions",
                             [det] { return det->shadowEvictions(); });
        stats_.registerGauge("race.shadow_expansions",
                             [det] { return det->shadowExpansions(); });
    }

    if (obs::SpanSink* spans = spans_.get()) {
        stats_.registerCounter("span.completed",
                               spans->completedCounter());
        for (int s = 0; s < obs::NUM_SPAN_STAGES; ++s) {
            auto stage = static_cast<obs::SpanStage>(s);
            stats_.registerCounter(
                strfmt("span.stage.{}_cycles", obs::spanStageName(stage)),
                spans->stageCyclesCounter(stage));
        }
    }

    if (obs::accuracy::AccuracyObservatory* acc = accuracy_.get()) {
        stats_.registerCounter("accuracy.deliveries",
                               acc->deliveriesCounter());
        stats_.registerCounter("accuracy.violations",
                               acc->violationsCounter());
        stats_.registerGauge("accuracy.worst_magnitude_cycles",
                             [acc] { return acc->worstMagnitude(); });
        stats_.registerHistogram("accuracy.magnitude",
                                 acc->magnitudeHistogram());
        for (int p = 0; p < obs::accuracy::NUM_VIOLATION_POINTS; ++p) {
            auto point = static_cast<obs::accuracy::ViolationPoint>(p);
            stats_.registerGauge(
                strfmt("accuracy.violations.{}",
                       obs::accuracy::violationPointName(point)),
                [acc, point] { return acc->pointViolations(point); });
        }
        stats_.registerHistogram(
            "accuracy.net_latency.app",
            acc->netLatencyHistogram(
                static_cast<int>(PacketType::App)));
        stats_.registerHistogram(
            "accuracy.net_latency.memory",
            acc->netLatencyHistogram(
                static_cast<int>(PacketType::Memory)));
        stats_.registerHistogram(
            "accuracy.net_latency.system",
            acc->netLatencyHistogram(
                static_cast<int>(PacketType::System)));
        stats_.registerGauge("sync.skew_pair_max_cycles",
                             [acc] { return acc->pairSkewMax(); });
        stats_.registerGauge("sync.skew_pair_mean_cycles", [acc] {
            return static_cast<stat_t>(acc->pairSkewMean());
        });
        stats_.registerGauge("sync.skew_pair_samples",
                             [acc] { return acc->pairSamples(); });
    }

    ThreadManager* threads = threads_.get();
    stats_.registerGauge("threads.spawned",
                         [threads] { return threads->threadsSpawned(); });
    stats_.registerGauge("syscalls.total",
                         [threads] { return threads->totalSyscalls(); });
    stats_.registerCounter("host.mcp.wait_ns",
                           threads->mcpWaitNsCounter());
    stats_.registerCounter("host.mcp.dispatch_ns",
                           threads->mcpDispatchNsCounter());
    stats_.registerGauge("sim.cycles_max",
                         [this] { return simulatedTime(); });
    stats_.registerGauge("sim.instructions_total",
                         [this] { return totalInstructions(); });

    // Telemetry plane: scrape counters, watchdog verdict counters, and
    // the flight recorder's high-water mark.
    stats_.registerCounter("telemetry.http.requests",
                           &telemetryServer_.requestsServed());
    stats_.registerCounter("telemetry.http.bytes",
                           &telemetryServer_.bytesServed());
    stats_.registerCounter("telemetry.stall.beats", &watchdog_.beats());
    stats_.registerCounter("telemetry.stall.stalls",
                           &watchdog_.stallFlags());
    stats_.registerCounter("telemetry.stall.deadlocks",
                           &watchdog_.deadlockFlags());
    stats_.registerCounter("telemetry.stall.livelocks",
                           &watchdog_.livelockFlags());
    stats_.registerCounter("telemetry.stall.dumps", &watchdog_.dumps());
    stats_.registerGauge("telemetry.recorder.events", [] {
        return obs::telemetry::FlightRecorder::instance().recorded();
    });
}

obs::telemetry::StatusSource
Simulator::makeStatusSource()
{
    obs::telemetry::StatusSource src;
    src.stats = &stats_;
    src.tiles = [this] {
        std::vector<obs::telemetry::TileStatus> out;
        out.reserve(tiles_.size());
        for (const auto& tile : tiles_) {
            obs::telemetry::TileStatus ts;
            ts.tile = tile->id();
            ts.cycles = tile->core().cycle();
            ts.instructions = tile->core().instructionsRetired();
            ts.occupied = tile->occupied();
            ts.running = tile->running();
            out.push_back(ts);
        }
        return out;
    };
    src.waitSets = [this] { return threads_->waitSets(); };
    src.syncModelName = sync_->name();
    src.schedulerMode = sched_->modeName();
    return src;
}

Tile&
Simulator::tile(tile_id_t id)
{
    GRAPHITE_ASSERT(id >= 0 && id < topo_.totalTiles());
    return *tiles_[id];
}

SimulationSummary
Simulator::run(thread_func_t app_main, void* arg)
{
    artifactsWritten_ = false;
    if (telemetryPort_ >= 0 && !telemetryServer_.running()) {
        telemetryServer_.start(
            static_cast<std::uint16_t>(telemetryPort_),
            makeStatusSource(),
            [this] { return watchdog_.view(); });
    }
    if (watchdogEnabled_)
        watchdog_.start(watchdogConfig_, makeStatusSource());

    // Re-runnable: a second run() (or one resumed from a checkpoint)
    // must grant host execution slots from the same cursor position.
    sched_->resetForRun();
    beginFastForward();

    auto t0 = std::chrono::steady_clock::now();
    threads_->start();
    threads_->launchMain(app_main, arg);
    threads_->waitForShutdown();
    auto t1 = std::chrono::steady_clock::now();

    // Leave detailed mode armed for the next segment: a checkpoint
    // written now is a warmed state that sweeps resume in full detail.
    endFastForward();

    // The watchdog only judges an in-flight run; the HTTP server keeps
    // serving final values until the Simulator dies so external probes
    // can scrape a quiescent /metrics (see --telemetry-linger).
    watchdog_.stop();

    writeArtifacts();

    // The memory system is self-verifying: protocol state must be
    // consistent at quiescence. On by default so every system test
    // inherits the check; perf runs can disable it.
    if (cfg_.getBool("check/validate_at_shutdown")) {
        std::string err = memory_->validateCoherence();
        if (!err.empty())
            fatal("coherence validation failed at shutdown: {}", err);
    }

    if (race_) {
        race_->finalizeReport();
        for (const race::RaceRecord& r : race_->records())
            warn("race detector: {}", race_->describe(r));
    }

    SimulationSummary summary;
    summary.simulatedCycles = simulatedTime();
    summary.totalInstructions = totalInstructions();
    summary.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    summary.threadsSpawned = threads_->threadsSpawned();
    return summary;
}

cycle_t
Simulator::simulatedTime() const
{
    cycle_t max_clock = 0;
    for (const auto& tile : tiles_)
        max_clock = std::max(max_clock, tile->core().cycle());
    return max_clock;
}

std::string
Simulator::statsReport() const
{
    std::ostringstream os;
    os << "=== simulation summary ===\n";
    os << "target tiles      : " << topo_.totalTiles() << "\n";
    os << "host processes    : " << topo_.numProcesses() << "\n";
    os << "simulated cycles  : " << simulatedTime() << "\n";
    os << "instructions      : " << totalInstructions() << "\n";
    os << "threads spawned   : " << threads_->threadsSpawned() << "\n";
    os << "syscalls          : " << threads_->totalSyscalls() << "\n";
    os << "sync model        : " << sync_->name() << " (events "
       << sync_->syncEvents() << ", waited "
       << sync_->syncWaitMicroseconds() << " us)\n";
    os << "target heap       : "
       << memory_->manager().bytesAllocated() << " bytes in "
       << memory_->manager().allocationCount() << " allocations\n";
    if (race_) {
        os << "race detector     : " << race_->raceCount()
           << " races (words checked " << race_->wordsChecked()
           << ", sync edges " << race_->syncEdges() << ", shadow lines "
           << race_->shadowLines() << ")\n";
    }

    os << "\n=== network models ===\n";
    TextTable net;
    net.header({"network", "model", "packets", "bytes", "hops",
                "total latency"});
    auto type_name = [](PacketType t) {
        switch (t) {
          case PacketType::App: return "app";
          case PacketType::Memory: return "memory";
          case PacketType::System: return "system";
          default: return "?";
        }
    };
    for (PacketType t : {PacketType::App, PacketType::Memory,
                         PacketType::System}) {
        const NetworkModel& m = fabric().modelFor(t);
        net.row({type_name(t), m.name(),
                 std::to_string(m.packetsRouted()),
                 std::to_string(m.bytesRouted()),
                 std::to_string(m.totalHops()),
                 std::to_string(m.totalLatency())});
    }
    os << net.render();

    os << "\n=== per-tile detail ===\n";
    TextTable tiles;
    tiles.header({"tile", "cycles", "instr", "l1d acc", "l1d miss",
                  "l2 miss", "cold", "cap", "true", "false", "upgr",
                  "wb"});
    for (tile_id_t t = 0; t < topo_.totalTiles(); ++t) {
        const CoreModel& core = tiles_[t]->core();
        if (core.instructionsRetired() == 0)
            continue; // idle tile
        MemorySystem& mem = *memory_;
        const TileMemoryStats& ms = mem.stats(t);
        Cache* l1d = mem.l1d(t);
        tiles.row({std::to_string(t), std::to_string(core.cycle()),
                   std::to_string(core.instructionsRetired()),
                   std::to_string(l1d ? l1d->accesses() : 0),
                   std::to_string(l1d ? l1d->misses() : 0),
                   std::to_string(mem.l2(t).misses()),
                   std::to_string(ms.l2ColdMisses),
                   std::to_string(ms.l2CapacityMisses),
                   std::to_string(ms.l2TrueSharingMisses),
                   std::to_string(ms.l2FalseSharingMisses),
                   std::to_string(ms.l2UpgradeMisses),
                   std::to_string(ms.writebacks)});
    }
    os << tiles.render();
    return os.str();
}

stat_t
Simulator::totalInstructions() const
{
    stat_t total = 0;
    for (const auto& tile : tiles_)
        total += tile->core().instructionsRetired();
    return total;
}

} // namespace graphite
