#include "host/host_model.h"

#include <algorithm>
#include <cmath>

#include "common/config.h"
#include "common/log.h"
#include "core/simulator.h"
#include "mem/memory_system.h"

namespace graphite
{

SimulationProfile
SimulationProfile::capture(Simulator& sim, double wall_seconds)
{
    SimulationProfile prof;
    prof.tiles = sim.totalTiles();
    prof.appThreads =
        static_cast<int>(sim.threadManager().threadsSpawned()) + 1;
    prof.instructions.resize(prof.tiles);
    prof.memAccesses.resize(prof.tiles);
    prof.l2Misses.resize(prof.tiles);
    prof.syscalls.resize(prof.tiles);
    for (tile_id_t t = 0; t < prof.tiles; ++t) {
        prof.instructions[t] = sim.tile(t).core().instructionsRetired();
        const TileMemoryStats& ms = sim.memory().stats(t);
        prof.memAccesses[t] = ms.totalAccesses;
        prof.l2Misses[t] = ms.l2ColdMisses + ms.l2CapacityMisses +
                           ms.l2TrueSharingMisses +
                           ms.l2FalseSharingMisses + ms.l2UpgradeMisses;
        prof.syscalls[t] = sim.threadManager().syscallCount(t);
    }

    size_t n = static_cast<size_t>(prof.tiles) * prof.tiles;
    prof.msgMatrix.resize(n, 0);
    prof.byteMatrix.resize(n, 0);
    for (tile_id_t s = 0; s < prof.tiles; ++s) {
        for (tile_id_t d = 0; d < prof.tiles; ++d) {
            size_t idx = static_cast<size_t>(s) * prof.tiles + d;
            prof.msgMatrix[idx] = sim.fabric().pairMessages(s, d);
            prof.byteMatrix[idx] = sim.fabric().pairBytes(s, d);
        }
    }

    prof.syncModel = sim.syncModel().name();
    prof.syncEvents = sim.syncModel().syncEvents();
    prof.syncWaitMicros = sim.syncModel().syncWaitMicroseconds();
    prof.simulatedCycles = sim.simulatedTime();
    prof.measuredWallSeconds = wall_seconds;
    return prof;
}

SimulationProfile
scaleProfile(const SimulationProfile& prof, double compute_scale,
             double comm_scale)
{
    if (compute_scale <= 0 || comm_scale <= 0)
        fatal("profile scale factors must be positive");
    SimulationProfile out = prof;
    auto scale = [](std::vector<stat_t>& v, double f) {
        for (stat_t& x : v)
            x = static_cast<stat_t>(static_cast<double>(x) * f);
    };
    scale(out.instructions, compute_scale);
    scale(out.memAccesses, compute_scale);
    scale(out.l2Misses, comm_scale);
    scale(out.syscalls, comm_scale);
    scale(out.msgMatrix, comm_scale);
    scale(out.byteMatrix, comm_scale);
    out.syncEvents = static_cast<stat_t>(
        static_cast<double>(out.syncEvents) * comm_scale);
    out.simulatedCycles = static_cast<cycle_t>(
        static_cast<double>(out.simulatedCycles) * compute_scale);
    return out;
}

HostCosts
HostCosts::fromConfig(const Config& cfg)
{
    HostCosts c;
    c.hostClockGhz = cfg.getDouble("host/host_clock_ghz");
    c.coresPerMachine =
        static_cast<int>(cfg.getInt("host/cores_per_machine"));
    c.procsPerMachine =
        static_cast<int>(cfg.getInt("host/processes_per_machine"));
    c.nativeIpc = cfg.getDouble("host/native_ipc");
    c.instructionCost = cfg.getDouble("host/instruction_model_cost");
    c.memEventCost = cfg.getDouble("host/memory_event_cost");
    c.missEventCost = cfg.getDouble("host/miss_event_cost");
    c.messageCost = cfg.getDouble("host/message_send_cost");
    c.interProcessByteCost = cfg.getDouble("host/inter_process_byte_cost");
    c.syscallHostCost = cfg.getDouble("host/syscall_host_cost");
    c.intraProcessLatencyUs =
        cfg.getDouble("transport/intra_process_latency_us");
    c.interProcessLatencyUs =
        cfg.getDouble("transport/inter_process_latency_us");
    c.initSecondsPerProcess =
        cfg.getDouble("host/init_seconds_per_process");
    c.stallExposure = cfg.getDouble("host/stall_exposure");
    c.barrierBaseUs = cfg.getDouble("host/barrier_base_us");
    return c;
}

HostModel::HostModel(HostCosts costs) : costs_(costs)
{
}

HostEstimate
HostModel::estimate(const SimulationProfile& prof, int machines,
                    int cores_per_machine) const
{
    if (machines <= 0)
        fatal("host model: machines must be positive (got {})", machines);
    if (costs_.procsPerMachine <= 0)
        fatal("host model: host/processes_per_machine must be positive "
              "(got {})",
              costs_.procsPerMachine);
    const int cores = cores_per_machine > 0 ? cores_per_machine
                                            : costs_.coresPerMachine;
    const int P = machines * costs_.procsPerMachine;
    const tile_id_t N = prof.tiles;
    const double hz = costs_.hostClockGhz * 1e9;

    auto proc_of = [&](tile_id_t t) { return t % P; };

    // Per-tile host work (cycles) and latency stalls (seconds).
    std::vector<double> work(N, 0.0);
    std::vector<double> stall(N, 0.0);
    for (tile_id_t t = 0; t < N; ++t) {
        work[t] = static_cast<double>(prof.instructions[t]) *
                      costs_.instructionCost +
                  static_cast<double>(prof.memAccesses[t]) *
                      costs_.memEventCost +
                  static_cast<double>(prof.l2Misses[t]) *
                      costs_.missEventCost +
                  static_cast<double>(prof.syscalls[t]) *
                      costs_.syscallHostCost;
        // Syscalls are round trips to the MCP in process 0.
        double sys_lat = proc_of(t) != 0 ? costs_.interProcessLatencyUs
                                         : costs_.intraProcessLatencyUs;
        stall[t] += costs_.stallExposure *
                    static_cast<double>(prof.syscalls[t]) * 2.0 *
                    sys_lat * 1e-6;
        if (proc_of(t) != 0) {
            work[t] += static_cast<double>(prof.syscalls[t]) * 2.0 *
                       costs_.messageCost;
        }
    }

    // Message traffic: per-pair locality under the modeled layout.
    // Intra-process delivery is a shared-memory data-structure update
    // whose cost is already inside missEventCost; only inter-process
    // messages pay the socket CPU cost (send+recv syscalls,
    // serialization). Latency stalls are weighted by stallExposure:
    // under lax synchronization most of a thread's wait is overlapped
    // by other threads multiplexed on the same host core, and only the
    // exposed fraction lands on the wall clock.
    for (tile_id_t s = 0; s < N; ++s) {
        for (tile_id_t d = 0; d < N; ++d) {
            size_t idx = static_cast<size_t>(s) * N + d;
            stat_t msgs = prof.msgMatrix[idx];
            if (msgs == 0)
                continue;
            stat_t bytes = prof.byteMatrix[idx];
            if (proc_of(s) != proc_of(d)) {
                double cpu =
                    static_cast<double>(msgs) * costs_.messageCost +
                    static_cast<double>(bytes) *
                        costs_.interProcessByteCost;
                work[s] += cpu / 2;
                work[d] += cpu / 2;
                stall[s] += costs_.stallExposure *
                            static_cast<double>(msgs) *
                            costs_.interProcessLatencyUs * 1e-6;
            } else {
                stall[s] += costs_.stallExposure *
                            static_cast<double>(msgs) *
                            costs_.intraProcessLatencyUs * 1e-6;
            }
        }
    }

    // Per-machine time: total work multiplexed over cores, bounded below
    // by the slowest single thread (its stalls do not consume CPU but do
    // serialize with its own work).
    HostEstimate est;
    double parallel = 0;
    double worst_stall = 0;
    for (int m = 0; m < machines; ++m) {
        double machine_work = 0;
        double critical = 0;
        int threads_here = 0;
        for (tile_id_t t = 0; t < N; ++t) {
            if (proc_of(t) / costs_.procsPerMachine != m)
                continue;
            ++threads_here;
            machine_work += work[t] / hz;
            critical =
                std::max(critical, work[t] / hz + stall[t]);
            worst_stall = std::max(worst_stall, stall[t]);
        }
        if (threads_here == 0)
            continue;
        double multiplexed =
            machine_work / std::min(cores, threads_here);
        parallel = std::max(parallel, std::max(multiplexed, critical));
    }
    est.computeSeconds = parallel;
    est.commStallSeconds = worst_stall;

    // Synchronization-model overhead.
    if (prof.syncModel == "lax_barrier") {
        double per_epoch_us =
            costs_.barrierBaseUs +
            (P > 1 ? 2.0 * costs_.interProcessLatencyUs *
                         std::log2(static_cast<double>(P) + 1)
                   : 0.0);
        est.syncSeconds =
            static_cast<double>(prof.syncEvents) * per_epoch_us * 1e-6;
    } else if (prof.syncModel == "lax_p2p") {
        // Sleeps overlap across threads; the average per-thread share
        // lands on the critical path.
        est.syncSeconds = static_cast<double>(prof.syncWaitMicros) *
                          1e-6 /
                          std::max(1, prof.appThreads);
    }

    est.initSeconds = costs_.initSecondsPerProcess * P;
    est.totalSeconds =
        est.initSeconds + est.computeSeconds + est.syncSeconds;
    return est;
}

double
HostModel::nativeSeconds(const SimulationProfile& prof) const
{
    const double ips = costs_.hostClockGhz * 1e9 * costs_.nativeIpc;
    double total = 0;
    double critical = 0;
    for (stat_t instr : prof.instructions) {
        total += static_cast<double>(instr);
        critical = std::max(critical, static_cast<double>(instr));
    }
    int threads = std::max(1, prof.appThreads);
    double multiplexed =
        total / (ips * std::min(threads, costs_.coresPerMachine));
    return std::max(multiplexed, critical / ips);
}

} // namespace graphite
