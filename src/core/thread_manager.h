/**
 * @file
 * Threading infrastructure and consistent OS interface:
 * the MCP and LCP service threads (paper §2.2, §3.4, §3.5).
 *
 * "Graphite spawns additional threads called the Master Control Program
 * (MCP) and the Local Control Program (LCP). There is one LCP per process
 * but only one MCP for the entire simulation. The MCP and LCP ensure the
 * functional correctness of the simulation by providing services for
 * synchronization, system call execution and thread management."
 *
 * Thread management (§3.5): spawn requests are intercepted at the callee,
 * forwarded to the MCP which picks an available tile and forwards the
 * request to the owning process's LCP; the LCP creates the host thread.
 * Joins synchronize through the MCP.
 *
 * System calls (§3.4): futex emulation and file I/O execute *at the MCP*
 * so all simulated processes observe one consistent kernel state.
 */

#pragma once

#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"
#include "core/sys_msg.h"
#include "obs/telemetry/status.h"

namespace graphite
{

class Simulator;

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Application thread entry point (pthread-style). */
using thread_func_t = void (*)(void*);

/**
 * Owns the MCP thread, the per-process LCP threads, the tile allocation
 * table, the futex wait queues, and the MCP-resident file table.
 */
class ThreadManager
{
  public:
    explicit ThreadManager(Simulator& sim);
    ~ThreadManager();

    ThreadManager(const ThreadManager&) = delete;
    ThreadManager& operator=(const ThreadManager&) = delete;

    /** Start the MCP and LCP service threads. */
    void start();

    /**
     * Launch the application's main thread on tile 0 and return
     * immediately; Simulator::run() waits for completion via
     * waitForShutdown().
     */
    void launchMain(thread_func_t func, void* arg);

    /**
     * Request shutdown: the MCP drains until every tile is free, stops
     * the LCPs, and exits; all host threads are joined.
     */
    void waitForShutdown();

    /** @name Statistics @{ */
    stat_t threadsSpawned() const { return threadsSpawned_; }
    stat_t syscallCount(tile_id_t tile) const;
    stat_t totalSyscalls() const;
    /** Host ns the MCP spent waiting for requests (host.mcp.wait_ns). */
    const atomic_stat_t* mcpWaitNsCounter() const { return &mcpWaitNs_; }
    /** Host ns the MCP spent dispatching them (host.mcp.dispatch_ns). */
    const atomic_stat_t* mcpDispatchNsCounter() const
    {
        return &mcpDispatchNs_;
    }
    /** @} */

    /**
     * Snapshot of the MCP's blocking state — futex wait queues, join
     * waiters, busy-tile count — for the telemetry plane. Safe to call
     * from any host thread; copies under mcpStateMutex_, which the MCP
     * takes once per dispatched message.
     */
    obs::telemetry::WaitSetSnapshot waitSets() const;

    /**
     * @name Checkpoint serialization (between runs, MCP stopped)
     * Checkpoints are taken at quiescence, so the futex and join wait
     * queues must be empty (a save throws SnapshotError otherwise).
     * Restore is staged: it parks the state and the next start()
     * applies it after its own re-initialization, so the restored
     * syscall counters and exit clocks are not clobbered.
     * @{
     */
    void serialize(snapshot::Archive& ar);
    /** @} */

  private:
    friend class Api; // the API layer sends requests directly

    enum class TileState : std::uint8_t { Free, Busy };

    struct FutexWaiter
    {
        tile_id_t tile;
        std::uint32_t expected;
    };

    void mcpLoop();
    void lcpLoop(proc_id_t proc);
    void appTrampoline(tile_id_t tile, thread_func_t func, void* arg,
                       cycle_t start_clock, bool is_main);

    /** Send a system packet from the MCP to a tile endpoint. */
    void mcpReplyToTile(tile_id_t tile, cycle_t timestamp,
                        std::vector<std::uint8_t> payload);

    /** Send a system packet from the MCP to an LCP endpoint. */
    void mcpSendToLcp(proc_id_t proc, std::vector<std::uint8_t> payload);

    /** @name MCP request handlers @{ */
    void handleSpawn(const SysMsgHeader& hdr, const SpawnBody& body);
    void handleJoin(const SysMsgHeader& hdr, const JoinBody& body);
    void handleThreadExit(const SysMsgHeader& hdr);
    void handleFutexWait(const SysMsgHeader& hdr, const FutexBody& body);
    void handleFutexWake(const SysMsgHeader& hdr, const FutexBody& body);
    void handleFileOp(const SysMsgHeader& hdr,
                      const std::vector<std::uint8_t>& raw);
    void maybeFinishShutdown();
    /** @} */

    Simulator& sim_;

    std::thread mcpThread_;
    std::vector<std::thread> lcpThreads_;

    /** App host threads, created by LCPs; guarded by appThreadsMutex_. */
    lockdep::OrderedMutex appThreadsMutex_{lockdep::LockClass::app_threads};
    std::vector<std::thread> appThreads_;

    // ---- MCP state: written only by the MCP thread, which holds
    // mcpStateMutex_ across each message dispatch so waitSets() can
    // read a consistent snapshot from telemetry host threads. ----
    mutable lockdep::OrderedMutex mcpStateMutex_{
        lockdep::LockClass::mcp_state};
    std::vector<TileState> tileState_;
    std::unordered_map<tile_id_t, cycle_t> exitClock_;
    std::unordered_map<tile_id_t, std::vector<tile_id_t>> joinWaiters_;
    std::unordered_map<addr_t, std::deque<FutexWaiter>> futexQueues_;
    std::unordered_map<std::int32_t, std::FILE*> files_;
    std::int32_t nextFd_ = 3;
    bool shutdownRequested_ = false;
    bool shutdownDone_ = false;
    int busyTiles_ = 0;

    stat_t threadsSpawned_ = 0;
    std::vector<stat_t> syscalls_; ///< per-tile, incremented by MCP only
    atomic_stat_t mcpWaitNs_{0};     ///< written by the MCP thread only
    atomic_stat_t mcpDispatchNs_{0}; ///< written by the MCP thread only

    /** Restored state parked by serialize() until the next start(). */
    struct PendingRestore
    {
        std::unordered_map<tile_id_t, cycle_t> exitClock;
        stat_t threadsSpawned = 0;
        std::vector<stat_t> syscalls;
        std::int32_t nextFd = 3;
    };
    std::unique_ptr<PendingRestore> pendingRestore_;
};

} // namespace graphite
