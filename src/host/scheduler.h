/**
 * @file
 * Host execution scheduler: bounded-pool multiplexing of target
 * threads onto host execution slots (paper §3.6, §4.1).
 *
 * Graphite's performance claim rests on target threads executing
 * *concurrently* on the host under lax synchronization. The simulator
 * keeps the paper's 1:1 target-thread/host-thread model (§3.5) but
 * gates execution: a target thread must hold one of `host/threads`
 * execution slots to run, and it yields the slot cooperatively at
 * quantum boundaries (`host/quantum_cycles` of simulated time), when
 * it blocks in the system layer (MCP round trips, message receive,
 * sync-model barriers), or when LaxP2PSync skew-parks it. Scheduling
 * cost is thus amortized over a quantum instead of paid per access.
 *
 * Modes (`host/scheduler`); every Simulator runs one of them:
 *  - free_running:  up to `host/threads` slots granted in tile-id
 *                   round-robin; maximum throughput, host-timing
 *                   dependent interleavings.
 *  - deterministic: a single slot granted in fixed tile-id round-robin
 *                   order at quantum boundaries, plus a request fence
 *                   that serializes every app->MCP message before the
 *                   sender may proceed. The schedule — and therefore
 *                   the simulation result — is a pure function of the
 *                   configuration, identical across `host/threads`
 *                   values (the pool width is deliberately ignored;
 *                   see DESIGN.md "Determinism guarantees and limits").
 *
 * Park/unpark protocol: every state transition happens under one
 * scheduler mutex; each waiting thread sleeps on its own per-tile
 * condition variable and is woken individually when its slot is
 * granted (no broadcast — a shared condvar would wake every parked
 * thread per handoff). A thread that blocks *releases its slot first*
 * (beginBlock) and re-queues on wake (endBlock); the slot therefore
 * always represents a thread that can make forward progress.
 *
 * Skew park: LaxP2PSync parks a thread that ran too far ahead
 * (skewPark) until the minimum clock over all schedulable threads
 * reaches its wake clock; quantum boundaries and slot releases promote
 * it. The minimum is computed including the parked threads themselves
 * and the thread at the minimum never parks, so parking cannot
 * deadlock.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"

namespace graphite
{

class Config;
class CoreModel;

namespace host
{

enum class SchedMode : std::uint8_t
{
    Deterministic,
    FreeRunning,
};

/** Resolved scheduler configuration (see fromConfig). */
struct SchedulerConfig
{
    SchedMode mode{};
    int hostThreads{}; ///< pool width (slots)
    cycle_t quantumCycles{};

    /**
     * Parse host/scheduler, host/threads and host/quantum_cycles;
     * hostThreads is resolved (host/threads = 0 means hardware
     * concurrency, so it is never 0 on return).
     */
    static SchedulerConfig fromConfig(const Config& cfg);
};

/** Live pool occupancy for /status and the host.pool.* gauges. */
struct PoolGauges
{
    int slots = 0;
    int executing = 0;  ///< threads holding a slot and running
    int runnable = 0;   ///< Ready or Granted, waiting to run
    int blocked = 0;    ///< blocked in MCP/app/sync waits
    int skewParked = 0; ///< parked by skewPark
    int expected = 0;   ///< spawn granted, host thread not yet arrived
};

class HostScheduler
{
  public:
    /** Why a thread is giving up its slot (selects the wake channel). */
    enum class BlockKind : std::uint8_t
    {
        Sys,  ///< waiting for an MCP reply
        App,  ///< waiting for an application message
        Sync, ///< waiting inside the sync model (barrier epoch)
    };

    HostScheduler(const SchedulerConfig& cfg, tile_id_t total_tiles);

    SchedMode mode() const { return cfg_.mode; }
    bool deterministic() const
    {
        return cfg_.mode == SchedMode::Deterministic;
    }
    int slots() const { return slots_; }
    cycle_t quantum() const { return cfg_.quantumCycles; }
    const char* modeName() const;

    /** @name Thread lifecycle @{ */
    /**
     * The MCP (or launchMain) committed @p tile to a new thread; the
     * tile joins the scheduling rotation immediately so the rotation
     * order never depends on host thread-creation latency.
     */
    void expectThread(tile_id_t tile);

    /** The host thread arrived on @p tile; @p core is its clock. */
    void registerThread(tile_id_t tile, const CoreModel* core);

    /** Block until the tile's first slot grant; then it is Running. */
    void start(tile_id_t tile);

    /** The thread finished: release the slot and leave the rotation. */
    void finishThread(tile_id_t tile);

    /**
     * Reset cross-run cursor state so a second run() on the same
     * Simulator (or a run resumed from a checkpoint) grants slots in
     * the same order as a fresh simulation. Per-thread records are
     * already reset by finishThread() at quiescence.
     */
    void resetForRun();
    /** @} */

    /**
     * Cooperative yield point, called from the instruction-tick hook.
     * Fast path: one relaxed clock load per check. On quantum expiry:
     * promote skew-parked threads that may run again, then hand the
     * slot to the next waiter (if any) and re-queue.
     */
    void quantumCheck(tile_id_t tile);

    /** @name Blocking protocol @{ */
    /** Release the slot before a blocking wait. Never blocks. */
    void beginBlock(tile_id_t tile, BlockKind kind);

    /** Re-acquire a slot after the wait; blocks until granted. */
    void endBlock(tile_id_t tile);

    /**
     * Deterministic wake hook: the (slot-holding or MCP) caller marks
     * @p tile runnable again. Only acts in deterministic mode and only
     * when the tile is blocked with matching @p kind — wake timing must
     * come from simulation events, not from host thread wake latency.
     * No-op in free_running mode (threads self-mark in endBlock).
     */
    void notifyUnblocked(tile_id_t tile, BlockKind kind);
    /** @} */

    /**
     * Deterministic request fence: called by the sender after pushing a
     * message to the MCP; blocks until the MCP has fully dispatched it.
     * This serializes MCP side effects into the single-slot execution
     * order. No-op outside deterministic mode.
     */
    void requestFence(tile_id_t tile);

    /** MCP side of the fence: one call per dispatched message. */
    void requestDispatched(tile_id_t tile);

    /**
     * Park the calling (slot-holding) thread until the minimum clock
     * over all schedulable threads reaches @p wake_clock. Returns the
     * wall nanoseconds spent parked (0 if the condition already held).
     * LaxP2PSync's skew mechanism uses it.
     */
    std::uint64_t skewPark(tile_id_t tile, cycle_t wake_clock);

    /** @name Statistics @{ */
    PoolGauges gauges() const;
    const std::atomic<stat_t>* quantaCounter() const { return &quanta_; }
    const std::atomic<stat_t>* yieldsCounter() const { return &yields_; }
    const std::atomic<stat_t>* skewParksCounter() const
    {
        return &skewParks_;
    }
    const std::atomic<stat_t>* skewParkNsCounter() const
    {
        return &skewParkNs_;
    }
    /** @} */

  private:
    enum class ThreadState : std::uint8_t
    {
        Absent,      ///< no thread on this tile
        Expected,    ///< committed by spawn; host thread not arrived
        Ready,       ///< wants a slot
        Granted,     ///< holds a slot, owner not yet (re)started
        Running,     ///< holds a slot and executes
        BlockedSys,  ///< released slot, waiting for an MCP reply
        BlockedApp,  ///< released slot, waiting for an app message
        BlockedSync, ///< released slot, waiting in the sync model
        SkewParked,  ///< released slot, parked by skewPark
    };

    struct ThreadRec
    {
        ThreadState state = ThreadState::Absent;
        const CoreModel* core = nullptr;
        cycle_t quantumStart = 0; ///< owner-only while Running
        cycle_t wakeClock = 0;    ///< SkewParked promotion threshold
        std::uint64_t fenceTicket = 0; ///< owner-only request count
        std::uint64_t fenceDone = 0;   ///< MCP dispatch count
        /** A spawn reused this tile before the old occupant left. */
        bool respawnPending = false;
        const CoreModel* pendingCore = nullptr;
        /**
         * Per-thread wake channel: only this tile's owner ever waits
         * here (for a grant or for its fence ticket), so every wakeup
         * is targeted — a broadcast on a shared condvar would wake
         * every parked thread per slot handoff just for all but one
         * to go back to sleep, and on an oversubscribed host that
         * thundering herd dominates scheduling cost.
         */
        lockdep::CondVar cv;
    };

    static ThreadState blockedState(BlockKind kind);

    /** Min clock over schedulable threads; cycle_t max if none. */
    cycle_t minActiveClockLocked() const;

    /** Promote SkewParked threads whose wake condition now holds. */
    void promoteSkewParkedLocked();

    /** Fill free slots in tile-id round-robin order from the cursor. */
    void grantLocked();

    /** Wait until this tile holds a slot; transitions to Running. */
    void waitGrant(lockdep::UniqueLock& lock, tile_id_t tile);

    /** Release the calling thread's slot into @p next state. */
    void releaseSlotLocked(tile_id_t tile, ThreadState next);

    bool anyWaiterLocked() const;

    const SchedulerConfig cfg_;
    const int slots_; ///< 1 in deterministic mode

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::sched_pool};
    std::vector<ThreadRec> threads_;
    int used_ = 0;          ///< slots currently granted
    tile_id_t cursor_ = 0;  ///< round-robin grant cursor

    std::atomic<stat_t> quanta_{0};
    std::atomic<stat_t> yields_{0};
    std::atomic<stat_t> skewParks_{0};
    std::atomic<stat_t> skewParkNs_{0};
};

} // namespace host
} // namespace graphite
