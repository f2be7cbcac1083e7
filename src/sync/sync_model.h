/**
 * @file
 * Synchronization models (paper §3.6).
 *
 * "Graphite offers a number of synchronization models with different
 * accuracy and performance trade-offs":
 *
 *  - Lax:        clocks synchronize only on application events; threads
 *                otherwise run freely (best performance, §3.6.1).
 *  - LaxBarrier: all *active* threads wait on a barrier every quantum
 *                cycles; very frequent barriers closely approximate
 *                cycle-accurate simulation (§3.6.2).
 *  - LaxP2P:     each tile periodically picks a random partner; a tile
 *                ahead of its partner by more than the slack waits for
 *                the laggards (§3.6.3). The paper sleeps s = c / r
 *                wall-clock seconds (c the clock difference, r the
 *                observed simulation rate); this model instead parks
 *                the tile on the host scheduler (skewPark) until the
 *                minimum schedulable clock is back within the slack.
 *                Only host scheduling differs; simulated time is
 *                unaffected.
 *
 * Threads that block in application synchronization (futex) or have
 * exited must be deregistered from the model, or a barrier would wait
 * forever on a thread that cannot advance.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/observers.h"

namespace graphite
{

class Config;
class CoreModel;

namespace host
{
class HostScheduler;
}

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Abstract synchronization model. All methods are thread-safe. */
class SyncModel
{
  public:
    virtual ~SyncModel() = default;

    /**
     * Attach the host execution scheduler. Required before any thread
     * can wait in the model: barrier waits release the execution slot,
     * and LaxP2P skew-parks on the scheduler.
     */
    void attachScheduler(host::HostScheduler* sched) { sched_ = sched; }

    /** Attach the Simulator's trace sink and accuracy observatory. */
    void attachObservers(const obs::Observers& observers)
    {
        obs_ = observers;
    }

    /** A thread began running on @p core's tile. */
    virtual void threadStart(CoreModel& core) = 0;

    /** The thread on @p core's tile finished. */
    virtual void threadExit(CoreModel& core) = 0;

    /** The thread is about to block in application synchronization. */
    virtual void threadBlocked(CoreModel& core) = 0;

    /** The thread resumed from application synchronization. */
    virtual void threadUnblocked(CoreModel& core) = 0;

    /**
     * Called by the running thread every sync/check_interval modeled
     * instructions; implements the model's skew-limiting mechanism.
     */
    virtual void periodicSync(CoreModel& core) = 0;

    /** Model name ("lax", "lax_barrier", "lax_p2p"). */
    virtual std::string name() const = 0;

    /** @name Statistics @{ */
    virtual stat_t syncEvents() const { return 0; }
    virtual stat_t syncWaitMicroseconds() const { return 0; }
    /** @} */

    /** Factory from config key sync/model. */
    static std::unique_ptr<SyncModel> create(const Config& cfg,
                                             tile_id_t total_tiles);

    /**
     * @name Checkpoint serialization (all threads quiescent)
     * Architectural skew state only — wall-clock wait stats are host
     * artifacts and restart at zero. Stateless models save nothing.
     * @{
     */
    virtual void serialize(snapshot::Archive&) {}
    /** @} */

  protected:
    host::HostScheduler* sched_ = nullptr;
    obs::Observers obs_;
};

/** §3.6.1 — application events only; periodicSync is a no-op. */
class LaxSync : public SyncModel
{
  public:
    void threadStart(CoreModel&) override {}
    void threadExit(CoreModel&) override {}
    void threadBlocked(CoreModel&) override {}
    void threadUnblocked(CoreModel&) override {}
    void periodicSync(CoreModel&) override {}
    std::string name() const override { return "lax"; }
};

/** §3.6.2 — quanta-based barrier over all active threads. */
class LaxBarrierSync : public SyncModel
{
  public:
    LaxBarrierSync(cycle_t quantum, tile_id_t total_tiles);

    void threadStart(CoreModel& core) override;
    void threadExit(CoreModel& core) override;
    void threadBlocked(CoreModel& core) override;
    void threadUnblocked(CoreModel& core) override;
    void periodicSync(CoreModel& core) override;
    std::string name() const override { return "lax_barrier"; }

    stat_t syncEvents() const override { return barriers_.load(); }
    stat_t
    syncWaitMicroseconds() const override
    {
        return waitMicros_.load();
    }

    void serialize(snapshot::Archive& ar) override;

  private:
    void arrive(tile_id_t tile, cycle_t now);
    void leave();
    void releaseWaitersLocked();

    cycle_t quantum_;
    lockdep::OrderedMutex mutex_{lockdep::LockClass::sync_barrier};
    lockdep::CondVar cv_;
    int active_ = 0;
    int waiting_ = 0;
    std::uint64_t epoch_ = 0;
    /** Next barrier quantum boundary per tile. */
    std::vector<cycle_t> nextTarget_;
    /** Tiles blocked in arrive(), for deterministic unparking. */
    std::vector<tile_id_t> waitingTiles_;
    std::atomic<stat_t> barriers_{0};
    std::atomic<stat_t> waitMicros_{0};
};

/** §3.6.3 — random-partner point-to-point synchronization. */
class LaxP2PSync : public SyncModel
{
  public:
    /**
     * @param total_tiles  tile count (partner choice domain)
     * @param slack        max tolerated clock difference, cycles
     * @param interval     cycles between partner checks
     * @param seed         RNG seed for partner selection
     */
    LaxP2PSync(tile_id_t total_tiles, cycle_t slack, cycle_t interval,
               std::uint64_t seed);

    void threadStart(CoreModel& core) override;
    void threadExit(CoreModel& core) override;
    void threadBlocked(CoreModel& core) override;
    void threadUnblocked(CoreModel& core) override;
    void periodicSync(CoreModel& core) override;
    std::string name() const override { return "lax_p2p"; }

    stat_t syncEvents() const override { return parks_.load(); }
    stat_t
    syncWaitMicroseconds() const override
    {
        return parkMicros_.load();
    }

    void serialize(snapshot::Archive& ar) override;

  private:
    cycle_t slack_;
    cycle_t interval_;

    mutable lockdep::OrderedMutex mutex_{
        lockdep::LockClass::sync_p2p}; ///< guards cores_ and rng_
    std::vector<CoreModel*> cores_; ///< active cores, nullptr when off
    Rng rng_;
    /** Next local check threshold per tile. */
    std::vector<cycle_t> nextCheck_;
    std::atomic<stat_t> parks_{0};
    std::atomic<stat_t> parkMicros_{0};
};

} // namespace graphite
