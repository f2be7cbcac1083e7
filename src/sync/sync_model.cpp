#include "common/lockdep.h"
#include "sync/sync_model.h"

#include <algorithm>
#include <chrono>

#include "common/config.h"
#include "common/log.h"
#include "host/scheduler.h"
#include "obs/accuracy/accuracy.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/trace_event.h"
#include "perf/core_model.h"
#include "snapshot/snapshot.h"

namespace graphite
{

std::unique_ptr<SyncModel>
SyncModel::create(const Config& cfg, tile_id_t total_tiles)
{
    std::string type = cfg.getString("sync/model");
    cycle_t quantum = cfg.getInt("sync/quantum");
    cycle_t slack = cfg.getInt("sync/slack");
    std::uint64_t seed = cfg.getInt("rng/seed");
    if (type == "lax")
        return std::make_unique<LaxSync>();
    if (type == "lax_barrier")
        return std::make_unique<LaxBarrierSync>(quantum, total_tiles);
    if (type == "lax_p2p")
        return std::make_unique<LaxP2PSync>(
            total_tiles, slack, cfg.getInt("sync/p2p_interval"),
            seed);
    fatal("unknown sync model '{}'", type);
}

// ------------------------------------------------------------ LaxBarrier

LaxBarrierSync::LaxBarrierSync(cycle_t quantum, tile_id_t total_tiles)
    : quantum_(quantum), nextTarget_(total_tiles, quantum)
{
    if (quantum == 0)
        fatal("lax_barrier: quantum must be positive");
}

void
LaxBarrierSync::threadStart(CoreModel& core)
{
    lockdep::Guard lock(mutex_);
    ++active_;
    cycle_t c = core.cycle();
    nextTarget_[core.tileId()] = (c / quantum_ + 1) * quantum_;
}

void
LaxBarrierSync::releaseWaitersLocked()
{
    // Caller holds mutex_ and completed the epoch: re-queue every
    // blocked waiter with the scheduler at this (deterministic) point
    // rather than when their host threads win the condition variable.
    for (tile_id_t t : waitingTiles_)
        sched_->notifyUnblocked(t, host::HostScheduler::BlockKind::Sync);
    waitingTiles_.clear();
}

void
LaxBarrierSync::leave()
{
    // Caller holds mutex_. A departing thread may complete the epoch for
    // the remaining waiters.
    --active_;
    GRAPHITE_ASSERT(active_ >= 0);
    if (active_ > 0 && waiting_ == active_) {
        waiting_ = 0;
        ++epoch_;
        releaseWaitersLocked();
        cv_.notify_all();
    }
}

void
LaxBarrierSync::threadExit(CoreModel&)
{
    lockdep::Guard lock(mutex_);
    leave();
}

void
LaxBarrierSync::threadBlocked(CoreModel&)
{
    lockdep::Guard lock(mutex_);
    leave();
}

void
LaxBarrierSync::threadUnblocked(CoreModel& core)
{
    lockdep::Guard lock(mutex_);
    ++active_;
    // The clock may have been forwarded arbitrarily far while blocked;
    // re-align the next barrier target to the first boundary ahead.
    cycle_t c = core.cycle();
    nextTarget_[core.tileId()] = (c / quantum_ + 1) * quantum_;
}

void
LaxBarrierSync::arrive(tile_id_t tile, cycle_t now)
{
    auto t0 = std::chrono::steady_clock::now();
    lockdep::UniqueLock lock(mutex_);
    // No later epoch can complete before this thread arrives again (it
    // stays counted active), so the one that releases it is the next.
    const std::uint64_t my_epoch = epoch_;
    if (++waiting_ == active_) {
        waiting_ = 0;
        ++epoch_;
        barriers_.fetch_add(1, std::memory_order_relaxed);
        releaseWaitersLocked();
        cv_.notify_all();
        lock.unlock();
    } else {
        // Give up the execution slot for the duration of the epoch
        // wait — the barrier must never hold a slot hostage, or the
        // laggards it waits for could not run.
        waitingTiles_.push_back(tile);
        sched_->beginBlock(tile, host::HostScheduler::BlockKind::Sync);
        cv_.wait(lock, [&] { return epoch_ != my_epoch; });
        lock.unlock();
        // Re-acquire a slot outside mutex_: a grant can take
        // arbitrarily long and other threads need the barrier lock to
        // release us.
        sched_->endBlock(tile);
    }
    const std::uint64_t released_epoch = my_epoch + 1;
    auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    waitMicros_.fetch_add(dt, std::memory_order_relaxed);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::SyncBarrier, tile, now, released_epoch,
        static_cast<std::uint64_t>(dt));
    if (obs_.trace)
        obs_.trace->instant(static_cast<std::uint32_t>(tile),
                            "sync.barrier", now, "wait_us", dt);
}

void
LaxBarrierSync::periodicSync(CoreModel& core)
{
    tile_id_t tile = core.tileId();
    while (true) {
        {
            lockdep::Guard lock(mutex_);
            if (core.cycle() < nextTarget_[tile])
                return;
            nextTarget_[tile] += quantum_;
        }
        arrive(tile, core.cycle());
    }
}

// ---------------------------------------------------------------- LaxP2P

LaxP2PSync::LaxP2PSync(tile_id_t total_tiles, cycle_t slack,
                       cycle_t interval, std::uint64_t seed)
    : slack_(slack),
      interval_(interval),
      cores_(total_tiles, nullptr),
      rng_(seed),
      nextCheck_(total_tiles, interval)
{
    if (interval == 0)
        fatal("lax_p2p: interval must be positive");
}

void
LaxP2PSync::threadStart(CoreModel& core)
{
    lockdep::Guard lock(mutex_);
    cores_[core.tileId()] = &core;
    nextCheck_[core.tileId()] = core.cycle() + interval_;
}

void
LaxP2PSync::threadExit(CoreModel& core)
{
    lockdep::Guard lock(mutex_);
    cores_[core.tileId()] = nullptr;
}

void
LaxP2PSync::threadBlocked(CoreModel& core)
{
    lockdep::Guard lock(mutex_);
    cores_[core.tileId()] = nullptr;
}

void
LaxP2PSync::threadUnblocked(CoreModel& core)
{
    lockdep::Guard lock(mutex_);
    cores_[core.tileId()] = &core;
    nextCheck_[core.tileId()] = core.cycle() + interval_;
}

void
LaxP2PSync::periodicSync(CoreModel& core)
{
    tile_id_t tile = core.tileId();
    cycle_t my_clock = core.cycle();
    cycle_t partner_clock = 0;
    tile_id_t partner = INVALID_TILE_ID;
    bool found = false;
    {
        lockdep::Guard lock(mutex_);
        if (my_clock < nextCheck_[tile])
            return;
        nextCheck_[tile] = my_clock + interval_;

        // Choose a random *other* active tile.
        std::vector<tile_id_t> candidates;
        candidates.reserve(cores_.size());
        for (tile_id_t t = 0;
             t < static_cast<tile_id_t>(cores_.size()); ++t) {
            if (t != tile && cores_[t] != nullptr)
                candidates.push_back(t);
        }
        if (!candidates.empty()) {
            partner = candidates[rng_.nextBounded(candidates.size())];
            partner_clock = cores_[partner]->cycle();
            found = true;
        }
    }
    if (!found)
        return;

    // Each partner check is an interaction point: feed the observed
    // clock pair to the accuracy observatory's skew matrix (pure
    // observation, no effect on the park decision below).
    if (obs_.accuracy)
        obs_.accuracy->onPairObserved(tile, partner, my_clock,
                                      partner_clock);

    if (my_clock <= partner_clock || my_clock - partner_clock <= slack_)
        return;
    // We are ahead: skew-park on the scheduler. The slot goes to
    // a laggard and we resume once the minimum schedulable clock is
    // within the slack again. Simulated time is unaffected; only host
    // scheduling changes.
    std::uint64_t ns = sched_->skewPark(tile, my_clock - slack_);
    if (ns == 0)
        return;
    auto micros = static_cast<std::int64_t>(
        std::max<std::uint64_t>(ns / 1000, 1));
    parks_.fetch_add(1, std::memory_order_relaxed);
    parkMicros_.fetch_add(micros, std::memory_order_relaxed);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::SyncSleep, tile, my_clock,
        static_cast<std::uint64_t>(micros), my_clock - partner_clock);
    if (obs_.trace)
        obs_.trace->instant(static_cast<std::uint32_t>(tile),
                            "sync.p2p_park", my_clock, "park_us", micros);
}

// ----------------------------------------------------------- serialization

void
LaxBarrierSync::serialize(snapshot::Archive& ar)
{
    // Quiescence: no thread is parked in arrive(), so active_,
    // waiting_ and waitingTiles_ are all at rest; only the barrier
    // count, the epoch and the per-tile quantum targets carry forward.
    ar.u64(barriers_);
    ar.u64(epoch_);
    ar.expect(nextTarget_.size(), "barrier tile count");
    for (cycle_t& c : nextTarget_)
        ar.u64(c);
}

void
LaxP2PSync::serialize(snapshot::Archive& ar)
{
    lockdep::Guard lock(mutex_);
    std::uint64_t rng = rng_.state();
    ar.u64(rng);
    if (ar.loading())
        rng_.setState(rng);
    ar.expect(nextCheck_.size(), "p2p tile count");
    for (cycle_t& c : nextCheck_)
        ar.u64(c);
}

} // namespace graphite
