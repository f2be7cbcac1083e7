#include "common/lockdep.h"
#include "network/queue_model.h"

#include <algorithm>

#include "common/log.h"
#include "snapshot/snapshot.h"

namespace graphite
{

namespace
{

// Queue clocks are u64 cycle counts; synthetic workloads (and fuzzed
// configs) can push arrivals near the top of the range, where a plain
// add wraps and the backlog math silently goes backwards.
cycle_t
satAdd(cycle_t a, cycle_t b)
{
    cycle_t sum = a + b;
    return sum < a ? ~cycle_t{0} : sum;
}

} // namespace

QueueModel::QueueModel(cycle_t outlier_window, cycle_t max_backlog)
    : outlierWindow_(outlier_window), maxBacklog_(max_backlog)
{
}

cycle_t
QueueModel::enqueue(cycle_t arrival_time, cycle_t processing_time,
                    std::optional<cycle_t> now)
{
    cycle_t effective_arrival = arrival_time;
    if (now) {
        cycle_t lo = *now > outlierWindow_ ? *now - outlierWindow_ : 0;
        cycle_t hi = satAdd(*now, outlierWindow_);
        effective_arrival = std::clamp(arrival_time, lo, hi);
    }

    lockdep::Guard lock(mutex_);
    ++requests_;
    if (effective_arrival != arrival_time)
        ++clamped_;
    // Finite buffering / back-pressure: the backlog seen by any packet
    // is bounded, so a burst cannot drive latencies without bound.
    if (queueClock_ > satAdd(effective_arrival, maxBacklog_)) {
        queueClock_ = satAdd(effective_arrival, maxBacklog_);
        ++saturations_;
    }
    cycle_t delay = 0;
    if (queueClock_ > effective_arrival) {
        delay = queueClock_ - effective_arrival;
    } else {
        queueClock_ = effective_arrival;
    }
    queueClock_ = satAdd(queueClock_, processing_time);
    totalDelay_ += delay;
    GRAPHITE_ASSERT(delay < (1ull << 38));
    return delay;
}

cycle_t
QueueModel::queueClock() const
{
    lockdep::Guard lock(mutex_);
    return queueClock_;
}

stat_t
QueueModel::totalRequests() const
{
    lockdep::Guard lock(mutex_);
    return requests_;
}

stat_t
QueueModel::totalQueueDelay() const
{
    lockdep::Guard lock(mutex_);
    return totalDelay_;
}

stat_t
QueueModel::clampedArrivals() const
{
    lockdep::Guard lock(mutex_);
    return clamped_;
}

stat_t
QueueModel::saturations() const
{
    lockdep::Guard lock(mutex_);
    return saturations_;
}

void
QueueModel::serialize(snapshot::Archive& ar)
{
    lockdep::Guard lock(mutex_);
    ar.u64(queueClock_);
    ar.u64(requests_);
    ar.u64(totalDelay_);
    ar.u64(clamped_);
    ar.u64(saturations_);
}

} // namespace graphite
