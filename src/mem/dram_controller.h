/**
 * @file
 * DRAM controller timing model.
 *
 * One controller per tile (paper §4.4: "the default target architecture
 * places a memory controller at every tile, evenly splitting total
 * off-chip bandwidth. This means that as the number of target tiles
 * increases, the bandwidth at each controller decreases proportionally,
 * and the service time for a memory request increases. Queueing delay
 * also increases by statically partitioning the bandwidth into separate
 * queues").
 *
 * Latency of one access = fixed DRAM latency + service time
 * (bytes / per-controller bandwidth) + queueing delay from the
 * lax-compatible QueueModel (§3.6.1), whose reference clock is the
 * global-progress estimate published by the last modeled message.
 */

#pragma once

#include <memory>

#include "common/fixed_types.h"
#include "common/stats.h"
#include "network/queue_model.h"

namespace graphite
{

class GlobalProgress;

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Timing model of a single tile's memory controller. */
class DramController
{
  public:
    /**
     * @param latency_cycles      device access latency
     * @param bytes_per_cycle     this controller's share of off-chip
     *                            bandwidth, in bytes per target cycle
     * @param progress            global-progress estimator whose
     *                            published value is the queue's
     *                            reference clock (nullptr disables
     *                            queue modeling)
     * @param outlier_window      the queue's clamp span (QueueModel)
     * @param max_backlog         the queue's backlog bound (QueueModel)
     */
    DramController(cycle_t latency_cycles, double bytes_per_cycle,
                   const GlobalProgress* progress, cycle_t outlier_window,
                   cycle_t max_backlog);

    /** Latency decomposition of one access; queue + service == total. */
    struct Breakdown
    {
        cycle_t total = 0;
        /** Queueing delay at the controller. */
        cycle_t queue = 0;
        /** Device latency plus bandwidth service time. */
        cycle_t service = 0;
    };

    /**
     * Model one access of @p bytes arriving at @p arrival_time.
     * @return total latency in cycles (device + service + queueing)
     *         and its decomposition.
     */
    Breakdown access(cycle_t arrival_time, size_t bytes);

    /** @name Statistics @{ */
    stat_t accesses() const { return accesses_; }
    stat_t totalQueueDelay() const { return queue_.totalQueueDelay(); }
    stat_t totalServiceTime() const { return serviceTime_; }
    stat_t clampedArrivals() const { return queue_.clampedArrivals(); }
    stat_t saturations() const { return queue_.saturations(); }
    /** @} */

    /** Checkpoint serialization. */
    void serialize(snapshot::Archive& ar);

  private:
    cycle_t latency_;
    double bytesPerCycle_;
    const GlobalProgress* progress_;
    QueueModel queue_;
    stat_t accesses_ = 0;
    stat_t serviceTime_ = 0;
};

} // namespace graphite
