/**
 * @file
 * Contention queue model compatible with lax synchronization
 * (paper §3.6.1).
 *
 * A cycle-accurate simulator buffers packets and dequeues one per cycle.
 * Under lax synchronization packets arrive out-of-order in simulated time,
 * so instead "queueing latency is modeled by keeping an independent clock
 * for the queue. This clock represents the time in the future when the
 * processing of all messages in the queue will be complete. When a packet
 * arrives, its delay is the difference between the queue clock and the
 * 'global clock'. Additionally, the queue clock is incremented by the
 * processing time of the packet to model buffering."
 *
 * Wildly out-of-range arrival timestamps (a thread far ahead/behind) are
 * clamped toward the global-progress estimate so one outlier cannot poison
 * the queue clock; the aggregate delay remains correct. The caller
 * supplies that estimate with each packet, so a queue reads no shared
 * state beyond its own.
 */

#pragma once

#include <mutex>
#include <optional>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** One shared queue (a mesh link, a DRAM controller port, ...). */
class QueueModel
{
  public:
    /**
     * @param outlier_window how far (cycles) an arrival timestamp may
     *                       deviate from the progress estimate before it
     *                       is clamped
     * @param max_backlog    finite-buffer bound: the queue clock may not
     *                       run more than this far ahead of an arriving
     *                       packet (back-pressure). Without it, bursts
     *                       that are dense in *simulated* time (e.g. a
     *                       hot synchronization line under lax sync)
     *                       drive the queue clock — and with it every
     *                       dependent latency — into an unbounded
     *                       saturation spiral.
     */
    explicit QueueModel(cycle_t outlier_window, cycle_t max_backlog);

    /**
     * Model the arrival of a packet needing @p processing_time cycles of
     * service, stamped @p arrival_time by its sender.
     * @param now the global-progress estimate used as the reference
     *            clock; empty (no progress samples yet, or no
     *            estimator) trusts the raw arrival timestamp.
     * @return queueing delay in cycles (excludes the service time itself).
     */
    cycle_t enqueue(cycle_t arrival_time, cycle_t processing_time,
                    std::optional<cycle_t> now = std::nullopt);

    /** Current queue clock (completion time of all queued work). */
    cycle_t queueClock() const;

    /** @name Statistics @{ */
    stat_t totalRequests() const;
    stat_t totalQueueDelay() const;
    stat_t clampedArrivals() const;
    stat_t saturations() const;
    /** @} */

    /** Checkpoint serialization. */
    void serialize(snapshot::Archive& ar);

  private:
    cycle_t outlierWindow_;
    cycle_t maxBacklog_;
    stat_t saturations_ = 0;
    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::queue_model};
    cycle_t queueClock_ = 0;
    stat_t requests_ = 0;
    stat_t totalDelay_ = 0;
    stat_t clamped_ = 0;
};

} // namespace graphite
