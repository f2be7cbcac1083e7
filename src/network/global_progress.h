/**
 * @file
 * Windowed estimate of global simulation progress (paper §3.6.1).
 *
 * Under lax synchronization there is no global cycle count, yet shared
 * resources (DRAM controllers, mesh links) need a notion of "now" to model
 * queueing — especially on tiles with no active thread, whose local clocks
 * never advance. Graphite's solution: "packet time-stamps [are used] to
 * build an approximation of global progress. A window of the most
 * recently-seen time-stamps is kept, on the order of the number of tiles
 * in the simulation. The average of these time stamps gives an
 * approximation of global progress."
 *
 * Every modeled message writes the window once, under its lock, and
 * publishes the new average; the queues on the message's route and the
 * DRAM controllers read the published value without a lock.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/**
 * Sliding-window average of recently observed message timestamps.
 * Thread-safe; observe() is called on every modeled message and is the
 * only member that takes the lock on the simulation's hot path.
 */
class GlobalProgress
{
  public:
    /** @param window_size number of samples retained (>= 1). */
    explicit GlobalProgress(size_t window_size);

    /**
     * Record a message timestamp and publish the new estimate.
     * @return the estimate including @p timestamp.
     */
    cycle_t observe(cycle_t timestamp);

    /**
     * The last published estimate, or empty before the first sample.
     * Lock-free: a concurrent observe() may be one sample ahead.
     */
    std::optional<cycle_t> current() const;

    /** Number of samples observed so far (saturates at window size). */
    size_t samples() const
    {
        return publishedCount_.load(std::memory_order_acquire);
    }

    /** Checkpoint serialization; a restore publishes the estimate. */
    void serialize(snapshot::Archive& ar);

  private:
    /** Store the window's average for lock-free readers; mutex_ held. */
    cycle_t publishLocked();

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::global_progress};
    std::vector<cycle_t> window_;
    size_t next_ = 0;
    size_t count_ = 0;
    /** Running sum of the samples currently in the window. */
    unsigned __int128 sum_ = 0;
    /** @name Published by observe(); the count is stored last. @{ */
    std::atomic<cycle_t> publishedEstimate_{0};
    std::atomic<size_t> publishedCount_{0};
    /** @} */
};

} // namespace graphite
