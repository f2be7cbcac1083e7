/**
 * @file
 * Clock-skew measurement (paper §4.3, Figure 7).
 *
 * "Simulated clocks for each tile are collected at many points during
 * program execution. This data is used to generate an approximate average
 * 'global cycle count' for the simulation at any given moment. The
 * difference between individual clocks and the 'global clock' is then
 * computed. The full simulation time is split into sub-intervals, and
 * [the figure] shows the maximum and minimum difference for each
 * interval."
 *
 * Tile clocks are atomics, so the tracker takes *simultaneous* snapshots
 * of every attached core's clock (throttled; triggered from the periodic
 * sync checks of whichever thread gets there first). Each snapshot gives
 * one skew observation: per-tile deviation from the snapshot mean.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "obs/observers.h"

namespace graphite
{

class CoreModel;

/** One clock source: a core plus its runnability flag. */
struct SkewSource
{
    const CoreModel* core = nullptr;
    /** Polled before sampling; blocked tiles are excluded so phase
     *  imbalance at application barriers does not read as model skew. */
    const std::atomic<bool>* running = nullptr;
};

/** Collects simultaneous clock snapshots during a run. */
class SkewTracker
{
  public:
    /** @param min_period_us minimum wall time between snapshots. */
    explicit SkewTracker(std::uint64_t min_period_us = 2000);

    /**
     * Attach the cores whose clocks are snapshot (before the run), and
     * the trace sink and accuracy observatory snapshots feed.
     */
    void attachCores(std::vector<SkewSource> cores,
                     const obs::Observers& observers = {});

    /**
     * Take a snapshot if at least the configured period elapsed since
     * the previous one. Thread-safe; called from periodic sync checks.
     * Tiles whose clock is still zero (never ran) are excluded.
     */
    void maybeSnapshot();

    /** One per-interval skew summary. */
    struct Interval
    {
        double wallSeconds = 0; ///< interval midpoint
        double maxSkew = 0;     ///< max (clock − global clock), cycles
        double minSkew = 0;     ///< min (clock − global clock), cycles
    };

    /**
     * Bucket snapshots into @p num_intervals wall-clock intervals and
     * report the extreme deviations from each snapshot's mean clock.
     */
    std::vector<Interval> analyze(int num_intervals) const;

    /** Number of snapshots collected. */
    size_t sampleCount() const;

  private:
    struct Snapshot
    {
        double wallSeconds;
        double maxSkew;
        double minSkew;
    };

    std::chrono::steady_clock::time_point start_;
    std::uint64_t minPeriodUs_;
    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::skew_tracker};
    std::vector<SkewSource> cores_;
    obs::Observers obs_;
    std::chrono::steady_clock::time_point lastSnap_;
    std::vector<Snapshot> snaps_;
};

} // namespace graphite
