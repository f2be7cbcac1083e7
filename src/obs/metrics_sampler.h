/**
 * @file
 * Interval metrics snapshots: per-interval deltas of every registered
 * statistic, written as CSV.
 *
 * The sampler periodically (every metrics_interval simulated cycles)
 * snapshots a StatsRegistry — counters, gauges, and histogram
 * count/sum projections — and records the delta of each value against
 * the previous snapshot, together with derived clock-skew columns
 * computed from the active tiles' clocks. This turns the paper's
 * time-series figures (Fig. 7 skew-over-time, per-tile cache behavior)
 * into a one-flag feature: the skew columns are the repository's one
 * clock-skew measurement, and bench/fig7_clock_skew reads them.
 *
 * Sampling is driven opportunistically from the application threads'
 * periodic sync checks: whichever thread first observes simulated time
 * crossing the next interval boundary takes the snapshot. Rows are
 * buffered in memory and written at flush(), so the hot path never
 * touches the filesystem.
 *
 * Each Simulator owns its sampler, built only when `obs/metrics_out` is
 * set; the sync hook checks the Simulator's pointer, so a run without
 * one pays a null check.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"

namespace graphite
{

class Config;

namespace obs
{

/** Periodic snapshotter of a StatsRegistry. */
class MetricsSampler
{
  public:
    /**
     * Sample @p registry from now on. Fixes the column set from the
     * registry's current contents.
     *
     * @param registry       source of counters/gauges; must outlive the
     *                       sampler
     * @param interval       simulated cycles between rows (> 0)
     * @param out_path       output CSV file; empty = render-only (tests)
     * @param now            returns current simulated time (max tile clock)
     * @param active_clocks  returns the clocks of currently-running tiles
     *                       (for the derived skew columns); may be empty
     */
    MetricsSampler(const StatsRegistry* registry, cycle_t interval,
                   std::string out_path, std::function<cycle_t()> now,
                   std::function<std::vector<double>()> active_clocks);

    /**
     * The sampler `obs/metrics_out` asks for, every
     * `obs/metrics_interval` cycles; null when the key is empty.
     */
    static std::unique_ptr<MetricsSampler>
    fromConfig(const Config& cfg, const StatsRegistry* registry,
               std::function<cycle_t()> now,
               std::function<std::vector<double>()> active_clocks);

    /**
     * Take a snapshot if simulated time has crossed the next interval
     * boundary. Thread-safe; cheap when below the boundary.
     */
    void maybeSample();

    /**
     * Record the tail interval (whatever accumulated since the last
     * row) and write the output file, if a path was given. Sampling
     * continues afterwards, so a later run keeps adding rows.
     */
    void flush();

    const std::string& path() const { return outPath_; }

    /** Rows recorded so far. */
    std::size_t rowCount() const;

    /** Column names, in output order (after the fixed lead columns). */
    std::vector<std::string> columns() const;

    /** Render the full CSV document as a string. */
    std::string render() const;

    /** One snapshot row (exposed for unit tests). */
    struct Row
    {
        std::uint64_t index = 0;
        cycle_t startCycle = 0;
        cycle_t endCycle = 0;
        double wallSeconds = 0;
        double hostWallMs = 0;  ///< host wall clock since configure, ms
        stat_t hostRssKb = 0;   ///< host resident set at snapshot, KiB
        /** max / min (clock − mean) over the active tiles, cycles;
         *  both 0 when fewer than two clocks are active. */
        double skewMax = 0;
        double skewMin = 0;
        /** This interval's accuracy.violations delta (0 while the
         *  accuracy observatory is disarmed). */
        stat_t causalityViolations = 0;
        std::vector<std::int64_t> deltas; ///< parallel to columns()
    };

    /** Copy of row @p i (for unit tests). */
    Row row(std::size_t i) const;

  private:
    void sampleLocked(cycle_t now);
    std::string renderLocked() const;

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::metrics_sampler};
    const StatsRegistry* registry_;
    cycle_t interval_;
    std::string outPath_;
    std::function<cycle_t()> now_;
    std::function<std::vector<double>()> activeClocks_;
    std::chrono::steady_clock::time_point start_;

    std::vector<std::string> columns_;
    std::vector<stat_t> prevValues_;
    /** Index of accuracy.violations in columns_; columns_.size() if
     *  it is not registered. */
    std::size_t violationsColumn_ = 0;
    cycle_t lastSampleCycle_ = 0;
    std::atomic<cycle_t> nextSample_;
    std::vector<Row> rows_;
};

} // namespace obs
} // namespace graphite
