/**
 * @file
 * Named-statistics registry: counters, gauges, and histograms.
 *
 * Models register statistics per tile under hierarchical names
 * ("tile.3.l2_cache.misses"). Three kinds are supported:
 *
 *  - counters:   atomic 64-bit values (atomic_stat_t) owned by the
 *    registering model; the registry only stores (name -> pointer), so
 *    increments take no lock and concurrent readers see whole values.
 *  - gauges:     callbacks evaluated at read time, for values derived
 *    from model state (atomic clocks, sums over components). Gauges make
 *    interval snapshotting possible without invading every model.
 *  - histograms: power-of-two-bucketed distributions (HistogramStat)
 *    for latency-style values where a single counter hides the shape.
 *    One name may stand for several parts (one per tile, say), merged
 *    whenever the histogram is read.
 *
 * Aggregation helpers sum statistics across tiles at reporting time;
 * snapshot() flattens everything to (name, value) pairs for the
 * obs-layer interval sampler.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>
#include "common/lockdep.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** The value of one statistic. */
using stat_t = std::uint64_t;

/**
 * A statistic readable at any time without tearing. Either incremented
 * (relaxed) by concurrent writers, or written by one writer at a time
 * through addSerialized().
 */
using atomic_stat_t = std::atomic<stat_t>;

/**
 * Add @p n to a statistic whose writers the caller serializes (for
 * example by holding the lock of the object that owns it): a relaxed
 * load and store, with no locked read-modify-write. Concurrent readers
 * still see whole values.
 */
inline void
addSerialized(atomic_stat_t& stat, stat_t n = 1)
{
    stat.store(stat.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

/** A gauge: evaluated at read time. Must be safe to call concurrently. */
using gauge_fn = std::function<stat_t()>;

/**
 * Power-of-two-bucketed histogram of 64-bit samples.
 *
 * Thread-safe: record() may be called from any number of threads
 * concurrently (relaxed atomics); readers tolerate slightly stale
 * values. Bucket i counts samples whose value has bit-width i, i.e.
 * v in [2^(i-1), 2^i) for i >= 1 and v == 0 for bucket 0.
 *
 * Copying takes a relaxed snapshot; merge() adds another histogram's
 * samples, so a distribution kept in per-owner parts reads as one.
 */
class HistogramStat
{
  public:
    static constexpr int NUM_BUCKETS = 65; ///< bit widths 0..64

    HistogramStat() = default;
    HistogramStat(const HistogramStat& other) { merge(other); }
    HistogramStat& operator=(const HistogramStat&) = delete;

    /** Record one sample. Safe to call from multiple threads. */
    void record(stat_t value);

    /**
     * Record one sample when the caller serializes every writer (see
     * addSerialized()): relaxed loads and stores only.
     */
    void recordSerialized(stat_t value);

    /**
     * Add @p other's samples to this histogram. Not safe concurrently
     * with writers of this one.
     */
    void merge(const HistogramStat& other);

    /** @name Summary statistics @{ */
    stat_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    stat_t sum() const { return sum_.load(std::memory_order_relaxed); }
    stat_t min() const
    {
        return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
    }
    stat_t max() const { return max_.load(std::memory_order_relaxed); }
    double mean() const;
    /** @} */

    /** Count of samples in bucket @p i (bit-width i). */
    stat_t bucket(int i) const;

    /**
     * Approximate @p p quantile (0..1): the upper bound of the bucket
     * containing the p-th sample. Exact to within a factor of 2.
     */
    stat_t percentileApprox(double p) const;

    /** One-line summary for reports. */
    std::string summary() const;

    /** Zero everything. Not safe concurrently with record(). */
    void reset();

    /** Checkpoint serialization (not concurrent with record). */
    void serialize(snapshot::Archive& ar);

  private:
    std::array<atomic_stat_t, NUM_BUCKETS> buckets_{};
    atomic_stat_t count_{0};
    atomic_stat_t sum_{0};
    atomic_stat_t min_{~stat_t{0}};
    atomic_stat_t max_{0};
};

/** How aggregation helpers treat an empty match set. */
enum class MatchMode
{
    Lenient, ///< no matching statistic -> 0
    Strict   ///< no matching statistic -> fatal (catches renamed stats)
};

/**
 * Registry of named statistics.
 *
 * Thread-safety: registration is mutex-protected (cold path); reads used
 * for reporting take the same mutex. A counter is an atomic_stat_t its
 * owner updates without the registry, so /metrics, the sampler and the
 * report read it race-free while it runs. Gauge callbacks are invoked
 * with the registry mutex held and must not call back into the
 * registry.
 */
class StatsRegistry
{
  public:
    /**
     * Register a counter. The pointed-to storage must outlive the
     * registry or be unregistered via clear().
     */
    void registerCounter(const std::string& name,
                         const atomic_stat_t* counter);

    /** Register a gauge evaluated at each read. */
    void registerGauge(const std::string& name, gauge_fn fn);

    /**
     * Register a histogram kept as @p parts (for example one per tile,
     * each written by its owner alone). Every read merges the parts, so
     * the name reads as one distribution; its ".count" and ".sum"
     * projections appear in snapshot() so interval samplers can delta
     * them. Same lifetime contract as counters.
     */
    void registerHistogram(const std::string& name,
                           std::vector<const HistogramStat*> parts);

    /** Register a histogram kept in one piece. */
    void registerHistogram(const std::string& name,
                           const HistogramStat* histogram)
    {
        registerHistogram(name, std::vector{histogram});
    }

    /** @return value of a named counter or gauge; fatal if unknown. */
    stat_t get(const std::string& name) const;

    /** @return true if a statistic of any kind exists under the name. */
    bool has(const std::string& name) const;

    /**
     * @return the registered histogram with its parts merged, or empty
     * if no histogram has the name.
     */
    std::optional<HistogramStat> histogram(const std::string& name) const;

    /**
     * Sum all counters/gauges whose name matches "prefix<id>suffix" over
     * ids — e.g. sumMatching("tile.", ".l2.misses") adds
     * tile.0.l2.misses, tile.1.l2.misses, ...
     *
     * With MatchMode::Lenient (the default) an empty match set sums to
     * zero — convenient for optional components, but silent when a stat
     * was renamed. MatchMode::Strict makes an empty match set fatal.
     */
    stat_t sumMatching(const std::string& prefix,
                       const std::string& suffix,
                       MatchMode mode = MatchMode::Lenient) const;

    /** All registered names (all kinds), sorted. */
    std::vector<std::string> names() const;

    /** Names of registered histograms, sorted (Prometheus export). */
    std::vector<std::string> histogramNames() const;

    /**
     * Flatten counters, gauges, and histogram count/sum projections to
     * sorted (name, value) pairs — the interval sampler's input.
     */
    std::vector<std::pair<std::string, stat_t>> snapshot() const;

    /** Render "name = value" lines for every statistic. */
    std::string dump() const;

    /** Drop all registrations. */
    void clear();

  private:
    void checkNewName(const std::string& name) const;

    /** One histogram holding every part's samples. */
    static HistogramStat
    merged(const std::vector<const HistogramStat*>& parts);

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::stats_registry};
    std::map<std::string, const atomic_stat_t*> counters_;
    std::map<std::string, gauge_fn> gauges_;
    std::map<std::string, std::vector<const HistogramStat*>> histograms_;
};

} // namespace graphite
