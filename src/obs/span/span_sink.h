/**
 * @file
 * One Simulator's collector and aggregator of completed spans.
 *
 * Completion is the only synchronization point of the span engine:
 * builders live on the completing thread's stack, so the sink sees
 * one complete() call per transaction. Aggregation is split between
 * lock-free atomics (per-stage/per-kind cycle totals, per-home and
 * per-distance tallies, kind×stage histograms — all readable live by
 * the metrics sampler) and a short mutex-guarded section (reservoir
 * sample, top-K slowest, per-interval bottleneck bins).
 *
 * Memory is bounded: the reservoir keeps a uniform sample of at most
 * `obs/span_reservoir` full records (Vitter's algorithm R with an
 * xorshift generator — deterministic given the seed and completion
 * order), the slowest list keeps `obs/span_slowest`, and interval
 * bins are capped. Everything else is O(tiles + stages).
 *
 * Artifacts: spans.jsonl (sampled + slowest records, interval rows, a
 * summary row with the *exact* totals) and — when the event tracer is
 * also on — Chrome flow events ('s'/'t'/'f') that render each
 * sampled transaction as an arrow requester → home → requester in
 * Perfetto.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"
#include "common/stats.h"
#include "obs/span/span.h"

namespace graphite
{

class Config;

namespace obs
{

class TraceSink;

/** One Simulator's span collector. */
class SpanSink
{
  public:
    struct Options
    {
        std::size_t reservoirCapacity{};
        std::size_t slowestCapacity{};
        cycle_t intervalCycles{}; ///< bottleneck-bin width; positive
        std::uint64_t seed{};
        /** Mesh hops between two tiles (the network's MeshShape) and
         *  the largest value it returns; null = every distance 0. */
        std::function<int(tile_id_t, tile_id_t)> hops;
        int maxHops = 0;
        /** Global-progress estimate used to stamp per-span skew. It
         *  runs under the reservoir lock, so it must take no lock;
         *  null = skew 0. */
        std::function<cycle_t()> progress;
        /** spans.jsonl destination; empty = aggregates and stats only. */
        std::string path;
    };

    /**
     * A sink for @p total_tiles tiles. Flow events go to @p trace when
     * it is non-null.
     */
    SpanSink(tile_id_t total_tiles, Options opt,
             TraceSink* trace = nullptr);

    /**
     * The sink `obs/spans_out` or `obs/spans_enabled` asks for, with the
     * remaining [obs] span keys read into @p opt (whose hops, maxHops
     * and progress the caller supplies). Null when spans are off.
     */
    static std::unique_ptr<SpanSink> fromConfig(const Config& cfg,
                                                tile_id_t total_tiles,
                                                Options opt,
                                                TraceSink* trace);

    /** Allocate a span ID unique within this sink (never 0). */
    std::uint64_t
    nextSpanId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Record a finished span (called by SpanBuilder::finish). */
    void complete(const SpanRecord& rec);

    /** @name Live aggregates @{ */
    stat_t completedCount() const { return completed_.load(); }
    const atomic_stat_t* completedCounter() const { return &completed_; }
    stat_t stageCycles(SpanStage s) const
    {
        return stageCycles_[static_cast<int>(s)].load();
    }
    const atomic_stat_t* stageCyclesCounter(SpanStage s) const
    {
        return &stageCycles_[static_cast<int>(s)];
    }
    stat_t kindCount(SpanKind k) const
    {
        return kindCount_[static_cast<int>(k)].load();
    }
    stat_t kindCycles(SpanKind k) const
    {
        return kindCycles_[static_cast<int>(k)].load();
    }
    const HistogramStat& stageHistogram(SpanKind k, SpanStage s) const
    {
        return hist_[static_cast<int>(k)][static_cast<int>(s)];
    }
    /** @} */

    /** @name Bounded sample access (copies; for tests/reports) @{ */
    std::vector<SpanRecord> sampled() const;
    std::vector<SpanRecord> slowest() const;
    std::size_t sampledCount() const;
    /** @} */

    /** Mesh hops between two tiles (Options::hops). */
    std::uint16_t distance(tile_id_t a, tile_id_t b) const;

    /** Render the spans.jsonl document. */
    std::string renderJsonl() const;

    const std::string& path() const { return opt_.path; }

    /** Write renderJsonl() to path(); fatal on I/O error. */
    void writeFile() const;

  private:
    struct IntervalBin
    {
        stat_t spans = 0;
        stat_t stage[NUM_SPAN_STAGES] = {};
    };

    void emitFlow(const SpanRecord& rec);

    Options opt_;
    tile_id_t totalTiles_;
    TraceSink* trace_;
    std::atomic<std::uint64_t> nextId_{1};

    atomic_stat_t completed_{0};
    atomic_stat_t stageCycles_[NUM_SPAN_STAGES] = {};
    atomic_stat_t kindCount_[NUM_SPAN_KINDS] = {};
    atomic_stat_t kindCycles_[NUM_SPAN_KINDS] = {};
    std::vector<atomic_stat_t> homeCount_; ///< per home tile
    std::vector<atomic_stat_t> homeCycles_;
    std::vector<atomic_stat_t> distCount_; ///< per mesh distance
    std::vector<atomic_stat_t> distCycles_;
    HistogramStat hist_[NUM_SPAN_KINDS][NUM_SPAN_STAGES];

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::span_sink};
    std::vector<SpanRecord> reservoir_;
    std::uint64_t reservoirSeen_ = 0;
    std::uint64_t rngState_;
    std::vector<SpanRecord> slowest_; ///< sorted descending by total
    std::vector<IntervalBin> intervals_;
    stat_t intervalOverflow_ = 0; ///< spans past the last bin
};

} // namespace obs
} // namespace graphite
