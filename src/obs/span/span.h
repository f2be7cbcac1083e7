/**
 * @file
 * Causal transaction spans: the data model of the latency-attribution
 * engine (see DESIGN.md §"Span lifecycle").
 *
 * Every timed memory transaction (L2 miss, upgrade, atomic RMW,
 * writeback) and every application message gets a *span*: a trace ID,
 * a parent link for nested transactions, and a waterfall of
 * cycle-stamped stage marks. Stages are recorded exactly where the
 * timing model accumulates latency, so the sum of stage durations
 * equals the span's end-to-end latency *by construction* — the
 * exact-accounting invariant the aggregation layer and span_report.py
 * rely on (asserted in tests/test_span.cpp).
 *
 * Hot-path discipline: a SpanBuilder is a fixed-size stack object (no
 * heap allocation); instrumentation points guard on their Simulator's
 * SpanSink pointer, so the disabled cost is one null check.
 */

#pragma once

#include <cstdint>

#include "common/fixed_types.h"

namespace graphite
{
namespace obs
{

class SpanSink;

/** What kind of transaction a span describes. */
enum class SpanKind : std::uint8_t
{
    ReadMiss = 0, ///< L2 read/fetch miss (line acquired Shared/Excl)
    WriteMiss,    ///< L2 write miss (line acquired Modified)
    Upgrade,      ///< write-permission miss, data already present
    Atomic,       ///< atomic RMW that missed in L2
    Writeback,    ///< dirty L2 victim flushed to the home controller
    Evict,        ///< clean L2 victim notification
    AppMsg,       ///< user-level message (api::msgSend)

    NumKinds
};

/** Where inside a transaction a slice of latency was spent. */
enum class SpanStage : std::uint8_t
{
    LocalCheck = 0, ///< L1/L2 probe + access on the requesting tile
    ReqHop,         ///< request traversal: per-hop propagation
    ReqQueue,       ///< request traversal: link queueing delay
    ReqSer,         ///< request traversal: serialization
    Directory,      ///< directory occupancy at the home tile
    Invalidation,   ///< invalidate round trips (max over sharers)
    Recall,         ///< owner recall round trip (M-state lines)
    DramQueue,      ///< memory-controller queueing delay
    DramService,    ///< device latency + bandwidth service time
    ReplyHop,       ///< reply traversal: per-hop propagation
    ReplyQueue,     ///< reply traversal: link queueing delay
    ReplySer,       ///< reply traversal: serialization

    NumStages
};

inline constexpr int NUM_SPAN_KINDS =
    static_cast<int>(SpanKind::NumKinds);
inline constexpr int NUM_SPAN_STAGES =
    static_cast<int>(SpanStage::NumStages);

/** Stable lowercase name ("read_miss", "req_hop", ...). */
const char* spanKindName(SpanKind k);
const char* spanStageName(SpanStage s);

/** One contiguous slice of a span's latency waterfall. */
struct SpanStageMark
{
    SpanStage stage = SpanStage::LocalCheck;
    cycle_t begin = 0; ///< absolute simulated cycle
    cycle_t dur = 0;
};

/** A completed (or in-flight) transaction span. POD, fixed size. */
struct SpanRecord
{
    /** Stage-mark capacity; the deepest real transaction (Modified
     *  recall + dirty DRAM turnaround + pointer eviction) uses ~15
     *  marks after coalescing. Overflow folds into the last mark so
     *  the accounting invariant survives (detail is lost, sums are
     *  not). */
    static constexpr int MAX_STAGES = 24;

    std::uint64_t traceId = 0; ///< root span's id, shared by children
    std::uint64_t spanId = 0;  ///< unique per span, never 0
    std::uint64_t parentId = 0; ///< 0 = root
    SpanKind kind = SpanKind::ReadMiss;
    tile_id_t requester = INVALID_TILE_ID;
    /** Home tile of the line (memory spans) or receiver (AppMsg). */
    tile_id_t home = INVALID_TILE_ID;
    std::uint16_t distance = 0; ///< mesh hops requester -> home
    std::uint8_t numStages = 0;
    bool folded = false; ///< stage detail was folded on overflow
    cycle_t start = 0;
    cycle_t end = 0;
    /** end minus the global-progress estimate at completion: how far
     *  ahead (+) or behind (-) of the cluster this transaction ran
     *  under lax synchronization. */
    std::int64_t skew = 0;
    SpanStageMark stages[MAX_STAGES];

    cycle_t total() const { return end - start; }

    /** Sum of stage durations; equals total() for finished spans. */
    cycle_t
    stageSum() const
    {
        cycle_t sum = 0;
        for (int i = 0; i < numStages; ++i)
            sum += stages[i].dur;
        return sum;
    }
};

/**
 * Builds one span on the stack of the thread driving the transaction.
 *
 * Construction allocates an ID from @p sink and links to the innermost
 * live builder on this thread (so a writeback modeled inside a miss
 * becomes a child span with the same trace ID). Instrumentation between
 * construction and finish() appends stage marks; finish() hands the
 * record to the sink. A builder destroyed without finish() records
 * nothing.
 */
class SpanBuilder
{
  public:
    SpanBuilder(SpanSink& sink, SpanKind kind, tile_id_t requester,
                tile_id_t home, cycle_t start);
    ~SpanBuilder();

    SpanBuilder(const SpanBuilder&) = delete;
    SpanBuilder& operator=(const SpanBuilder&) = delete;

    /** Innermost live builder on this thread, or nullptr. */
    static SpanBuilder* active();

    /**
     * Append a stage mark. Zero durations are skipped; a mark whose
     * stage matches the previous one coalesces into it.
     */
    void add(SpanStage stage, cycle_t begin, cycle_t dur);

    /** Reclassify (e.g. WriteMiss -> Upgrade once known). */
    void setKind(SpanKind kind) { rec_.kind = kind; }

    /** Complete at @p end and hand the record to the sink. */
    void finish(cycle_t end);

    std::uint64_t traceId() const { return rec_.traceId; }
    std::uint64_t spanId() const { return rec_.spanId; }
    const SpanRecord& record() const { return rec_; }

  private:
    SpanSink& sink_;
    SpanRecord rec_;
    SpanBuilder* prev_; ///< enclosing builder on this thread
    bool finished_ = false;
};

} // namespace obs
} // namespace graphite
