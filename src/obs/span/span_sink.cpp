#include "common/lockdep.h"
#include "obs/span/span_sink.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/config.h"
#include "common/log.h"
#include "obs/trace_event.h"

namespace graphite
{
namespace obs
{

namespace
{

/** Flow-slice name per kind; string literals for TraceSink. */
const char*
spanSliceName(SpanKind k)
{
    switch (k) {
      case SpanKind::ReadMiss: return "span.read_miss";
      case SpanKind::WriteMiss: return "span.write_miss";
      case SpanKind::Upgrade: return "span.upgrade";
      case SpanKind::Atomic: return "span.atomic";
      case SpanKind::Writeback: return "span.writeback";
      case SpanKind::Evict: return "span.evict";
      case SpanKind::AppMsg: return "span.app_msg";
      case SpanKind::NumKinds: break;
    }
    return "span";
}

bool
homeSideStage(SpanStage s)
{
    return s == SpanStage::Directory || s == SpanStage::Invalidation ||
           s == SpanStage::Recall || s == SpanStage::DramQueue ||
           s == SpanStage::DramService;
}

std::uint64_t
xorshift64(std::uint64_t& state)
{
    std::uint64_t x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state = x;
    return x;
}

/** Bins past this index collapse into intervalOverflow_. */
constexpr std::size_t MAX_INTERVAL_BINS = 4096;

} // namespace

SpanSink::SpanSink(tile_id_t total_tiles, Options opt, TraceSink* trace)
    : opt_(std::move(opt)), totalTiles_(total_tiles), trace_(trace)
{
    if (opt_.reservoirCapacity == 0)
        opt_.reservoirCapacity = 1;
    if (opt_.intervalCycles == 0)
        fatal("spans: interval must be positive");
    homeCount_ = std::vector<atomic_stat_t>(total_tiles);
    homeCycles_ = std::vector<atomic_stat_t>(total_tiles);
    auto max_dist = static_cast<std::size_t>(std::max(opt_.maxHops, 0));
    distCount_ = std::vector<atomic_stat_t>(max_dist + 1);
    distCycles_ = std::vector<atomic_stat_t>(max_dist + 1);
    reservoir_.reserve(opt_.reservoirCapacity);
    rngState_ = opt_.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
}

std::unique_ptr<SpanSink>
SpanSink::fromConfig(const Config& cfg, tile_id_t total_tiles,
                     Options opt, TraceSink* trace)
{
    opt.path = cfg.getString("obs/spans_out");
    if (opt.path.empty() && !cfg.getBool("obs/spans_enabled"))
        return nullptr;
    opt.reservoirCapacity =
        static_cast<std::size_t>(cfg.getInt("obs/span_reservoir"));
    opt.slowestCapacity =
        static_cast<std::size_t>(cfg.getInt("obs/span_slowest"));
    opt.intervalCycles = static_cast<cycle_t>(cfg.getInt("obs/span_interval"));
    opt.seed = static_cast<std::uint64_t>(cfg.getInt("rng/seed"));
    return std::make_unique<SpanSink>(total_tiles, std::move(opt), trace);
}

std::uint16_t
SpanSink::distance(tile_id_t a, tile_id_t b) const
{
    if (a < 0 || b < 0 || !opt_.hops)
        return 0;
    return static_cast<std::uint16_t>(opt_.hops(a, b));
}

void
SpanSink::complete(const SpanRecord& rec_in)
{
    SpanRecord rec = rec_in;
    rec.distance = distance(rec.requester, rec.home);

    // Lock-free aggregates first (readable live by the sampler).
    completed_.fetch_add(1, std::memory_order_relaxed);
    int ki = static_cast<int>(rec.kind);
    kindCount_[ki].fetch_add(1, std::memory_order_relaxed);
    kindCycles_[ki].fetch_add(rec.total(), std::memory_order_relaxed);
    for (int i = 0; i < rec.numStages; ++i) {
        const SpanStageMark& m = rec.stages[i];
        stageCycles_[static_cast<int>(m.stage)].fetch_add(
            m.dur, std::memory_order_relaxed);
        hist_[ki][static_cast<int>(m.stage)].record(m.dur);
    }
    if (rec.home >= 0 && rec.home < totalTiles_) {
        homeCount_[rec.home].fetch_add(1, std::memory_order_relaxed);
        homeCycles_[rec.home].fetch_add(rec.total(),
                                        std::memory_order_relaxed);
    }
    if (rec.distance < distCount_.size()) {
        distCount_[rec.distance].fetch_add(1, std::memory_order_relaxed);
        distCycles_[rec.distance].fetch_add(rec.total(),
                                            std::memory_order_relaxed);
    }

    bool flow = false;
    {
        lockdep::Guard lock(mutex_);
        if (opt_.progress)
            rec.skew = static_cast<std::int64_t>(rec.end) -
                       static_cast<std::int64_t>(opt_.progress());

        // Reservoir sampling (algorithm R).
        ++reservoirSeen_;
        if (reservoir_.size() < opt_.reservoirCapacity) {
            reservoir_.push_back(rec);
            flow = true;
        } else {
            std::uint64_t j = xorshift64(rngState_) % reservoirSeen_;
            if (j < opt_.reservoirCapacity) {
                reservoir_[static_cast<std::size_t>(j)] = rec;
                flow = true;
            }
        }

        // Top-K slowest: sorted descending, replace the tail.
        if (opt_.slowestCapacity > 0 &&
            (slowest_.size() < opt_.slowestCapacity ||
             rec.total() > slowest_.back().total())) {
            auto pos = std::upper_bound(
                slowest_.begin(), slowest_.end(), rec,
                [](const SpanRecord& a, const SpanRecord& b) {
                    return a.total() > b.total();
                });
            slowest_.insert(pos, rec);
            if (slowest_.size() > opt_.slowestCapacity)
                slowest_.pop_back();
        }

        // Per-interval bottleneck bins, keyed by completion time.
        std::size_t idx = static_cast<std::size_t>(
            rec.end / opt_.intervalCycles);
        if (idx < MAX_INTERVAL_BINS) {
            if (idx >= intervals_.size())
                intervals_.resize(idx + 1);
            IntervalBin& bin = intervals_[idx];
            ++bin.spans;
            for (int i = 0; i < rec.numStages; ++i)
                bin.stage[static_cast<int>(rec.stages[i].stage)] +=
                    rec.stages[i].dur;
        } else {
            ++intervalOverflow_;
        }
    }

    // Flow events only for sampled spans: bounded event volume, and
    // every arrow in the trace has a matching record in spans.jsonl.
    if (flow && trace_ != nullptr)
        emitFlow(rec);
}

void
SpanSink::emitFlow(const SpanRecord& rec)
{
    auto lane = [](tile_id_t t) { return static_cast<std::uint32_t>(t); };
    const char* name = spanSliceName(rec.kind);

    // Slice on the requester covering the whole transaction; the flow
    // start binds to it.
    trace_->complete(lane(rec.requester), name, rec.start, rec.total(),
                     "home", static_cast<std::int64_t>(rec.home));
    trace_->flow('s', lane(rec.requester), name, rec.start, rec.spanId);

    // Home-side occupancy slice + flow step, when the transaction
    // actually visited a remote home.
    if (rec.home != rec.requester && rec.home >= 0) {
        cycle_t h_begin = 0, h_end = 0;
        bool any = false;
        for (int i = 0; i < rec.numStages; ++i) {
            const SpanStageMark& m = rec.stages[i];
            if (!homeSideStage(m.stage))
                continue;
            h_begin = any ? std::min(h_begin, m.begin) : m.begin;
            h_end = any ? std::max(h_end, m.begin + m.dur)
                        : m.begin + m.dur;
            any = true;
        }
        if (any) {
            trace_->complete(lane(rec.home), "span.home", h_begin,
                             h_end - h_begin, "requester",
                             static_cast<std::int64_t>(rec.requester));
            trace_->flow('t', lane(rec.home), name, h_begin, rec.spanId);
        }
    }

    // The transaction ends on the requester — except app messages,
    // which terminate at the receiver.
    tile_id_t end_tile =
        rec.kind == SpanKind::AppMsg ? rec.home : rec.requester;
    if (rec.kind == SpanKind::AppMsg && rec.home >= 0)
        trace_->complete(lane(rec.home), "span.deliver", rec.end, 0,
                         "sender",
                         static_cast<std::int64_t>(rec.requester));
    trace_->flow('f', lane(end_tile), name, rec.end, rec.spanId);
}

std::vector<SpanRecord>
SpanSink::sampled() const
{
    lockdep::Guard lock(mutex_);
    return reservoir_;
}

std::vector<SpanRecord>
SpanSink::slowest() const
{
    lockdep::Guard lock(mutex_);
    return slowest_;
}

std::size_t
SpanSink::sampledCount() const
{
    lockdep::Guard lock(mutex_);
    return reservoir_.size();
}

namespace
{

void
appendSpanJson(std::ostringstream& os, const SpanRecord& r,
               const char* set)
{
    os << "{\"type\":\"span\",\"set\":\"" << set
       << "\",\"trace\":" << r.traceId << ",\"span\":" << r.spanId
       << ",\"parent\":" << r.parentId << ",\"kind\":\""
       << spanKindName(r.kind) << "\",\"requester\":" << r.requester
       << ",\"home\":" << r.home << ",\"distance\":" << r.distance
       << ",\"start\":" << r.start << ",\"end\":" << r.end
       << ",\"total\":" << r.total() << ",\"skew\":" << r.skew
       << ",\"folded\":" << (r.folded ? "true" : "false")
       << ",\"stages\":[";
    for (int i = 0; i < r.numStages; ++i) {
        if (i != 0)
            os << ",";
        os << "{\"stage\":\"" << spanStageName(r.stages[i].stage)
           << "\",\"begin\":" << r.stages[i].begin
           << ",\"dur\":" << r.stages[i].dur << "}";
    }
    os << "]}\n";
}

} // namespace

std::string
SpanSink::renderJsonl() const
{
    lockdep::Guard lock(mutex_);
    std::ostringstream os;

    for (const SpanRecord& r : reservoir_)
        appendSpanJson(os, r, "sample");
    for (const SpanRecord& r : slowest_)
        appendSpanJson(os, r, "slowest");

    for (std::size_t i = 0; i < intervals_.size(); ++i) {
        const IntervalBin& bin = intervals_[i];
        if (bin.spans == 0)
            continue;
        int bottleneck = 0;
        stat_t total = 0;
        for (int s = 0; s < NUM_SPAN_STAGES; ++s) {
            total += bin.stage[s];
            if (bin.stage[s] > bin.stage[bottleneck])
                bottleneck = s;
        }
        os << "{\"type\":\"interval\",\"index\":" << i
           << ",\"start\":" << i * opt_.intervalCycles
           << ",\"end\":" << (i + 1) * opt_.intervalCycles
           << ",\"spans\":" << bin.spans << ",\"total_cycles\":" << total
           << ",\"bottleneck\":\""
           << spanStageName(static_cast<SpanStage>(bottleneck))
           << "\",\"stage_cycles\":{";
        bool first = true;
        for (int s = 0; s < NUM_SPAN_STAGES; ++s) {
            if (bin.stage[s] == 0)
                continue;
            if (!first)
                os << ",";
            first = false;
            os << "\"" << spanStageName(static_cast<SpanStage>(s))
               << "\":" << bin.stage[s];
        }
        os << "}}\n";
    }

    // Summary row: exact (not sampled) totals.
    stat_t grand_total = 0;
    int bottleneck = 0;
    os << "{\"type\":\"summary\",\"completed\":" << completed_.load()
       << ",\"sampled\":" << reservoir_.size()
       << ",\"slowest\":" << slowest_.size()
       << ",\"interval_cycles\":" << opt_.intervalCycles
       << ",\"interval_overflow\":" << intervalOverflow_
       << ",\"stage_cycles\":{";
    for (int s = 0; s < NUM_SPAN_STAGES; ++s) {
        stat_t v = stageCycles_[s].load();
        grand_total += v;
        if (v > stageCycles_[bottleneck].load())
            bottleneck = s;
        if (s != 0)
            os << ",";
        os << "\"" << spanStageName(static_cast<SpanStage>(s))
           << "\":" << v;
    }
    os << "},\"total_cycles\":" << grand_total << ",\"bottleneck\":\""
       << spanStageName(static_cast<SpanStage>(bottleneck))
       << "\",\"kinds\":{";
    for (int k = 0; k < NUM_SPAN_KINDS; ++k) {
        if (k != 0)
            os << ",";
        os << "\"" << spanKindName(static_cast<SpanKind>(k))
           << "\":{\"count\":" << kindCount_[k].load()
           << ",\"cycles\":" << kindCycles_[k].load() << "}";
    }
    os << "},\"per_home\":[";
    bool first = true;
    for (tile_id_t t = 0; t < totalTiles_; ++t) {
        if (homeCount_[t].load() == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"tile\":" << t << ",\"count\":" << homeCount_[t].load()
           << ",\"cycles\":" << homeCycles_[t].load() << "}";
    }
    os << "],\"per_distance\":[";
    first = true;
    for (std::size_t d = 0; d < distCount_.size(); ++d) {
        if (distCount_[d].load() == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"hops\":" << d << ",\"count\":" << distCount_[d].load()
           << ",\"cycles\":" << distCycles_[d].load() << "}";
    }
    os << "]}\n";
    return os.str();
}

void
SpanSink::writeFile() const
{
    std::string doc = renderJsonl();
    std::FILE* f = std::fopen(opt_.path.c_str(), "wb");
    if (f == nullptr)
        fatal("spans: cannot open '{}' for writing", opt_.path);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
}

} // namespace obs
} // namespace graphite
