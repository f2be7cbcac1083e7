#include "obs/span/span.h"

#include "obs/span/span_sink.h"

namespace graphite
{
namespace obs
{

namespace
{

thread_local SpanBuilder* t_active = nullptr;

} // namespace

const char*
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::ReadMiss: return "read_miss";
      case SpanKind::WriteMiss: return "write_miss";
      case SpanKind::Upgrade: return "upgrade";
      case SpanKind::Atomic: return "atomic";
      case SpanKind::Writeback: return "writeback";
      case SpanKind::Evict: return "evict";
      case SpanKind::AppMsg: return "app_msg";
      case SpanKind::NumKinds: break;
    }
    return "?";
}

const char*
spanStageName(SpanStage s)
{
    switch (s) {
      case SpanStage::LocalCheck: return "local_check";
      case SpanStage::ReqHop: return "req_hop";
      case SpanStage::ReqQueue: return "req_queue";
      case SpanStage::ReqSer: return "req_ser";
      case SpanStage::Directory: return "directory";
      case SpanStage::Invalidation: return "invalidation";
      case SpanStage::Recall: return "recall";
      case SpanStage::DramQueue: return "dram_queue";
      case SpanStage::DramService: return "dram_service";
      case SpanStage::ReplyHop: return "reply_hop";
      case SpanStage::ReplyQueue: return "reply_queue";
      case SpanStage::ReplySer: return "reply_ser";
      case SpanStage::NumStages: break;
    }
    return "?";
}

SpanBuilder::SpanBuilder(SpanSink& sink, SpanKind kind,
                         tile_id_t requester, tile_id_t home,
                         cycle_t start)
    : sink_(sink)
{
    rec_.kind = kind;
    rec_.requester = requester;
    rec_.home = home;
    rec_.start = start;
    rec_.spanId = sink.nextSpanId();
    prev_ = t_active;
    if (prev_ != nullptr) {
        rec_.traceId = prev_->rec_.traceId;
        rec_.parentId = prev_->rec_.spanId;
    } else {
        rec_.traceId = rec_.spanId;
    }
    t_active = this;
}

SpanBuilder::~SpanBuilder()
{
    t_active = prev_;
}

SpanBuilder*
SpanBuilder::active()
{
    return t_active;
}

void
SpanBuilder::add(SpanStage stage, cycle_t begin, cycle_t dur)
{
    if (dur == 0 || finished_)
        return;
    if (rec_.numStages > 0 &&
        rec_.stages[rec_.numStages - 1].stage == stage) {
        rec_.stages[rec_.numStages - 1].dur += dur;
        return;
    }
    if (rec_.numStages == SpanRecord::MAX_STAGES) {
        // Preserve the accounting invariant at the cost of detail.
        rec_.stages[rec_.numStages - 1].dur += dur;
        rec_.folded = true;
        return;
    }
    SpanStageMark& m = rec_.stages[rec_.numStages++];
    m.stage = stage;
    m.begin = begin;
    m.dur = dur;
}

void
SpanBuilder::finish(cycle_t end)
{
    if (finished_)
        return;
    finished_ = true;
    rec_.end = end;
    sink_.complete(rec_);
}

} // namespace obs
} // namespace graphite
