/**
 * @file
 * Tests for the causal span engine (src/obs/span): builder coalescing
 * and nesting, overflow folding, reservoir/slowest bounds, the
 * exact-accounting invariant (stage sum == end-to-end latency) both
 * for hand-built spans and for every span sampled from a real
 * workload, the spans.jsonl schema, Chrome flow-event emission, and
 * fingerprint neutrality (an armed span engine must not perturb the
 * architectural state of a fuzz run).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"
#include "obs/span/span.h"
#include "obs/span/span_sink.h"

namespace graphite
{
namespace
{

using obs::SpanBuilder;
using obs::SpanKind;
using obs::SpanRecord;
using obs::SpanSink;
using obs::SpanStage;

/** Sink options with small bounded buffers. */
SpanSink::Options
smallSink(std::size_t reservoir, std::size_t slowest)
{
    SpanSink::Options opt;
    opt.reservoirCapacity = reservoir;
    opt.slowestCapacity = slowest;
    opt.intervalCycles = 1000;
    return opt;
}

std::string
readFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

// -------------------------------------------------------------- SpanBuilder

TEST(SpanBuilder, CoalescesAdjacentMarksAndSkipsZeroDurations)
{
    SpanSink sink(4, smallSink(8, 4));
    SpanBuilder b(sink, SpanKind::ReadMiss, 0, 3, 100);
    b.add(SpanStage::LocalCheck, 100, 10);
    b.add(SpanStage::ReqQueue, 110, 0); // zero: skipped
    b.add(SpanStage::ReqQueue, 110, 5);
    b.add(SpanStage::ReqQueue, 115, 7); // same stage: coalesced
    b.add(SpanStage::ReqHop, 122, 4);
    b.finish(126);

    const SpanRecord& r = b.record();
    ASSERT_EQ(r.numStages, 3);
    EXPECT_EQ(r.stages[0].stage, SpanStage::LocalCheck);
    EXPECT_EQ(r.stages[1].stage, SpanStage::ReqQueue);
    EXPECT_EQ(r.stages[1].begin, 110u);
    EXPECT_EQ(r.stages[1].dur, 12u);
    EXPECT_EQ(r.stages[2].stage, SpanStage::ReqHop);
    EXPECT_FALSE(r.folded);
    // Exact accounting: the marks cover the whole span.
    EXPECT_EQ(r.stageSum(), r.total());
    EXPECT_EQ(r.total(), 26u);
    EXPECT_EQ(sink.completedCount(), 1u);
}

TEST(SpanBuilder, NestedBuildersShareTraceAndLinkParent)
{
    SpanSink sink(8, smallSink(8, 4));
    EXPECT_EQ(SpanBuilder::active(), nullptr);
    {
        SpanBuilder outer(sink, SpanKind::WriteMiss, 1, 2, 0);
        EXPECT_EQ(SpanBuilder::active(), &outer);
        EXPECT_EQ(outer.record().parentId, 0u);
        EXPECT_EQ(outer.traceId(), outer.spanId());
        {
            // A writeback modeled while the miss is in flight becomes
            // a child span in the same trace.
            SpanBuilder child(sink, SpanKind::Writeback, 1, 5, 10);
            EXPECT_EQ(SpanBuilder::active(), &child);
            EXPECT_EQ(child.traceId(), outer.traceId());
            EXPECT_EQ(child.record().parentId, outer.spanId());
            EXPECT_NE(child.spanId(), outer.spanId());
        }
        EXPECT_EQ(SpanBuilder::active(), &outer);
    }
    EXPECT_EQ(SpanBuilder::active(), nullptr);
}

TEST(SpanBuilder, OverflowFoldsIntoLastMarkPreservingSums)
{
    SpanSink sink(2, smallSink(8, 4));
    SpanBuilder b(sink, SpanKind::ReadMiss, 0, 1, 0);
    // Alternate stages so nothing coalesces; overflow the fixed array.
    cycle_t t = 0;
    for (int i = 0; i < SpanRecord::MAX_STAGES + 10; ++i) {
        b.add(i % 2 == 0 ? SpanStage::ReqHop : SpanStage::ReqQueue,
              t, 3);
        t += 3;
    }
    b.finish(t);
    const SpanRecord& r = b.record();
    EXPECT_EQ(r.numStages, SpanRecord::MAX_STAGES);
    EXPECT_TRUE(r.folded);
    // Detail is lost, totals are not.
    EXPECT_EQ(r.stageSum(), r.total());
}

// ----------------------------------------------------------------- SpanSink

TEST(SpanSink, MeshDistanceMatchesModelGeometry)
{
    // The Simulator hands its sink the network's mesh geometry.
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 16); // 4x4 mesh
    cfg.setBool("obs/spans_enabled", true);
    Simulator sim(cfg);
    ASSERT_NE(sim.spanSink(), nullptr);
    const SpanSink& sink = *sim.spanSink();
    EXPECT_EQ(sink.distance(0, 0), 0);
    EXPECT_EQ(sink.distance(0, 3), 3);
    EXPECT_EQ(sink.distance(0, 5), 2);  // (1,1)
    EXPECT_EQ(sink.distance(0, 15), 6); // opposite corner
    EXPECT_EQ(sink.distance(0, INVALID_TILE_ID), 0);
}

TEST(SpanSink, BoundedSamplingWithExactAggregates)
{
    constexpr int N = 500;
    constexpr std::size_t RESERVOIR = 32;
    constexpr std::size_t SLOWEST = 8;
    SpanSink sink(16, smallSink(RESERVOIR, SLOWEST));

    stat_t local_total = 0, queue_total = 0;
    for (int i = 0; i < N; ++i) {
        SpanBuilder b(sink, SpanKind::ReadMiss, i % 16, (i * 7) % 16,
                      static_cast<cycle_t>(i) * 10);
        cycle_t local = 10, queue = static_cast<cycle_t>(i % 50);
        b.add(SpanStage::LocalCheck, i * 10, local);
        b.add(SpanStage::ReqQueue, i * 10 + local, queue);
        b.finish(i * 10 + local + queue);
        local_total += local;
        queue_total += queue;
    }

    // Exact aggregates cover every completion, not just the sample.
    EXPECT_EQ(sink.completedCount(), static_cast<stat_t>(N));
    EXPECT_EQ(sink.stageCycles(SpanStage::LocalCheck), local_total);
    EXPECT_EQ(sink.stageCycles(SpanStage::ReqQueue), queue_total);
    EXPECT_EQ(sink.kindCount(SpanKind::ReadMiss),
              static_cast<stat_t>(N));
    EXPECT_EQ(sink.kindCycles(SpanKind::ReadMiss),
              local_total + queue_total);
    EXPECT_EQ(sink.stageHistogram(SpanKind::ReadMiss,
                                  SpanStage::LocalCheck)
                  .count(),
              static_cast<stat_t>(N));

    // Memory stays bounded; the slowest list is sorted descending.
    EXPECT_EQ(sink.sampledCount(), RESERVOIR);
    std::vector<SpanRecord> slow = sink.slowest();
    ASSERT_EQ(slow.size(), SLOWEST);
    for (std::size_t i = 1; i < slow.size(); ++i)
        EXPECT_GE(slow[i - 1].total(), slow[i].total());
    EXPECT_EQ(slow.front().total(), 59u); // 10 + max queue of 49

    // Every retained record satisfies the accounting invariant.
    for (const SpanRecord& r : sink.sampled())
        EXPECT_EQ(r.stageSum(), r.total());

    // Jsonl schema spot checks: record rows, interval rows, summary.
    std::string doc = sink.renderJsonl();
    EXPECT_NE(doc.find("\"type\":\"span\""), std::string::npos);
    EXPECT_NE(doc.find("\"set\":\"sample\""), std::string::npos);
    EXPECT_NE(doc.find("\"set\":\"slowest\""), std::string::npos);
    EXPECT_NE(doc.find("\"type\":\"interval\""), std::string::npos);
    EXPECT_NE(doc.find("\"type\":\"summary\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\":\"read_miss\""), std::string::npos);
    EXPECT_NE(doc.find("\"stage\":\"req_queue\""), std::string::npos);
    EXPECT_NE(doc.find("\"bottleneck\":\"req_queue\""),
              std::string::npos);
}

TEST(SpanSink, ReservoirIsDeterministicGivenSeedAndOrder)
{
    auto run = [] {
        SpanSink sink(4, smallSink(16, 0));
        for (int i = 0; i < 200; ++i) {
            SpanBuilder b(sink, SpanKind::Atomic, 0, i % 4,
                          static_cast<cycle_t>(i));
            b.add(SpanStage::LocalCheck, i, 1 + i % 3);
            b.finish(i + 1 + i % 3);
        }
        return sink.sampled();
    };
    std::vector<SpanRecord> a = run();
    std::vector<SpanRecord> b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].total(), b[i].total());
    }
}

// ------------------------------------------------------------- end-to-end

void
spanLoop(addr_t data)
{
    for (int i = 0; i < 100; ++i) {
        std::uint64_t v = api::read<std::uint64_t>(data + (i % 8) * 64);
        api::write<std::uint64_t>(data + (i % 8) * 64, v + 1);
        api::exec(InstrClass::IntAlu, 20);
    }
}

void
spanWorker(void* p)
{
    auto* data = static_cast<addr_t*>(p);
    spanLoop(*data);
    int token = 7;
    api::msgSend(0, &token, sizeof(token));
}

void
spanMain(void* p)
{
    auto* data = static_cast<addr_t*>(p);
    *data = api::malloc(8 * 64);
    for (int i = 0; i < 8; ++i)
        api::write<std::uint64_t>(*data + i * 64, 0);
    tile_id_t t1 = api::threadSpawn(&spanWorker, data);
    spanLoop(*data);
    api::msgRecv();
    api::threadJoin(t1);
}

TEST(SpanEndToEnd, WorkloadHoldsExactAccountingAndEmitsArtifacts)
{
    std::string dir = ::testing::TempDir();
    std::string spans_path = dir + "graphite_spans.jsonl";
    std::string trace_path = dir + "graphite_span_trace.json";
    std::remove(spans_path.c_str());
    std::remove(trace_path.c_str());

    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 8);
    cfg.set("obs/spans_out", spans_path);
    cfg.set("obs/trace_out", trace_path);
    Simulator sim(cfg);
    addr_t data = 0;
    sim.run(&spanMain, &data);

    // Assert the invariant over every span the run actually sampled.
    ASSERT_NE(sim.spanSink(), nullptr);
    const SpanSink& sink = *sim.spanSink();
    EXPECT_GT(sink.completedCount(), 0u);
    std::vector<SpanRecord> sample = sink.sampled();
    std::vector<SpanRecord> slow = sink.slowest();
    ASSERT_FALSE(sample.empty());
    bool saw_memory = false, saw_msg = false;
    auto check = [&](const std::vector<SpanRecord>& recs) {
        for (const SpanRecord& r : recs) {
            EXPECT_NE(r.spanId, 0u);
            EXPECT_GE(r.end, r.start);
            EXPECT_EQ(r.stageSum(), r.total())
                << obs::spanKindName(r.kind) << " span " << r.spanId;
            for (int i = 0; i < r.numStages; ++i)
                EXPECT_GE(r.stages[i].begin, r.start);
            if (r.kind == SpanKind::AppMsg)
                saw_msg = true;
            else
                saw_memory = true;
        }
    };
    check(sample);
    check(slow);
    EXPECT_TRUE(saw_memory);
    EXPECT_TRUE(saw_msg);

    // The exact aggregates agree with each other: per-kind cycle
    // totals and per-stage cycle totals both sum every completion.
    stat_t kind_sum = 0, stage_sum = 0;
    for (int k = 0; k < obs::NUM_SPAN_KINDS; ++k)
        kind_sum += sink.kindCycles(static_cast<SpanKind>(k));
    for (int s = 0; s < obs::NUM_SPAN_STAGES; ++s)
        stage_sum += sink.stageCycles(static_cast<SpanStage>(s));
    EXPECT_EQ(kind_sum, stage_sum);

    // spans.jsonl landed with records and the summary row.
    std::string doc = readFile(spans_path);
    EXPECT_NE(doc.find("\"type\":\"span\""), std::string::npos);
    EXPECT_NE(doc.find("\"type\":\"summary\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\":\"app_msg\""), std::string::npos);

    // The Chrome trace carries the flow arrows for sampled spans.
    std::string json = readFile(trace_path);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"span\""), std::string::npos);

    std::remove(spans_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(SpanEndToEnd, ArmedSpansAreFingerprintNeutral)
{
    check::FuzzProgram prog = check::FuzzProgram::generate(5);
    check::RunOptions opt;
    opt.watcherPeriodUs = 100;
    opt.validateEvery = 4;

    Config base = check::makeFuzzConfig(check::baselinePoint(), 5);
    check::FuzzResult plain = check::runFuzzProgram(prog, base, opt);

    Config armed = check::makeFuzzConfig(check::baselinePoint(), 5);
    armed.setBool("obs/spans_enabled", true);
    check::FuzzResult spans = check::runFuzzProgram(prog, armed, opt);

    EXPECT_TRUE(spans.violations.empty());
    EXPECT_EQ(plain.spansCompleted, 0u);
    EXPECT_GT(spans.spansCompleted, 0u);
    // Span instrumentation observes the timing model; it must never
    // feed back into it.
    EXPECT_EQ(spans.fingerprint, plain.fingerprint);
}

} // namespace
} // namespace graphite
