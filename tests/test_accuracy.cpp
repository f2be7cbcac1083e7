/**
 * @file
 * Tests for the accuracy observatory (src/obs/accuracy).
 *
 * Unit level: exact violation accounting against synthetic tile clocks
 * (the observatory only reads attached atomics, so a test can pin every
 * clock and predict each counter to the cycle), the 8-point violation
 * taxonomy, the directional pair-skew matrix and the JSONL report
 * schema.
 *
 * System level: the planted late-delivery fault (check/inject_fault =
 * late_delivery stamps every packet with its send time, a timing-only
 * perturbation) must produce causality violations under all three lax
 * sync models, with identical counts across repeat runs under the
 * deterministic host scheduler and an unchanged workload checksum.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "common/config.h"
#include "core/simulator.h"
#include "obs/accuracy/accuracy.h"
#include "workloads/registry.h"

namespace graphite
{
namespace obs
{
namespace accuracy
{
namespace
{

// ------------------------------------------------------------ unit level

class AccuracyUnit : public ::testing::Test
{
  protected:
    static constexpr tile_id_t TILES = 4;

    void
    SetUp() override
    {
        for (tile_id_t t = 0; t < TILES; ++t) {
            clocks_[t].store(0, std::memory_order_relaxed);
            acc.attachClock(t, &clocks_[t]);
        }
    }

    AccuracyObservatory acc{TILES, /*flight_min_cycles=*/10000};
    std::atomic<cycle_t> clocks_[TILES];
};

TEST_F(AccuracyUnit, PointNamesAreStableAndUnique)
{
    std::set<std::string> names;
    for (int i = 0; i < NUM_VIOLATION_POINTS; ++i) {
        std::string n =
            violationPointName(static_cast<ViolationPoint>(i));
        EXPECT_NE(n, "?");
        names.insert(n);
    }
    EXPECT_EQ(names.size(),
              static_cast<size_t>(NUM_VIOLATION_POINTS));
    EXPECT_EQ(violationPointName(ViolationPoint::NetApp),
              std::string("net_app"));
    EXPECT_EQ(violationPointName(ViolationPoint::MemWriteback),
              std::string("mem_writeback"));
}

TEST_F(AccuracyUnit, ExactViolationAccounting)
{
    clocks_[1].store(1000, std::memory_order_relaxed);

    // Event in the receiver's future and event exactly at the clock
    // are causal; only strictly-stale timestamps violate.
    acc.onDelivery(ViolationPoint::NetApp, 0, 1, 1500);
    acc.onDelivery(ViolationPoint::NetApp, 0, 1, 1000);
    acc.onDelivery(ViolationPoint::NetApp, 0, 1, 400); // 600 late
    acc.onDelivery(ViolationPoint::NetApp, 0, 1, 900); // 100 late

    EXPECT_EQ(acc.deliveries(), 4);
    EXPECT_EQ(acc.violations(), 2);
    EXPECT_EQ(acc.worstMagnitude(), 600u);
    EXPECT_EQ(acc.pointDeliveries(ViolationPoint::NetApp), 4);
    EXPECT_EQ(acc.pointViolations(ViolationPoint::NetApp), 2);
    EXPECT_EQ(acc.pointViolations(ViolationPoint::MemRequest), 0);
    EXPECT_EQ(acc.magnitudeHistogram()->count(), 2);
    EXPECT_EQ(acc.magnitudeHistogram()->max(), 600);
    EXPECT_EQ(
        acc.pointMagnitudeHistogram(ViolationPoint::NetApp)->count(),
        2);
}

TEST_F(AccuracyUnit, EveryPointClassifiesIndependently)
{
    clocks_[2].store(500, std::memory_order_relaxed);
    for (int i = 0; i < NUM_VIOLATION_POINTS; ++i)
        acc.onDelivery(static_cast<ViolationPoint>(i), 0, 2,
                       static_cast<cycle_t>(i)); // all stale
    stat_t sum = 0;
    for (int i = 0; i < NUM_VIOLATION_POINTS; ++i) {
        auto p = static_cast<ViolationPoint>(i);
        EXPECT_EQ(acc.pointDeliveries(p), 1) << violationPointName(p);
        EXPECT_EQ(acc.pointViolations(p), 1) << violationPointName(p);
        sum += acc.pointViolations(p);
    }
    EXPECT_EQ(sum, acc.violations());
    EXPECT_EQ(acc.worstMagnitude(), 500u); // event_time 0 at clock 500
}

TEST_F(AccuracyUnit, OutOfRangeAndUnattachedClocksObserveNothing)
{
    clocks_[0].store(100, std::memory_order_relaxed);

    acc.onDelivery(ViolationPoint::NetApp, 0, TILES + 7, 1);
    acc.onDelivery(ViolationPoint::NetApp, 0, INVALID_TILE_ID, 1);
    EXPECT_EQ(acc.deliveries(), 0);

    // A tile with no clock attached has nothing to compare against; the
    // hook must skip it rather than dereference.
    AccuracyObservatory bare(TILES, /*flight_min_cycles=*/10000);
    bare.onDelivery(ViolationPoint::NetApp, 1, 0, 1);
    EXPECT_EQ(bare.deliveries(), 0);
    EXPECT_EQ(bare.violations(), 0);
}

TEST_F(AccuracyUnit, PairMatrixTracksDirectionalSkew)
{
    acc.onPairObserved(0, 1, 100, 350); // skew 250
    acc.onPairObserved(0, 1, 500, 100); // skew 400
    acc.onPairObserved(2, 2, 5, 900);   // self pair: ignored
    acc.onPairObserved(0, TILES + 3, 0, 900); // out of range: ignored

    PairSkew ps = acc.pair(0, 1);
    EXPECT_EQ(ps.maxSkew, 400u);
    EXPECT_EQ(ps.samples, 2);
    EXPECT_DOUBLE_EQ(ps.meanSkew, 325.0);
    EXPECT_EQ(acc.pair(1, 0).samples, 0); // directional cells
    EXPECT_EQ(acc.pairSkewMax(), 400u);
    EXPECT_EQ(acc.pairSamples(), 2);
    EXPECT_DOUBLE_EQ(acc.pairSkewMean(), 325.0);
}

TEST_F(AccuracyUnit, DeliveriesFeedThePairMatrix)
{
    clocks_[0].store(100, std::memory_order_relaxed);
    clocks_[3].store(400, std::memory_order_relaxed);

    // Causal delivery (event in the receiver's future): no violation,
    // but the src/dst clock gap still lands in the skew matrix.
    acc.onDelivery(ViolationPoint::MemRequest, 0, 3, 450);
    EXPECT_EQ(acc.deliveries(), 1);
    EXPECT_EQ(acc.violations(), 0);
    PairSkew ps = acc.pair(0, 3);
    EXPECT_EQ(ps.samples, 1);
    EXPECT_EQ(ps.maxSkew, 300u);
}

TEST_F(AccuracyUnit, ReportJsonlCarriesTheFullSchema)
{
    clocks_[1].store(1000, std::memory_order_relaxed);
    acc.onDelivery(ViolationPoint::MemReply, 0, 1, 250); // 750 late
    acc.onPairObserved(2, 3, 900, 100);

    std::string report = acc.reportJsonl();
    EXPECT_NE(report.find("\"type\":\"accuracy_summary\""),
              std::string::npos);
    EXPECT_NE(report.find("\"deliveries\":1"), std::string::npos);
    EXPECT_NE(report.find("\"violations\":1"), std::string::npos);
    EXPECT_NE(report.find("\"worst_magnitude_cycles\":750"),
              std::string::npos);
    for (int i = 0; i < NUM_VIOLATION_POINTS; ++i)
        EXPECT_NE(report.find(violationPointName(
                      static_cast<ViolationPoint>(i))),
                  std::string::npos);
    EXPECT_NE(report.find("\"type\":\"accuracy_pair\""),
              std::string::npos);

    // One summary + one line per point + one per touched pair cell
    // ((0,1) from the delivery and (2,3) from the observation).
    size_t lines = 0;
    for (char c : report)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + NUM_VIOLATION_POINTS + 2u);
}

TEST(AccuracyConfig, DisarmedByDefaultAndArmedByReportPath)
{
    EXPECT_EQ(AccuracyObservatory::fromConfig(defaultTargetConfig(), 4),
              nullptr);

    // accuracy/out implies enabled: asking for a report arms detection.
    // Dropping the observatory unreported writes no file.
    Config cfg = defaultTargetConfig();
    cfg.set("accuracy/out", "/tmp/graphite_test_accuracy_unused.jsonl");
    auto acc = AccuracyObservatory::fromConfig(cfg, 4);
    ASSERT_NE(acc, nullptr);
    EXPECT_EQ(acc->reportPath(),
              "/tmp/graphite_test_accuracy_unused.jsonl");
}

// ---------------------------------------------------------- system level

struct SysRun
{
    double checksum = 0;
    stat_t deliveries = 0;
    stat_t violations = 0;
    cycle_t worst = 0;
    stat_t pairSamples = 0;
    stat_t statViolations = 0; ///< via the sim's stats registry
};

SysRun
runModel(const std::string& model, bool plant_late_delivery)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 8);
    cfg.setBool("accuracy/enabled", true);
    cfg.set("sync/model", model);
    cfg.set("host/scheduler", "deterministic");
    if (plant_late_delivery) {
        cfg.set("check/inject_fault", "late_delivery");
        cfg.setInt("check/fault_after", 0);
    }
    Simulator sim(cfg);
    const workloads::WorkloadInfo& w = workloads::findWorkload("fft");
    workloads::WorkloadParams p = w.defaults;
    p.threads = 8;
    p.size = 256;
    workloads::SimRunResult r = workloads::runSim(sim, w, p);

    const AccuracyObservatory& acc = *sim.accuracy();
    SysRun out;
    out.checksum = r.checksum;
    out.deliveries = acc.deliveries();
    out.violations = acc.violations();
    out.worst = acc.worstMagnitude();
    out.pairSamples = acc.pairSamples();
    out.statViolations = sim.stats().get("accuracy.violations");
    return out;
}

class AccuracySystem : public ::testing::TestWithParam<const char*>
{
};

TEST_P(AccuracySystem, PlantedLateDeliveryIsDetectedDeterministically)
{
    const std::string model = GetParam();

    SysRun clean = runModel(model, false);
    EXPECT_GT(clean.deliveries, 0) << model;
    EXPECT_LE(clean.violations, clean.deliveries) << model;
    EXPECT_EQ(clean.statViolations, clean.violations) << model;
    EXPECT_GT(clean.pairSamples, 0) << model;

    // Stamping every packet with its send time plants guaranteed-stale
    // timestamps wherever a receiver runs ahead of a sender.
    SysRun faulted = runModel(model, true);
    EXPECT_GT(faulted.deliveries, 0) << model;
    EXPECT_GE(faulted.violations, 1) << model;
    EXPECT_GT(faulted.worst, 0u) << model;

    // The fault is timing-only: functional results must not move.
    EXPECT_EQ(faulted.checksum, clean.checksum) << model;

    // Deterministic scheduler: detection itself is reproducible
    // (pair samples are wall-clock throttled, so they are excluded).
    SysRun again = runModel(model, true);
    EXPECT_EQ(again.deliveries, faulted.deliveries) << model;
    EXPECT_EQ(again.violations, faulted.violations) << model;
    EXPECT_EQ(again.worst, faulted.worst) << model;
    EXPECT_EQ(again.checksum, faulted.checksum) << model;
}

INSTANTIATE_TEST_SUITE_P(AllSyncModels, AccuracySystem,
                         ::testing::Values("lax", "lax_barrier",
                                           "lax_p2p"));

} // namespace
} // namespace accuracy
} // namespace obs
} // namespace graphite
