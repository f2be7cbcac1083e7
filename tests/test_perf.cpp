/**
 * @file
 * Unit tests for the core performance model: instruction costs, branch
 * predictors, load/store structural hazards, pseudo-instructions, and
 * the lax clock-forwarding rule.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "perf/branch_predictor.h"
#include "perf/core_model.h"
#include "snapshot/snapshot.h"

namespace graphite
{
namespace
{

Config
coreConfig()
{
    Config cfg = defaultTargetConfig();
    return cfg;
}

// --------------------------------------------------------- BranchPredictor

TEST(BranchPredictor, NullIsAlwaysCorrect)
{
    auto bp = BranchPredictor::create("none", 16);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(bp->predictAndTrain(i, i % 2 == 0));
    EXPECT_EQ(bp->mispredictions(), 0u);
    EXPECT_EQ(bp->predictions(), 10u);
}

TEST(BranchPredictor, AlwaysTakenMatchesTakenRate)
{
    auto bp = BranchPredictor::create("always_taken", 16);
    EXPECT_TRUE(bp->predictAndTrain(0, true));
    EXPECT_FALSE(bp->predictAndTrain(0, false));
}

TEST(BranchPredictor, OneBitTracksLastDirection)
{
    auto bp = BranchPredictor::create("one_bit", 16);
    bp->predictAndTrain(5, false);          // trains to not-taken
    EXPECT_TRUE(bp->predictAndTrain(5, false));
    EXPECT_FALSE(bp->predictAndTrain(5, true)); // flips
    EXPECT_TRUE(bp->predictAndTrain(5, true));
}

TEST(BranchPredictor, TwoBitNeedsTwoFlipsToChange)
{
    auto bp = BranchPredictor::create("two_bit", 16);
    // Initial state 2 (weakly taken).
    EXPECT_TRUE(bp->predictAndTrain(3, true));   // -> 3
    EXPECT_FALSE(bp->predictAndTrain(3, false)); // -> 2, still taken
    EXPECT_TRUE(bp->predictAndTrain(3, true));   // hysteresis held
}

TEST(BranchPredictor, LoopPatternAccuracy)
{
    // A loop branch (taken N-1 times, then not taken) should be mostly
    // predicted by a two-bit counter.
    auto bp = BranchPredictor::create("two_bit", 64);
    for (int iter = 0; iter < 50; ++iter) {
        for (int i = 0; i < 10; ++i)
            bp->predictAndTrain(1, i < 9);
    }
    double rate = static_cast<double>(bp->mispredictions()) /
                  static_cast<double>(bp->predictions());
    EXPECT_LT(rate, 0.15);
}

TEST(BranchPredictor, UnknownTypeIsFatal)
{
    EXPECT_THROW(BranchPredictor::create("oracle", 16), FatalError);
}

// --------------------------------------------------------------- CoreModel

TEST(CoreModel, RestoreRejectsASlotCursorOutsideTheRing)
{
    CoreModel core(0, coreConfig());
    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    core.serialize(save);

    // Copy the record up to the load ring's cursor, then put the cursor
    // one past the ring's last slot.
    snapshot::SnapshotReader r(w.finish());
    snapshot::SnapshotWriter damaged;
    for (int i = 0; i < 3; ++i) // clock, predictions, mispredictions
        damaged.u64(r.u64());
    std::vector<std::uint8_t> table = r.bytes();
    damaged.bytes(table.data(), table.size());
    std::uint64_t slots = r.u64();
    damaged.u64(slots);
    for (std::uint64_t i = 0; i < slots; ++i)
        damaged.u64(r.u64());
    damaged.u64(slots);

    CoreModel restored(0, coreConfig());
    snapshot::SnapshotReader bad(damaged.finish());
    snapshot::Archive restore(bad);
    try {
        restored.serialize(restore);
        FAIL() << "slot cursor " << slots << " accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("cursor"), std::string::npos)
            << e.what();
    }
}

TEST(CoreModel, InstructionCostsAdvanceClock)
{
    CoreModel core(0, coreConfig());
    core.executeInstructions(InstrClass::IntAlu, 10); // 10 * 1
    EXPECT_EQ(core.cycle(), 10u);
    core.executeInstructions(InstrClass::IntDiv, 1); // 18
    EXPECT_EQ(core.cycle(), 28u);
    EXPECT_EQ(core.instructionsRetired(), 11u);
    EXPECT_EQ(core.instructionsOfClass(InstrClass::IntAlu), 10u);
}

TEST(CoreModel, ConfigurableCosts)
{
    Config cfg = coreConfig();
    cfg.setInt("perf_model/core/cost/fp_mul", 99);
    CoreModel core(0, cfg);
    core.executeInstructions(InstrClass::FpMul, 1);
    EXPECT_EQ(core.cycle(), 99u);
}

TEST(CoreModel, MispredictChargesPenalty)
{
    Config cfg = coreConfig();
    cfg.set("perf_model/branch_predictor/type", "always_taken");
    cfg.setInt("perf_model/branch_predictor/mispredict_penalty", 20);
    CoreModel core(0, cfg);
    core.executeBranch(1, true); // predicted: 1 cycle
    EXPECT_EQ(core.cycle(), 1u);
    core.executeBranch(1, false); // mispredicted: 1 + 20
    EXPECT_EQ(core.cycle(), 22u);
}

TEST(CoreModel, LoadBlocksForLatency)
{
    CoreModel core(0, coreConfig());
    core.executeLoad(100);
    // Issue cost 1 + latency 100.
    EXPECT_EQ(core.cycle(), 101u);
}

TEST(CoreModel, StoreBufferHidesLatencyUntilFull)
{
    Config cfg = coreConfig();
    cfg.setInt("perf_model/core/store_buffer_size", 2);
    CoreModel core(0, cfg);
    // Two stores fit in the buffer: clock advances by issue cost only.
    core.executeStore(1000);
    core.executeStore(1000);
    EXPECT_EQ(core.cycle(), 2u);
    // Third store finds the buffer full and stalls until slot drains.
    core.executeStore(1000);
    EXPECT_GE(core.cycle(), 1000u);
    EXPECT_EQ(core.storeStalls(), 1u);
}

TEST(CoreModel, LoadQueueStructuralHazard)
{
    Config cfg = coreConfig();
    cfg.setInt("perf_model/core/load_queue_size", 1);
    CoreModel core(0, cfg);
    core.executeLoad(50);
    cycle_t after_first = core.cycle();
    core.executeLoad(50);
    EXPECT_GT(core.cycle(), after_first + 50); // serialized
}

TEST(CoreModel, ForwardClockIsMonotonicMax)
{
    CoreModel core(0, coreConfig());
    core.forwardClock(500);
    EXPECT_EQ(core.cycle(), 500u);
    core.forwardClock(100); // lax rule: no backwards movement
    EXPECT_EQ(core.cycle(), 500u);
}

TEST(CoreModel, SyncWaitPseudoTracksStat)
{
    CoreModel core(0, coreConfig());
    core.executePseudo(PseudoInstr::SyncWait, 300);
    EXPECT_EQ(core.cycle(), 300u);
    EXPECT_EQ(core.syncWaitCycles(), 300u);
    core.executePseudo(PseudoInstr::Spawn, 10);
    core.executePseudo(PseudoInstr::MessageReceive, 5);
    EXPECT_EQ(core.cycle(), 315u);
    EXPECT_EQ(core.syncWaitCycles(), 300u);
}

} // namespace
} // namespace graphite
