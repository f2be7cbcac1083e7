/**
 * @file
 * Tests for the fuzzing & invariant-checking harness (src/check):
 * deterministic program generation, fault-plan semantics, clean-run
 * invariants, cross-config fingerprint equivalence, byte-identical
 * stats determinism, and in-process fault detection. The fork-isolated
 * sweep driver on top of these pieces is exercised by the fuzz_smoke
 * ctest entry.
 */

#include <gtest/gtest.h>

#include "check/fault.h"
#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "common/log.h"

namespace graphite
{
namespace check
{
namespace
{

RunOptions
quickOpts()
{
    RunOptions opt;
    opt.watcherPeriodUs = 100;
    opt.validateEvery = 4;
    return opt;
}

TEST(FuzzProgram, GenerationIsDeterministic)
{
    for (std::uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
        FuzzProgram a = FuzzProgram::generate(seed);
        FuzzProgram b = FuzzProgram::generate(seed);
        EXPECT_EQ(a.describe(), b.describe());
        EXPECT_GE(a.activeThreads(), 1);
        EXPECT_GT(a.enabledActions(), 0u);
    }
    EXPECT_NE(FuzzProgram::generate(1).describe(),
              FuzzProgram::generate(2).describe());
}

TEST(FuzzProgram, LimitsAreRespected)
{
    GenLimits limits;
    limits.maxThreads = 1;
    limits.allowRespawn = false;
    limits.allowMsgRing = false;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        FuzzProgram p = FuzzProgram::generate(seed, limits);
        EXPECT_EQ(p.threads, 1);
        for (const FuzzRound& r : p.rounds) {
            EXPECT_FALSE(r.msgRing);
            EXPECT_FALSE(r.respawn);
        }
    }
}

TEST(FaultPlan, ParseAndFireSemantics)
{
    EXPECT_EQ(FaultPlan::parseMode("none"), FaultMode::None);
    EXPECT_EQ(FaultPlan::parseMode("lost_writeback"),
              FaultMode::LostWriteback);
    EXPECT_THROW(FaultPlan::parseMode("bogus"), FatalError);

    Config cfg = defaultTargetConfig();
    cfg.set("check/inject_fault", "stale_dram_fill");
    cfg.setInt("check/fault_after", 2);
    cfg.setInt("check/fault_addr_below", 0x1000);
    EXPECT_EQ(FaultPlan::fromConfig(defaultTargetConfig()), nullptr);
    ASSERT_NE(FaultPlan::fromConfig(cfg), nullptr);
    FaultPlan fp(cfg);
    // Wrong mode and filtered addresses never burn opportunities.
    EXPECT_FALSE(fp.shouldFire(FaultMode::LostWriteback, 0x40));
    EXPECT_FALSE(fp.shouldFire(FaultMode::StaleDramFill, 0x2000));
    EXPECT_FALSE(fp.shouldFire(FaultMode::StaleDramFill, 0x40));
    EXPECT_FALSE(fp.shouldFire(FaultMode::StaleDramFill, 0x40));
    EXPECT_TRUE(fp.shouldFire(FaultMode::StaleDramFill, 0x40));
    EXPECT_EQ(fp.fired(), 1u);
}

TEST(FuzzRunner, CleanRunHoldsInvariants)
{
    FuzzProgram prog = FuzzProgram::generate(3);
    Config cfg = makeFuzzConfig(baselinePoint(), 3);
    FuzzResult res = runFuzzProgram(prog, cfg, quickOpts());
    EXPECT_TRUE(res.violations.empty()) << res.violations.front();
    EXPECT_NE(res.fingerprint, 0u);
    EXPECT_GT(res.simulatedCycles, 0u);
}

TEST(FuzzRunner, FingerprintsMatchAcrossConfigs)
{
    const std::uint64_t seed = 5;
    FuzzProgram prog = FuzzProgram::generate(seed);
    std::vector<ConfigPoint> matrix = sampleMatrix(seed, 2);
    std::uint64_t fp0 = 0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        FuzzResult res = runFuzzProgram(
            prog, makeFuzzConfig(matrix[i], seed), quickOpts());
        EXPECT_TRUE(res.violations.empty())
            << matrix[i].name << ": " << res.violations.front();
        if (i == 0)
            fp0 = res.fingerprint;
        else
            EXPECT_EQ(res.fingerprint, fp0) << matrix[i].name;
    }
}

TEST(FuzzRunner, StatsReportIsDeterministic)
{
    // Single app thread under lax sync: the whole simulation is a
    // deterministic function of the seed, so two in-process runs must
    // produce byte-identical final stats reports.
    GenLimits limits;
    limits.maxThreads = 1;
    limits.allowRespawn = false;
    limits.allowMsgRing = false;
    FuzzProgram prog = FuzzProgram::generate(11, limits);
    Config cfg = makeFuzzConfig(baselinePoint(), 11);
    RunOptions opt = quickOpts();
    opt.collectStats = true;
    FuzzResult a = runFuzzProgram(prog, cfg, opt);
    FuzzResult b = runFuzzProgram(prog, cfg, opt);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ASSERT_FALSE(a.statsReport.empty());
    EXPECT_EQ(a.statsReport, b.statsReport);
}

TEST(ShutdownValidation, CleanRunPassesFlagGatedCheck)
{
    FuzzProgram prog = FuzzProgram::generate(2);
    Config cfg = makeFuzzConfig(baselinePoint(), 2);
    cfg.setBool("check/validate_at_shutdown", true);
    EXPECT_NO_THROW(runFuzzProgram(prog, cfg, quickOpts()));
}

/**
 * In-process detection drill for the two injectable faults that do not
 * abort the process (drop_invalidation can trip a protocol assert and
 * lost_writeback needs the fork-isolated driver's matrix; both are
 * covered by fuzz_smoke). Detection = invariant violation, a thrown
 * FatalError, or fingerprint divergence vs the clean run of the same
 * seed and config.
 */
bool
detectInProcess(const char* fault, std::uint64_t max_seed)
{
    ConfigPoint pt;
    pt.name = "drill";
    pt.processes = 3;
    pt.syncModel = "lax_p2p";
    pt.lineSize = 32;
    for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
        FuzzProgram prog = FuzzProgram::generate(seed);
        FuzzResult clean = runFuzzProgram(
            prog, makeFuzzConfig(pt, seed), quickOpts());
        if (!clean.violations.empty())
            return false; // clean run must be clean
        try {
            FuzzResult faulty = runFuzzProgram(
                prog, makeFuzzConfig(pt, seed, fault), quickOpts());
            if (!faulty.violations.empty() ||
                faulty.fingerprint != clean.fingerprint)
                return true;
        } catch (const FatalError&) {
            return true;
        }
    }
    return false;
}

TEST(FaultInjection, SkipReleaseFenceIsDetected)
{
    EXPECT_TRUE(detectInProcess("skip_release_fence", 20));
}

TEST(FaultInjection, StaleDramFillIsDetected)
{
    EXPECT_TRUE(detectInProcess("stale_dram_fill", 20));
}

} // namespace
} // namespace check
} // namespace graphite
