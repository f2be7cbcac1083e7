/**
 * @file
 * Tests for the happens-before race detector (src/race).
 *
 * Unit tests drive the Detector directly with synthetic access/sync
 * streams; integration tests run full simulations with planted races
 * (must be flagged) and race-free programs built on every sync
 * primitive (must stay silent) across all three sync models. The fuzz
 * programs double as a false-positive corpus: armed runs must report
 * nothing and leave the differential fingerprint untouched.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "core/api.h"
#include "core/simulator.h"
#include "race/detector.h"
#include "workloads/registry.h"

namespace graphite
{
namespace
{

/** The detector the unit tests drive directly. */
std::unique_ptr<race::Detector> g_det;

race::Detector&
det()
{
    return *g_det;
}

/** Build a fresh detector for a unit test. */
void
resetDetector(int tiles = 4, int max_shadow_lines = 1 << 20)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("race/max_shadow_lines", max_shadow_lines);
    g_det = std::make_unique<race::Detector>(cfg, tiles);
}

// ------------------------------------------------------------- unit: epochs

TEST(RaceEpoch, PackingRoundTrips)
{
    race::epoch_t e = race::makeEpoch(13, 0x123456789aull);
    EXPECT_EQ(race::epochTile(e), 13);
    EXPECT_EQ(race::epochClock(e), 0x123456789aull);
    EXPECT_EQ(race::EPOCH_NONE, race::makeEpoch(0, 0));
}

// ---------------------------------------------------- unit: core detection

TEST(RaceDetector, UnorderedWritesAreFlagged)
{
    resetDetector();
    det().onAccess(0, 0x1000, 4, true, 10);
    det().onAccess(1, 0x1000, 4, true, 20);
    ASSERT_EQ(det().records().size(), 1u);
    race::RaceRecord r = det().records()[0];
    EXPECT_EQ(r.kind, race::RaceKind::WriteWrite);
    EXPECT_EQ(r.addr, 0x1000u);
    EXPECT_NE(det().describe(r).find("write-write"), std::string::npos);
}

TEST(RaceDetector, WriteThenUnorderedReadIsFlagged)
{
    resetDetector();
    det().onAccess(0, 0x2000, 4, true, 10);
    det().onAccess(1, 0x2000, 4, false, 20);
    ASSERT_EQ(det().records().size(), 1u);
    EXPECT_EQ(det().records()[0].kind, race::RaceKind::WriteRead);
}

TEST(RaceDetector, PromotedReadersThenWriteIsFlagged)
{
    resetDetector();
    // Two unordered readers force read-VC promotion; a third thread's
    // write must still see both and race.
    det().onAccess(0, 0x3000, 4, false, 10);
    det().onAccess(1, 0x3000, 4, false, 20);
    det().onAccess(2, 0x3000, 4, true, 30);
    ASSERT_GE(det().records().size(), 1u);
    EXPECT_EQ(det().records()[0].kind, race::RaceKind::ReadWrite);
}

TEST(RaceDetector, SameThreadNeverRaces)
{
    resetDetector();
    for (int i = 0; i < 8; ++i) {
        det().onAccess(0, 0x4000, 4, (i & 1) != 0, i);
        det().onAccess(0, 0x4000 + 4, 8, true, i);
    }
    EXPECT_EQ(det().raceCount(), 0);
}

TEST(RaceDetector, DedupFoldsRepeatedReports)
{
    resetDetector();
    det().onAccess(0, 0x5000, 4, true, 10);
    det().onAccess(1, 0x5000, 4, true, 20);
    det().onAccess(1, 0x5000, 4, true, 30); // same epoch: no recheck
    det().onAccess(0, 0x5000, 4, true, 40); // same pair again
    ASSERT_EQ(det().records().size(), 1u);
    EXPECT_GE(det().records()[0].count, 2u);
    EXPECT_GE(det().raceCount(), 2);
}

// --------------------------------------------------------- unit: sync edges

TEST(RaceDetector, LockEdgeOrdersCriticalSections)
{
    resetDetector();
    constexpr addr_t LOCK = 0x9000, DATA = 0x9100;
    det().onAccess(0, DATA, 4, true, 10);
    det().releaseAddr(0, LOCK);
    det().acquireAddr(1, LOCK);
    det().onAccess(1, DATA, 4, true, 20);
    EXPECT_EQ(det().raceCount(), 0);
    EXPECT_GE(det().syncEdges(), 2);
}

TEST(RaceDetector, FailedCasDoesNotPublish)
{
    // Satellite regression: a failed CAS is acquire-only. If it
    // (wrongly) released, the reader below would appear ordered and
    // the race would be missed.
    resetDetector();
    constexpr addr_t FLAG = 0xa000, DATA = 0xa100;
    det().onAccess(0, DATA, 4, true, 10);
    det().onAtomic(0, FLAG, /*release=*/false); // failed CAS
    det().onAtomic(1, FLAG, /*release=*/false); // failed CAS
    det().onAccess(1, DATA, 4, false, 20);
    ASSERT_EQ(det().records().size(), 1u);
    EXPECT_EQ(det().records()[0].kind, race::RaceKind::WriteRead);

    // The successful CAS does publish: same program, release=true.
    resetDetector();
    det().onAccess(0, DATA, 4, true, 10);
    det().onAtomic(0, FLAG, /*release=*/true); // successful CAS
    det().onAtomic(1, FLAG, /*release=*/false);
    det().onAccess(1, DATA, 4, false, 20);
    EXPECT_EQ(det().raceCount(), 0);
}

TEST(RaceDetector, BarrierGenerationsOrderPhases)
{
    resetDetector();
    constexpr addr_t B = 0xb000, DATA = 0xb100;
    // Phase 1: tile 0 writes; both arrive; generation 0 closes.
    det().onAccess(0, DATA, 4, true, 10);
    std::uint64_t g0 = det().barrierArrive(0, B, 2);
    std::uint64_t g1 = det().barrierArrive(1, B, 2);
    EXPECT_EQ(g0, g1);
    det().barrierLeave(0, B, g0);
    det().barrierLeave(1, B, g1);
    // Phase 2: tile 1 reads and takes over the word.
    det().onAccess(1, DATA, 4, false, 20);
    det().onAccess(1, DATA, 4, true, 21);
    // Generation 1 orders the hand-back to tile 0.
    g0 = det().barrierArrive(1, B, 2);
    g1 = det().barrierArrive(0, B, 2);
    det().barrierLeave(1, B, g0);
    det().barrierLeave(0, B, g1);
    det().onAccess(0, DATA, 4, false, 30);
    EXPECT_EQ(det().raceCount(), 0);
}

TEST(RaceDetector, MessageChannelOrdersSenderBeforeReceiver)
{
    resetDetector();
    constexpr addr_t DATA = 0xc000;
    det().onAccess(0, DATA, 4, true, 10);
    det().msgSendEdge(0, 1);
    det().msgRecvEdge(0, 1);
    det().onAccess(1, DATA, 4, false, 20);
    EXPECT_EQ(det().raceCount(), 0);
    // A receive with no matching send establishes nothing.
    constexpr addr_t DATA2 = 0xc100;
    det().onAccess(0, DATA2, 4, true, 25);
    det().msgRecvEdge(0, 2); // channel (0,2) has nothing pending
    det().onAccess(2, DATA2, 4, false, 30);
    EXPECT_EQ(det().raceCount(), 1);
}

TEST(RaceDetector, DirectEdgeOrdersSpawnStyleHandoff)
{
    resetDetector();
    constexpr addr_t DATA = 0xd000;
    det().onAccess(0, DATA, 4, true, 10);
    det().edge(0, 2); // spawn/futex-transfer style MCP edge
    det().onAccess(2, DATA, 4, true, 20);
    EXPECT_EQ(det().raceCount(), 0);
    // Out-of-range endpoints are ignored, not fatal.
    det().edge(-1, 2);
    det().edge(0, 99);
}

// ------------------------------------------------------- unit: shadow table

TEST(RaceDetector, AdaptiveLineExpandsOnSecondThread)
{
    resetDetector();
    for (addr_t a = 0x7000; a < 0x7040; a += 4)
        det().onAccess(0, a, 4, true, 1);
    EXPECT_EQ(det().shadowExpansions(), 0); // compact single-owner
    det().edge(0, 1);
    det().onAccess(1, 0x7000, 4, true, 2);
    EXPECT_EQ(det().shadowExpansions(), 1);
    EXPECT_EQ(det().raceCount(), 0); // expansion is lossless + ordered
    // The expanded cells still carry tile 0's history: an unordered
    // third-party write to another word of the line must be caught.
    det().onAccess(2, 0x7004, 4, true, 3);
    EXPECT_EQ(det().raceCount(), 1);
}

TEST(RaceDetector, FalseSharingIsNotARace)
{
    resetDetector();
    det().onAccess(0, 0x8000, 4, true, 10);
    det().onAccess(1, 0x8004, 4, true, 20); // same line, disjoint words
    EXPECT_EQ(det().raceCount(), 0);
}

TEST(RaceDetector, ClearRangeForgetsFreedMemory)
{
    resetDetector();
    det().onAccess(0, 0xe000, 4, true, 10);
    det().clearRange(0xe000, 64); // free + malloc reuse
    det().onAccess(1, 0xe000, 4, true, 20);
    EXPECT_EQ(det().raceCount(), 0);
}

TEST(RaceDetector, ShadowTableIsBoundedByEviction)
{
    resetDetector(4, /*max_shadow_lines=*/128);
    for (addr_t a = 0; a < 64 * 4096; a += 64)
        det().onAccess(0, a, 4, true, 1);
    EXPECT_GT(det().shadowEvictions(), 0);
    EXPECT_LE(det().shadowLines(), 128 + 64); // cap + one per shard
    EXPECT_EQ(det().raceCount(), 0); // forgetting never invents races
}

// ------------------------------------------------- integration: planted race

struct RaceProbe
{
    addr_t word = 0;
};

void
racyChild(void* p)
{
    auto* probe = static_cast<RaceProbe*>(p);
    api::annotateSite("child-write");
    api::write<std::uint32_t>(probe->word, 2);
}

void
racyMain(void* p)
{
    auto* probe = static_cast<RaceProbe*>(p);
    probe->word = api::malloc(4);
    api::write<std::uint32_t>(probe->word, 0);
    tile_id_t t = api::threadSpawn(&racyChild, p);
    api::annotateSite("parent-write");
    api::write<std::uint32_t>(probe->word, 1);
    api::threadJoin(t);
    api::free(probe->word);
}

Config
simConfig(const std::string& sync_model, int tiles = 4, int procs = 1)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", tiles);
    cfg.setInt("general/num_processes", procs);
    cfg.set("sync/model", sync_model);
    cfg.setBool("race/enabled", true);
    return cfg;
}

TEST(RaceSim, PlantedWriteWriteIsFlaggedAcrossSyncModels)
{
    for (const char* model : {"lax", "lax_barrier", "lax_p2p"}) {
        Config cfg = simConfig(model);
        Simulator sim(cfg);
        RaceProbe probe;
        sim.run(&racyMain, &probe);
        race::Detector& det = *sim.raceDetector();
        EXPECT_GE(det.raceCount(), 1) << "sync model " << model;
        ASSERT_GE(det.records().size(), 1u) << "sync model " << model;
        // Whichever write came second, both annotated sites name the
        // conflicting pair.
        std::string line = det.describe(det.records()[0]);
        EXPECT_NE(line.find("child-write"), std::string::npos) << line;
        EXPECT_NE(line.find("parent-write"), std::string::npos) << line;
    }
}

void
racyReaderChild(void* p)
{
    auto* probe = static_cast<RaceProbe*>(p);
    (void)api::read<std::uint32_t>(probe->word);
}

void
racyReaderMain(void* p)
{
    auto* probe = static_cast<RaceProbe*>(p);
    probe->word = api::malloc(4);
    api::write<std::uint32_t>(probe->word, 0);
    tile_id_t t = api::threadSpawn(&racyReaderChild, p);
    api::write<std::uint32_t>(probe->word, 1);
    api::threadJoin(t);
    api::free(probe->word);
}

TEST(RaceSim, PlantedReadWriteIsFlagged)
{
    Config cfg = simConfig("lax");
    Simulator sim(cfg);
    RaceProbe probe;
    sim.run(&racyReaderMain, &probe);
    race::Detector& det = *sim.raceDetector();
    EXPECT_GE(det.raceCount(), 1);
}

TEST(RaceSim, ReportFileIsWritten)
{
    const char* path = "/tmp/graphite_test_races.jsonl";
    std::remove(path);
    Config cfg = simConfig("lax");
    cfg.set("race/report_out", path);
    Simulator sim(cfg);
    RaceProbe probe;
    sim.run(&racyMain, &probe);
    std::FILE* f = std::fopen(path, "r");
    ASSERT_NE(f, nullptr);
    char buf[512] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    std::fclose(f);
    std::string line = buf;
    EXPECT_NE(line.find("\"kind\":\"ww\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"cur_site\""), std::string::npos) << line;
    std::remove(path);
}

// --------------------------------------------- integration: race-free code

struct SharedProbe
{
    addr_t mutex = 0, barrier = 0, flag = 0, data = 0;
    std::uint32_t result = 0;
};

void
mutexChild(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    for (int i = 0; i < 4; ++i) {
        api::mutexLock(probe->mutex);
        std::uint32_t v = api::read<std::uint32_t>(probe->data);
        api::write<std::uint32_t>(probe->data, v + 1);
        api::mutexUnlock(probe->mutex);
    }
}

void
mutexMain(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    probe->mutex = api::malloc(api::MUTEX_BYTES);
    probe->data = api::malloc(4);
    api::mutexInit(probe->mutex);
    api::write<std::uint32_t>(probe->data, 0);
    tile_id_t a = api::threadSpawn(&mutexChild, p);
    tile_id_t b = api::threadSpawn(&mutexChild, p);
    mutexChild(p);
    api::threadJoin(a);
    api::threadJoin(b);
    probe->result = api::read<std::uint32_t>(probe->data);
    api::free(probe->mutex);
    api::free(probe->data);
}

TEST(RaceSim, MutexCounterIsCleanAcrossSyncModels)
{
    for (const char* model : {"lax", "lax_barrier", "lax_p2p"}) {
        Config cfg = simConfig(model);
        Simulator sim(cfg);
        SharedProbe probe;
        sim.run(&mutexMain, &probe);
        race::Detector& det = *sim.raceDetector();
        EXPECT_EQ(probe.result, 12u) << "sync model " << model;
        EXPECT_EQ(det.raceCount(), 0)
            << "sync model " << model << ": "
            << (det.records().empty()
                    ? std::string()
                    : det.describe(det.records()[0]));
    }
}

void
atomicPublishChild(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    // Acquire-spin on the flag with an atomic read (atomicAdd32 of 0),
    // then read the plainly-written payload.
    while (api::atomicAdd32(probe->flag, 0) == 0)
        api::exec(InstrClass::IntAlu, 10);
    probe->result = api::read<std::uint32_t>(probe->data);
}

void
atomicPublishMain(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    probe->flag = api::malloc(4);
    probe->data = api::malloc(4);
    api::write<std::uint32_t>(probe->flag, 0);
    tile_id_t t = api::threadSpawn(&atomicPublishChild, p);
    api::write<std::uint32_t>(probe->data, 77); // plain payload write
    api::atomicExchange32(probe->flag, 1);      // release publish
    api::threadJoin(t);
    api::free(probe->flag);
    api::free(probe->data);
}

TEST(RaceSim, AtomicFlagPublishIsClean)
{
    Config cfg = simConfig("lax");
    Simulator sim(cfg);
    SharedProbe probe;
    sim.run(&atomicPublishMain, &probe);
    race::Detector& det = *sim.raceDetector();
    EXPECT_EQ(probe.result, 77u);
    EXPECT_EQ(det.raceCount(), 0)
        << (det.records().empty()
                ? std::string()
                : det.describe(det.records()[0]));
}

struct BarrierProbe
{
    addr_t barrier = 0, words = 0;
    static constexpr int THREADS = 4;
    std::atomic<std::uint32_t> sum{0};
};

void
barrierPhase(BarrierProbe* probe, int idx)
{
    api::write<std::uint32_t>(probe->words + 4 * idx, 10 + idx);
    api::barrierWait(probe->barrier);
    int next = (idx + 1) % BarrierProbe::THREADS;
    probe->sum +=
        api::read<std::uint32_t>(probe->words + 4 * next);
}

void
barrierChild(void* p)
{
    auto* probe = static_cast<BarrierProbe*>(p);
    barrierPhase(probe, api::tileId());
}

void
barrierMain(void* p)
{
    auto* probe = static_cast<BarrierProbe*>(p);
    probe->barrier = api::malloc(api::BARRIER_BYTES);
    probe->words = api::malloc(4 * BarrierProbe::THREADS);
    api::barrierInit(probe->barrier, BarrierProbe::THREADS);
    std::vector<tile_id_t> tids;
    for (int i = 1; i < BarrierProbe::THREADS; ++i)
        tids.push_back(api::threadSpawn(&barrierChild, p));
    barrierPhase(probe, 0);
    for (tile_id_t t : tids)
        api::threadJoin(t);
    api::free(probe->barrier);
    api::free(probe->words);
}

TEST(RaceSim, BarrierPhasesAreClean)
{
    for (const char* model : {"lax", "lax_barrier"}) {
        Config cfg = simConfig(model);
        Simulator sim(cfg);
        BarrierProbe probe;
        sim.run(&barrierMain, &probe);
        race::Detector& det = *sim.raceDetector();
        EXPECT_EQ(probe.sum.load(), 10u + 11u + 12u + 13u);
        EXPECT_EQ(det.raceCount(), 0)
            << "sync model " << model << ": "
            << (det.records().empty()
                    ? std::string()
                    : det.describe(det.records()[0]));
    }
}

void
msgOrderChild(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    api::Message m = api::msgRecv(); // carries the HB edge
    std::uint32_t v = api::read<std::uint32_t>(probe->data);
    api::write<std::uint32_t>(probe->data, v * 2);
    api::msgSend(m.sender, &v, 4);
}

void
msgOrderMain(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    probe->data = api::malloc(4);
    api::write<std::uint32_t>(probe->data, 21);
    tile_id_t t = api::threadSpawn(&msgOrderChild, p);
    std::uint32_t token = 1;
    api::msgSend(t, &token, 4);
    api::Message m = api::msgRecv();
    (void)m;
    probe->result = api::read<std::uint32_t>(probe->data);
    api::threadJoin(t);
    api::free(probe->data);
}

TEST(RaceSim, MessagePassingOrdersSharedMemory)
{
    Config cfg = simConfig("lax", 4, 2); // cross-process messaging
    Simulator sim(cfg);
    SharedProbe probe;
    sim.run(&msgOrderMain, &probe);
    race::Detector& det = *sim.raceDetector();
    EXPECT_EQ(probe.result, 42u);
    EXPECT_EQ(det.raceCount(), 0)
        << (det.records().empty()
                ? std::string()
                : det.describe(det.records()[0]));
}

void
reuseChild(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    std::uint32_t v = api::read<std::uint32_t>(probe->data);
    api::write<std::uint32_t>(probe->data, v + 1);
    addr_t scratch = api::malloc(64);
    api::write<std::uint64_t>(scratch, v);
    api::free(scratch);
}

void
reuseMain(void* p)
{
    auto* probe = static_cast<SharedProbe*>(p);
    probe->data = api::malloc(4);
    api::write<std::uint32_t>(probe->data, 0);
    // More children than spare tiles: every child reuses the same tile
    // slot, ordered purely by the exit -> join -> spawn chain.
    for (int i = 0; i < 6; ++i) {
        tile_id_t t = api::threadSpawn(&reuseChild, p);
        api::threadJoin(t);
    }
    probe->result = api::read<std::uint32_t>(probe->data);
    api::free(probe->data);
}

TEST(RaceSim, TileReuseThroughJoinIsClean)
{
    Config cfg = simConfig("lax", 2);
    Simulator sim(cfg);
    SharedProbe probe;
    sim.run(&reuseMain, &probe);
    race::Detector& det = *sim.raceDetector();
    EXPECT_EQ(probe.result, 6u);
    EXPECT_EQ(det.raceCount(), 0)
        << (det.records().empty()
                ? std::string()
                : det.describe(det.records()[0]));
}

TEST(RaceSim, WorkloadRunsClean)
{
    const workloads::WorkloadInfo& w = workloads::findWorkload("fft");
    workloads::WorkloadParams p = w.defaults;
    p.size = 256;
    p.threads = 4;
    Config cfg = simConfig("lax_barrier", 8);
    Simulator sim(cfg);
    workloads::SimRunResult r = workloads::runSim(sim, w, p);
    race::Detector& det = *sim.raceDetector();
    EXPECT_GT(r.simulatedCycles, 0u);
    EXPECT_EQ(det.raceCount(), 0)
        << (det.records().empty()
                ? std::string()
                : det.describe(det.records()[0]));
    EXPECT_GT(det.wordsChecked(), 0);
}

// ------------------------------------------------ integration: fuzz corpus

TEST(RaceFuzz, ArmedRunsAreSilentAndFingerprintNeutral)
{
    // The race detector is a pure observer: arming it must neither
    // report anything on the race-free fuzz corpus nor perturb the
    // differential fingerprint.
    for (std::uint64_t seed : {7ull, 21ull}) {
        check::FuzzProgram prog = check::FuzzProgram::generate(seed);
        check::ConfigPoint base = check::baselinePoint();
        check::ConfigPoint armed = base;
        armed.race = true;
        armed.name = "baseline_race";
        check::FuzzResult off = check::runFuzzProgram(
            prog, check::makeFuzzConfig(base, seed));
        check::FuzzResult on = check::runFuzzProgram(
            prog, check::makeFuzzConfig(armed, seed));
        EXPECT_TRUE(off.violations.empty());
        EXPECT_TRUE(on.violations.empty())
            << "seed " << seed << ": " << on.violations.front();
        EXPECT_EQ(off.fingerprint, on.fingerprint) << "seed " << seed;
    }
}

} // namespace
} // namespace graphite
