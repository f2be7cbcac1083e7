/**
 * @file
 * Checkpoint/restore test suite (src/snapshot):
 *
 *  - SnapshotStream:     writer/reader and Archive round trips and
 *                        every malformed-input failure mode
 *                        (truncation, corruption, bad magic, version
 *                        mismatch, trailing bytes, config drift).
 *  - SnapshotCheckpoint: whole-simulator save→restore→save byte
 *                        identity, config-drift rejection, file I/O,
 *                        and fork-isolated no-crash restores of
 *                        deliberately damaged checkpoints.
 *  - SnapshotSmoke:      the fingerprint differential — a run
 *                        checkpointed mid-program and resumed in a
 *                        fresh Simulator must reproduce the
 *                        uninterrupted run's fingerprint across config
 *                        cells, host/threads widths and scheduler
 *                        modes (cycle-exact under the deterministic
 *                        scheduler). Reused by the snapshot_smoke
 *                        ctest entry.
 *  - SnapshotReentry:    process-global re-entrancy — two sequential
 *                        Simulators and two run() calls on one.
 *  - GoldenSnapshot:     committed on-disk fixture guarding the format
 *                        (any layout change must bump FORMAT_VERSION
 *                        and regenerate via DISABLED_RegenerateGolden).
 *  - SnapshotFormat:     the FNV-1a of deterministic checkpoints across
 *                        config cells, so a serialization refactor that
 *                        moves one byte of any component fails here.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "common/log.h"
#include "core/api.h"
#include "core/simulator.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"

namespace graphite
{
namespace
{

using check::ConfigPoint;
using check::FuzzProgram;
using check::FuzzResult;
using check::RunOptions;

RunOptions
quickOpts()
{
    RunOptions opt;
    opt.watcherPeriodUs = 100;
    opt.validateEvery = 4;
    return opt;
}

/** First seed >= @p seed whose program has >= 2 rounds and >= 2
 *  threads, so a mid-program split is meaningful. */
FuzzProgram
pickProgram(std::uint64_t seed)
{
    for (;; ++seed) {
        FuzzProgram p = FuzzProgram::generate(seed);
        if (p.rounds.size() >= 2 && p.activeThreads() >= 2)
            return p;
    }
}

std::size_t
midSplit(const FuzzProgram& p)
{
    return std::max<std::size_t>(1, p.rounds.size() / 2);
}

/** Fuzz config with the snapshot-orthogonal oracles disabled (race,
 *  spans, faults stay off so every divergence is the checkpoint's). */
Config
snapshotCellConfig(const ConfigPoint& pt, std::uint64_t seed,
                   const std::string& sched_mode, int host_threads)
{
    Config cfg = check::makeFuzzConfig(pt, seed);
    cfg.setBool("race/enabled", false);
    cfg.setBool("obs/spans_enabled", false);
    cfg.set("host/scheduler", sched_mode);
    cfg.setInt("host/threads", host_threads);
    return cfg;
}

// ------------------------------------------------------------- the stream

TEST(SnapshotStream, ScalarAndContainerRoundTrip)
{
    snapshot::SnapshotWriter w;
    w.beginSection(snapshot::sectionTag("TST "));
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.b(true);
    w.b(false);
    w.str("hello snapshot");
    const std::uint8_t raw[] = {1, 2, 3, 4, 5};
    w.bytes(raw, sizeof raw);
    std::vector<std::uint8_t> blob = w.finish();

    snapshot::SnapshotReader r(blob);
    EXPECT_EQ(r.version(), snapshot::FORMAT_VERSION);
    r.expectSection(snapshot::sectionTag("TST "), "test");
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "hello snapshot");
    std::uint8_t out[sizeof raw] = {};
    r.bytesInto(out, sizeof out);
    EXPECT_EQ(std::memcmp(out, raw, sizeof raw), 0);
    EXPECT_NO_THROW(r.expectEnd());
}

enum class Shade : std::uint8_t
{
    Light = 1,
    Dark = 7
};

/** One field of every kind an Archive moves. */
struct EveryKind
{
    std::uint8_t small = 0;
    std::uint32_t mid = 0;
    std::uint64_t big = 0;
    std::int32_t tile = 0;
    bool flag = false;
    Shade shade = Shade::Light;
    std::atomic<std::uint64_t> counter{0};
    std::uint8_t fixed[4] = {};
    std::vector<std::uint8_t> run;
    std::string text;
    std::unordered_map<std::uint64_t, std::int32_t> owners;
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::uint32_t> versions;

    void
    serialize(snapshot::Archive& ar)
    {
        ar.section(snapshot::sectionTag("TST "), "test");
        ar.expect<std::uint32_t>(8, "tile count");
        ar.expect(std::string("dir_msi"), "coherence protocol");
        ar.u8(small);
        ar.u32(mid);
        ar.u64(big);
        ar.i64(tile);
        ar.b(flag);
        ar.u8(shade);
        ar.u64(counter);
        ar.bytes(fixed, sizeof fixed);
        ar.bytes(run);
        ar.str(text);
        ar.sorted(owners, [&](std::uint64_t& addr, std::int32_t& owner) {
            ar.u64(addr);
            ar.i64(owner);
        });
        ar.sorted(seen, [&](std::uint64_t& addr) { ar.u64(addr); });
        ar.seq<std::uint32_t>(versions);
    }
};

TEST(SnapshotStream, ArchiveRoundTripsEveryFieldKind)
{
    EveryKind in;
    in.small = 0xAB;
    in.mid = 0xDEADBEEFu;
    in.big = 0x0123456789ABCDEFull;
    in.tile = -3;
    in.flag = true;
    in.shade = Shade::Dark;
    in.counter.store(77);
    const std::uint8_t fixed[] = {9, 8, 7, 6};
    std::memcpy(in.fixed, fixed, sizeof fixed);
    in.run = {1, 2, 3};
    in.text = "hello";
    in.owners = {{0x40, 2}, {0x80, -1}};
    in.seen = {0x1000, 0x40};
    in.versions = {5, 6, 7};

    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    EXPECT_FALSE(save.loading());
    in.serialize(save);
    std::vector<std::uint8_t> blob = w.finish();
    // Every field keeps its wire width: header 8, tag 4, the expected
    // u32 4 and string 8+7, u8 1, u32 4, u64 8, i64 8, bool 1, enum 1,
    // atomic 8, byte runs 8+4 and 8+3, string 8+5, map 8+2*16, set
    // 8+2*8, vector 8+3*4, checksum 8.
    EXPECT_EQ(blob.size(), 8u + 4 + 4 + 15 + 1 + 4 + 8 + 8 + 1 + 1 + 8 +
                               12 + 11 + 13 + 40 + 24 + 20 + 8);

    EveryKind out;
    out.run = {42};
    out.owners = {{0x999, 9}};
    out.seen = {0x999};
    out.versions = {1};
    snapshot::SnapshotReader r(blob);
    snapshot::Archive restore(r);
    EXPECT_TRUE(restore.loading());
    out.serialize(restore);
    EXPECT_NO_THROW(r.expectEnd());
    EXPECT_EQ(out.small, in.small);
    EXPECT_EQ(out.mid, in.mid);
    EXPECT_EQ(out.big, in.big);
    EXPECT_EQ(out.tile, in.tile);
    EXPECT_EQ(out.flag, in.flag);
    EXPECT_EQ(out.shade, in.shade);
    EXPECT_EQ(out.counter.load(), in.counter.load());
    EXPECT_EQ(std::memcmp(out.fixed, in.fixed, sizeof fixed), 0);
    EXPECT_EQ(out.run, in.run);
    EXPECT_EQ(out.text, in.text);
    EXPECT_EQ(out.owners, in.owners);
    EXPECT_EQ(out.seen, in.seen);
    EXPECT_EQ(out.versions, in.versions);

    // A restore checks what the configuration fixes, naming the field.
    auto restoreExpecting = [&](auto&& expect) {
        snapshot::SnapshotReader again(blob);
        snapshot::Archive ar(again);
        ar.section(snapshot::sectionTag("TST "), "test");
        expect(ar);
    };
    try {
        restoreExpecting([](snapshot::Archive& ar) {
            ar.expect<std::uint32_t>(16, "tile count");
        });
        FAIL() << "tile count drift accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "snapshot: tile count mismatch (snapshot 8, "
                  "configured 16)");
    }
    try {
        restoreExpecting([](snapshot::Archive& ar) {
            ar.expect<std::uint32_t>(8, "tile count");
            ar.expect(std::string("dir_mesi"), "coherence protocol");
        });
        FAIL() << "protocol drift accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "snapshot: coherence protocol mismatch (snapshot "
                  "'dir_msi', configured 'dir_mesi')");
    }
}

TEST(SnapshotStream, ArchiveRejectsACountTheStreamCannotHold)
{
    snapshot::SnapshotWriter w;
    w.u64(~std::uint64_t{0} / 4); // element count
    w.u32(1);
    snapshot::SnapshotReader r(w.finish());
    snapshot::Archive restore(r);
    std::vector<std::uint32_t> versions;
    EXPECT_THROW(restore.seq<std::uint32_t>(versions),
                 snapshot::SnapshotError);
    EXPECT_TRUE(versions.empty());
}

TEST(SnapshotStream, ArchiveWritesSortedKeysInAscendingOrder)
{
    std::unordered_map<std::uint64_t, std::uint64_t> entries;
    for (std::uint64_t key = 50; key > 0; key -= 10)
        entries.emplace(key, key * 3);
    snapshot::SnapshotWriter w;
    snapshot::Archive save(w);
    save.sorted(entries, [&](std::uint64_t& key, std::uint64_t& value) {
        save.u64(key);
        save.u64(value);
    });
    snapshot::SnapshotReader r(w.finish());
    EXPECT_EQ(r.u64(), 5u);
    for (std::uint64_t key = 10; key <= 50; key += 10) {
        EXPECT_EQ(r.u64(), key);
        EXPECT_EQ(r.u64(), key * 3);
    }
    EXPECT_NO_THROW(r.expectEnd());
}

std::vector<std::uint8_t>
sealedTestBlob()
{
    snapshot::SnapshotWriter w;
    w.beginSection(snapshot::sectionTag("TST "));
    for (std::uint64_t i = 0; i < 32; ++i)
        w.u64(i * 0x9E3779B97F4A7C15ull);
    return w.finish();
}

/** Re-seal @p blob's checksum trailer after payload surgery. */
void
reseal(std::vector<std::uint8_t>& blob)
{
    std::uint64_t sum =
        snapshot::fnv1a(blob.data(), blob.size() - 8);
    std::memcpy(blob.data() + blob.size() - 8, &sum, sizeof sum);
}

TEST(SnapshotStream, TruncationIsACleanError)
{
    std::vector<std::uint8_t> blob = sealedTestBlob();
    for (std::size_t keep : {std::size_t{0}, std::size_t{5},
                             std::size_t{15}, blob.size() - 1}) {
        std::vector<std::uint8_t> cut(blob.begin(),
                                      blob.begin() +
                                          static_cast<std::ptrdiff_t>(keep));
        EXPECT_THROW(snapshot::SnapshotReader r(std::move(cut)),
                     snapshot::SnapshotError)
            << "kept " << keep << " bytes";
    }
}

TEST(SnapshotStream, CorruptionFailsTheChecksum)
{
    std::vector<std::uint8_t> blob = sealedTestBlob();
    blob[blob.size() / 2] ^= 0x40;
    try {
        snapshot::SnapshotReader r(std::move(blob));
        FAIL() << "corrupted stream accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos);
    }
}

TEST(SnapshotStream, BadMagicIsRejected)
{
    std::vector<std::uint8_t> blob = sealedTestBlob();
    blob[0] = 'X';
    reseal(blob);
    try {
        snapshot::SnapshotReader r(std::move(blob));
        FAIL() << "bad magic accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
}

TEST(SnapshotStream, FutureVersionIsRejected)
{
    std::vector<std::uint8_t> blob = sealedTestBlob();
    std::uint32_t future = snapshot::FORMAT_VERSION + 1;
    std::memcpy(blob.data() + 4, &future, sizeof future);
    reseal(blob);
    try {
        snapshot::SnapshotReader r(std::move(blob));
        FAIL() << "future version accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(SnapshotStream, WrongSectionAndTrailingBytesAreDetected)
{
    std::vector<std::uint8_t> blob = sealedTestBlob();
    snapshot::SnapshotReader r(std::move(blob));
    EXPECT_THROW(r.expectSection(snapshot::sectionTag("ZZZ "), "other"),
                 snapshot::SnapshotError);
    EXPECT_THROW(r.expectEnd(), snapshot::SnapshotError);
}

// -------------------------------------------------- whole-sim checkpoints

TEST(SnapshotCheckpoint, SaveRestoreSaveIsByteIdentical)
{
    FuzzProgram prog = pickProgram(21);
    Config cfg = snapshotCellConfig(check::baselinePoint(), 21,
                                    "free_running", 2);
    std::vector<std::uint8_t> ckpt = check::checkpointFuzzProgram(
        prog, cfg, midSplit(prog), quickOpts());
    ASSERT_FALSE(ckpt.empty());
    // resumeFuzzProgram re-saves the restored state internally and
    // reports any byte difference as a violation.
    FuzzResult res = check::resumeFuzzProgram(prog, cfg, midSplit(prog),
                                              ckpt, quickOpts());
    EXPECT_TRUE(res.violations.empty()) << res.violations.front();
    EXPECT_NE(res.fingerprint, 0u);
}

TEST(SnapshotCheckpoint, ConfigDriftIsRejectedWithNamedErrors)
{
    FuzzProgram prog = pickProgram(22);
    Config cfg = snapshotCellConfig(check::baselinePoint(), 22,
                                    "free_running", 1);
    std::vector<std::uint8_t> ckpt = check::checkpointFuzzProgram(
        prog, cfg, midSplit(prog), quickOpts());

    struct Drift
    {
        const char* key;
        const char* value;
        const char* expect;
    };
    const Drift drifts[] = {
        {"general/total_tiles", "16", "tile count"},
        {"sync/model", "lax_p2p", "sync model"},
        {"caching_protocol/type", "dir_mesi", "protocol"},
    };
    for (const Drift& d : drifts) {
        Config bad = cfg;
        bad.set(d.key, d.value);
        Simulator sim(bad);
        try {
            snapshot::restoreCheckpoint(sim, ckpt);
            FAIL() << d.key << " drift accepted";
        } catch (const snapshot::SnapshotError& e) {
            EXPECT_NE(std::string(e.what()).find(d.expect),
                      std::string::npos)
                << d.key << " error: " << e.what();
        }
    }
}

TEST(SnapshotCheckpoint, FileRoundTripAndMissingFile)
{
    FuzzProgram prog = pickProgram(23);
    Config cfg = snapshotCellConfig(check::baselinePoint(), 23,
                                    "free_running", 1);
    std::string path = ::testing::TempDir() + "graphite_ckpt_" +
                       std::to_string(::getpid()) + ".snap";

    std::vector<std::uint8_t> ckpt = check::checkpointFuzzProgram(
        prog, cfg, midSplit(prog), quickOpts());
    snapshot::writeFile(path, ckpt);
    EXPECT_EQ(snapshot::readFile(path), ckpt);
    std::remove(path.c_str());

    Simulator sim(cfg);
    EXPECT_THROW(snapshot::restoreCheckpointFile(
                     sim, path + ".does_not_exist"),
                 snapshot::SnapshotError);
}

/**
 * Fork-isolated no-crash drill: damage a real checkpoint in various
 * ways and restore it in a child process. The child must exit cleanly
 * — either the restore succeeds (the damaged byte was inert) or it
 * throws a typed error; any signal/abort fails the test.
 */
void
restoreDamagedInChild(const Config& cfg,
                      std::vector<std::uint8_t> damaged)
{
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        try {
            Simulator sim(cfg);
            snapshot::restoreCheckpoint(sim, damaged);
            std::_Exit(0); // inert damage: restore succeeded
        } catch (const snapshot::SnapshotError&) {
            std::_Exit(0); // clean typed failure
        } catch (...) {
            std::_Exit(2); // wrong exception type
        }
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child crashed on damaged input";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SnapshotCheckpoint, ForkIsolatedDamagedRestoresNeverCrash)
{
    FuzzProgram prog = pickProgram(24);
    Config cfg = snapshotCellConfig(check::baselinePoint(), 24,
                                    "free_running", 1);
    std::vector<std::uint8_t> ckpt = check::checkpointFuzzProgram(
        prog, cfg, midSplit(prog), quickOpts());

    // Unsealed damage: checksum catches it.
    {
        std::vector<std::uint8_t> d = ckpt;
        d[d.size() / 3] ^= 0xFF;
        restoreDamagedInChild(cfg, std::move(d));
    }
    // Truncations, including mid-header.
    for (std::size_t keep :
         {std::size_t{6}, ckpt.size() / 2, ckpt.size() - 9}) {
        restoreDamagedInChild(
            cfg, std::vector<std::uint8_t>(
                     ckpt.begin(),
                     ckpt.begin() + static_cast<std::ptrdiff_t>(keep)));
    }
    // Re-sealed damage: checksum passes, the typed layout/size checks
    // inside the component serialize() methods must hold the line.
    for (std::size_t pos = 13; pos < ckpt.size() - 8;
         pos += ckpt.size() / 7) {
        std::vector<std::uint8_t> d = ckpt;
        d[pos] ^= 0x80;
        reseal(d);
        restoreDamagedInChild(cfg, std::move(d));
    }
}

// -------------------------------------------------- the fuzz differential

/** Fingerprint (and under the deterministic scheduler, cycle) equality
 *  of uninterrupted vs paired-pause vs through-checkpoint execution. */
void
expectResumeEquivalence(const FuzzProgram& prog, std::uint64_t seed,
                        const ConfigPoint& pt,
                        const std::string& sched_mode, int host_threads)
{
    SCOPED_TRACE(pt.name + "/" + sched_mode + "/t" +
                 std::to_string(host_threads));
    Config cfg =
        snapshotCellConfig(pt, seed, sched_mode, host_threads);
    std::size_t split = midSplit(prog);

    FuzzResult plain = check::runFuzzProgram(prog, cfg, quickOpts());
    FuzzResult paired = check::runFuzzProgramSegmented(
        prog, cfg, split, /*through_snapshot=*/false, quickOpts());
    FuzzResult snap = check::runFuzzProgramSegmented(
        prog, cfg, split, /*through_snapshot=*/true, quickOpts());

    EXPECT_TRUE(plain.violations.empty()) << plain.violations.front();
    EXPECT_TRUE(paired.violations.empty()) << paired.violations.front();
    EXPECT_TRUE(snap.violations.empty()) << snap.violations.front();

    EXPECT_EQ(paired.fingerprint, plain.fingerprint);
    EXPECT_EQ(snap.fingerprint, plain.fingerprint);
    if (sched_mode == "deterministic") {
        EXPECT_EQ(snap.simulatedCycles, paired.simulatedCycles);
    }
}

TEST(SnapshotSmoke, ResumeMatchesAcrossHostWidthsAndSchedulers)
{
    const std::uint64_t seed = 31;
    FuzzProgram prog = pickProgram(seed);
    ConfigPoint pt = check::baselinePoint();
    pt.name = "baseline";
    for (const char* mode : {"free_running", "deterministic"})
        for (int threads : {1, 2, 4})
            expectResumeEquivalence(prog, seed, pt, mode, threads);
}

TEST(SnapshotSmoke, ResumeMatchesAcrossConfigCells)
{
    const std::uint64_t seed = 32;
    FuzzProgram prog = pickProgram(seed);

    ConfigPoint barrier_cell;
    barrier_cell.name = "p3_lax_barrier";
    barrier_cell.processes = 3;
    barrier_cell.syncModel = "lax_barrier";

    ConfigPoint p2p_cell;
    p2p_cell.name = "p1_lax_p2p_limited_l32";
    p2p_cell.syncModel = "lax_p2p";
    p2p_cell.slack = 2000;
    p2p_cell.directoryType = "limited_no_broadcast";
    p2p_cell.lineSize = 32;

    expectResumeEquivalence(prog, seed, barrier_cell, "free_running", 2);
    expectResumeEquivalence(prog, seed, barrier_cell, "deterministic", 2);
    expectResumeEquivalence(prog, seed, p2p_cell, "deterministic", 4);
}

// ------------------------------------------------------- pinned bytes

/** A config cell whose checkpoint bytes SnapshotFormat pins. */
struct PinnedCell
{
    ConfigPoint point;
    /** Keys set on top of the fuzz config. */
    std::vector<std::pair<std::string, std::string>> sets;
};

std::vector<PinnedCell>
pinnedCells()
{
    std::vector<PinnedCell> cells(6);
    cells[0].point = check::baselinePoint();
    cells[0].point.name = "baseline";

    cells[1].point.name = "p3_lax_barrier";
    cells[1].point.processes = 3;
    cells[1].point.syncModel = "lax_barrier";

    cells[2].point.name = "lax_p2p_limited_l32";
    cells[2].point.syncModel = "lax_p2p";
    cells[2].point.slack = 2000;
    cells[2].point.directoryType = "limited_no_broadcast";
    cells[2].point.lineSize = 32;

    cells[3].point.name = "mesi_limitless";
    cells[3].point.protocol = "dir_mesi";
    cells[3].point.directoryType = "limitless";

    cells[4].point.name = "t64";
    cells[4].point.tiles = 64;

    cells[5].point.name = "no_l1_hop_no_dram_queue";
    cells[5].sets = {{"perf_model/l1_icache/enabled", "false"},
                     {"perf_model/l1_dcache/enabled", "false"},
                     {"network/memory_model", "emesh_hop"},
                     {"perf_model/dram/queue_model_enabled", "false"}};
    return cells;
}

TEST(SnapshotFormat, CheckpointBytesArePinned)
{
    // FNV-1a of each cell's checkpoint under the deterministic
    // scheduler on one host thread. A change that moves a byte must
    // bump FORMAT_VERSION and re-record these from the failures.
    struct Pin
    {
        int cell;
        std::uint64_t seed;
        std::uint64_t fnv;
    };
    const Pin pins[] = {
        {0, 41, 1087659555733461810ull},
        {0, 97, 1128927661009525863ull},
        {1, 41, 17001476408226335974ull},
        {1, 97, 16657334824143584776ull},
        {2, 41, 2532692611677194666ull},
        {2, 97, 3760455763748443777ull},
        {3, 41, 11732174318381180111ull},
        {3, 97, 12831740432325740281ull},
        {4, 41, 6792162497065823972ull},
        {4, 97, 11533540191824918510ull},
        {5, 41, 12327327719547450726ull},
        {5, 97, 13022091866816774609ull},
    };
    const std::vector<PinnedCell> cells = pinnedCells();
    for (const Pin& pin : pins) {
        const PinnedCell& cell = cells[static_cast<size_t>(pin.cell)];
        SCOPED_TRACE(cell.point.name + " seed " +
                     std::to_string(pin.seed));
        Config cfg = snapshotCellConfig(cell.point, pin.seed,
                                        "deterministic", 1);
        for (const auto& [key, value] : cell.sets)
            cfg.set(key, value);
        FuzzProgram prog = pickProgram(pin.seed);
        std::vector<std::uint8_t> ckpt = check::checkpointFuzzProgram(
            prog, cfg, midSplit(prog), quickOpts());
        EXPECT_EQ(check::checkpointFuzzProgram(prog, cfg, midSplit(prog),
                                               quickOpts()),
                  ckpt)
            << "the checkpoint does not repeat";
        EXPECT_EQ(snapshot::fnv1a(ckpt.data(), ckpt.size()), pin.fnv)
            << ckpt.size() << " bytes";
    }
}

// ------------------------------------------------------------- re-entry

struct ReentryArgs
{
    int iters = 40;
    std::uint64_t sum = 0;
    cycle_t cycles = 0;
};

void
reentryWorker(void* p)
{
    auto* a = static_cast<ReentryArgs*>(p);
    addr_t buf = api::malloc(256);
    for (int i = 0; i < a->iters; ++i)
        api::write<std::uint32_t>(buf + (i % 64) * 4,
                                  static_cast<std::uint32_t>(i * 2654435761u));
    std::uint64_t s = 0;
    for (int i = 0; i < 64; ++i)
        s += api::read<std::uint32_t>(buf + i * 4);
    api::free(buf);
    a->sum = s;
}

void
reentryMain(void* p)
{
    auto* a = static_cast<ReentryArgs*>(p);
    tile_id_t t = api::threadSpawn(&reentryWorker, p);
    api::threadJoin(t);
    a->cycles = api::cycle();
}

Config
reentryConfig()
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", 4);
    return cfg;
}

TEST(SnapshotReentry, TwoSequentialSimulatorsProduceEqualResults)
{
    ReentryArgs a, b;
    {
        Simulator sim(reentryConfig());
        sim.run(&reentryMain, &a);
    }
    {
        Simulator sim(reentryConfig());
        sim.run(&reentryMain, &b);
    }
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_GT(a.cycles, 0u);
}

TEST(SnapshotReentry, TwoRunsOnOneSimulatorContinueTheClock)
{
    Simulator sim(reentryConfig());
    ReentryArgs a, b;
    SimulationSummary s1 = sim.run(&reentryMain, &a);
    SimulationSummary s2 = sim.run(&reentryMain, &b);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_GT(s1.simulatedCycles, 0u);
    // Tile clocks persist across run() calls: the second segment
    // continues where the first stopped.
    EXPECT_GT(s2.simulatedCycles, s1.simulatedCycles);
    EXPECT_EQ(sim.simulatedTime(), s2.simulatedCycles);
}

// ------------------------------------------------------- golden fixture

/** Frozen generation parameters of the committed fixture. Changing any
 *  of these requires regenerating the golden (DISABLED_RegenerateGolden)
 *  and updating GOLDEN_FINGERPRINT below. */
constexpr std::uint64_t GOLDEN_SEED = 97;
constexpr std::uint32_t GOLDEN_VERSION = 3;

FuzzProgram
goldenProgram()
{
    return pickProgram(GOLDEN_SEED);
}

Config
goldenConfig()
{
    // Deterministic scheduler: the resumed run is a pure function of
    // the fixture, so its fingerprint is a compile-time constant here.
    return snapshotCellConfig(check::baselinePoint(), GOLDEN_SEED,
                              "deterministic", 2);
}

/** Expected fingerprint of resuming the committed fixture; printed by
 *  DISABLED_RegenerateGolden. */
constexpr std::uint64_t GOLDEN_FINGERPRINT = 16226333569779473238ull;

TEST(GoldenSnapshot, CommittedFixtureRestoresAndMatches)
{
    if (snapshot::FORMAT_VERSION != GOLDEN_VERSION) {
        // The format moved on: the committed fixture must be rejected
        // up front, then regenerated (and this constant updated) via
        // DISABLED_RegenerateGolden.
        EXPECT_THROW(snapshot::SnapshotReader r(snapshot::readFile(
                         GRAPHITE_GOLDEN_SNAPSHOT)),
                     snapshot::SnapshotError);
        GTEST_SKIP() << "FORMAT_VERSION bumped — regenerate the golden "
                        "fixture with DISABLED_RegenerateGolden";
    }
    FuzzProgram prog = goldenProgram();
    std::vector<std::uint8_t> ckpt =
        snapshot::readFile(GRAPHITE_GOLDEN_SNAPSHOT);
    FuzzResult res = check::resumeFuzzProgram(
        prog, goldenConfig(), midSplit(prog), ckpt, quickOpts());
    EXPECT_TRUE(res.violations.empty()) << res.violations.front();
    EXPECT_EQ(res.fingerprint, GOLDEN_FINGERPRINT)
        << "on-disk snapshot layout drifted without a FORMAT_VERSION "
           "bump (or the golden workload changed)";
}

TEST(GoldenSnapshot, DISABLED_RegenerateGolden)
{
    FuzzProgram prog = goldenProgram();
    std::vector<std::uint8_t> ckpt = check::checkpointFuzzProgram(
        prog, goldenConfig(), midSplit(prog), quickOpts());
    snapshot::writeFile(GRAPHITE_GOLDEN_SNAPSHOT, ckpt);
    FuzzResult res = check::resumeFuzzProgram(
        prog, goldenConfig(), midSplit(prog), ckpt, quickOpts());
    ASSERT_TRUE(res.violations.empty()) << res.violations.front();
    printf("golden fixture: %zu bytes, fingerprint %llu\n", ckpt.size(),
           static_cast<unsigned long long>(res.fingerprint));
}

} // namespace
} // namespace graphite
