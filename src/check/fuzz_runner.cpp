#include "check/fuzz_runner.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "check/invariants.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strfmt.h"
#include "core/api.h"
#include "core/simulator.h"
#include "mem/address_space.h"
#include "obs/span/span_sink.h"
#include "race/detector.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"

namespace graphite
{
namespace check
{

namespace
{

constexpr std::uint64_t FNV_OFFSET = 1469598103934665603ull;
constexpr std::uint64_t FNV_PRIME = 1099511628211ull;

/** FNV-1a over a stream of 64-bit values. */
struct Fold
{
    std::uint64_t h = FNV_OFFSET;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= FNV_PRIME;
        }
    }
};

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

struct HostShared
{
    const FuzzProgram* prog = nullptr;
    addr_t privBase = 0;
    addr_t lockBase = 0;
    addr_t ctrBase = 0;
    addr_t casBase = 0;
    addr_t mutexBase = 0;
    addr_t barrier = 0;
    std::vector<tile_id_t> tiles;    ///< tile of thread idx
    std::vector<int> enabledIdx;     ///< enabled thread idxs, ascending
    std::vector<std::uint64_t> folds; ///< carried FNV state per thread
    std::uint64_t finalFingerprint = 0;

    /** @name Segmented execution (checkpoint/resume differential)
     * fuzzMain runs rounds [firstRound, min(lastRound, rounds.size())).
     * layoutReady marks that target memory is already allocated and
     * initialized — set after the first segment, or by unpacking a
     * checkpoint's application blob (the restored target memory image
     * makes re-initialization both unnecessary and wrong). @{ */
    std::uint64_t firstRound = 0;
    std::uint64_t lastRound = ~0ull;
    bool layoutReady = false;
    /** @} */
};

/** Persist the workload bookkeeping across a checkpoint boundary. */
std::vector<std::uint8_t>
packAppBlob(const HostShared& sh)
{
    snapshot::SnapshotWriter w;
    w.u64(sh.privBase);
    w.u64(sh.lockBase);
    w.u64(sh.ctrBase);
    w.u64(sh.casBase);
    w.u64(sh.mutexBase);
    w.u64(sh.barrier);
    w.u64(sh.folds.size());
    for (std::uint64_t f : sh.folds)
        w.u64(f);
    return w.finish();
}

void
unpackAppBlob(const std::vector<std::uint8_t>& blob, HostShared& sh)
{
    snapshot::SnapshotReader r(blob);
    sh.privBase = r.u64();
    sh.lockBase = r.u64();
    sh.ctrBase = r.u64();
    sh.casBase = r.u64();
    sh.mutexBase = r.u64();
    sh.barrier = r.u64();
    std::uint64_t n_folds = r.u64();
    if (n_folds > 1024)
        throw snapshot::SnapshotError(
            strfmt("snapshot: implausible fold count {}", n_folds));
    sh.folds.resize(n_folds);
    for (std::uint64_t& f : sh.folds)
        f = r.u64();
    r.expectEnd();
    sh.layoutReady = true;
}

struct ThreadArg
{
    HostShared* sh = nullptr;
    int idx = 0;
};

struct ChildArg
{
    std::uint64_t seed = 0;
    std::uint64_t round = 0;
    std::uint64_t fold = 0;
};

/** Transient respawn child: private scratch workload. */
void
childMain(void* p)
{
    ChildArg& c = *static_cast<ChildArg*>(p);
    Rng rng(mix(c.seed, 0x5EED0000 + c.round));
    Fold f;
    std::uint32_t sz = 64 + static_cast<std::uint32_t>(rng.nextBounded(193));
    addr_t a = api::malloc(sz);
    for (std::uint32_t off = 0; off + 4 <= sz; off += 4)
        api::write<std::uint32_t>(a + off,
                                  static_cast<std::uint32_t>(rng.next()));
    for (int k = 0; k < 8; ++k) {
        std::uint32_t w =
            static_cast<std::uint32_t>(rng.nextBounded(sz / 4));
        f.add(api::read<std::uint32_t>(a + w * 4));
    }
    api::free(a);
    c.fold = f.h;
}

void
doAction(HostShared& sh, int idx, int rank, int nact,
         const FuzzAction& act, Fold& fold)
{
    const FuzzProgram& p = *sh.prog;
    Rng rng(mix(act.valueSeed, 0xAC7 + idx));
    switch (act.kind) {
      case ActionKind::PrivateRw: {
        // Disjoint per-thread slices of one region: no data races, but
        // adjacent slices share lines (heavy false sharing).
        std::uint32_t w_per = p.regionWords;
        std::uint32_t lo = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(w_per) * rank / nact);
        std::uint32_t hi = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(w_per) * (rank + 1) / nact);
        if (hi <= lo)
            hi = lo + 1;
        addr_t base =
            sh.privBase + static_cast<addr_t>(act.region) * w_per * 4;
        for (std::uint32_t k = 0; k < act.ops; ++k) {
            std::uint32_t w =
                lo + static_cast<std::uint32_t>(rng.nextBounded(hi - lo));
            addr_t a = base + w * 4;
            std::uint32_t v = static_cast<std::uint32_t>(rng.next());
            api::write<std::uint32_t>(a, v);
            fold.add(api::read<std::uint32_t>(a));
        }
        break;
      }
      case ActionKind::SharedAtomic: {
        addr_t a = sh.ctrBase + act.counter * 8;
        // Warm the L1 with a plain read so atomics and plain copies of
        // the line coexist; the value is interleaving-dependent, so it
        // is NOT folded.
        (void)api::read<std::uint64_t>(a);
        for (std::uint32_t k = 0; k < act.ops; ++k)
            api::atomicAdd64(
                a, static_cast<std::int64_t>(rng.nextBounded(1000) + 1));
        break;
      }
      case ActionKind::CasAccumulate: {
        addr_t a = sh.casBase + act.counter * 4;
        for (std::uint32_t k = 0; k < act.ops; ++k) {
            std::uint32_t d =
                static_cast<std::uint32_t>(rng.nextBounded(255)) + 1;
            for (;;) {
                std::uint32_t old = api::atomicAdd32(a, 0);
                if (api::atomicCas32(a, old, old + d) == old)
                    break;
            }
        }
        break;
      }
      case ActionKind::MutexSection: {
        std::uint32_t r = act.region;
        addr_t m = sh.mutexBase + (r % p.mutexes) * api::MUTEX_BYTES;
        addr_t base =
            sh.lockBase + static_cast<addr_t>(r) * p.regionWords * 4;
        api::mutexLock(m);
        for (std::uint32_t k = 0; k < act.ops; ++k) {
            std::uint32_t w =
                static_cast<std::uint32_t>(rng.nextBounded(p.regionWords));
            addr_t a = base + w * 4;
            std::uint32_t d =
                static_cast<std::uint32_t>(rng.nextBounded(4096));
            api::write<std::uint32_t>(a,
                                      api::read<std::uint32_t>(a) + d);
        }
        api::mutexUnlock(m);
        break;
      }
      case ActionKind::Scratch: {
        std::uint32_t sz =
            16 + static_cast<std::uint32_t>(rng.nextBounded(241));
        addr_t a = api::malloc(sz);
        for (std::uint32_t off = 0; off + 4 <= sz; off += 4)
            api::write<std::uint32_t>(
                a + off, static_cast<std::uint32_t>(rng.next()));
        for (int k = 0; k < 4; ++k) {
            std::uint32_t w =
                static_cast<std::uint32_t>(rng.nextBounded(sz / 4));
            fold.add(api::read<std::uint32_t>(a + w * 4));
        }
        api::free(a);
        break;
      }
      case ActionKind::Compute: {
        api::exec(InstrClass::IntAlu, 1 + rng.nextBounded(40));
        for (std::uint32_t k = 0; k < act.ops; ++k)
            api::branch(0x1000 + (act.valueSeed & 0xfff),
                        rng.nextBounded(2) == 0);
        fold.add(rng.next());
        break;
      }
    }
}

void
runThreadBody(HostShared& sh, int idx)
{
    const FuzzProgram& p = *sh.prog;
    Fold fold;
    fold.h = sh.folds[idx]; // continue the FNV chain across segments
    int nact = static_cast<int>(sh.enabledIdx.size());
    int rank = 0;
    for (int i = 0; i < nact; ++i)
        if (sh.enabledIdx[i] == idx)
            rank = i;

    // Start barrier: guarantees the tile table is complete before any
    // ring round reads it.
    api::barrierWait(sh.barrier);

    const auto first = static_cast<std::size_t>(sh.firstRound);
    const std::size_t last = std::min<std::size_t>(
        p.rounds.size(), static_cast<std::size_t>(sh.lastRound));
    for (std::size_t r = first; r < last; ++r) {
        const FuzzRound& round = p.rounds[r];
        if (!round.enabled)
            continue;
        for (const FuzzAction& act : round.actions[idx])
            if (act.enabled)
                doAction(sh, idx, rank, nact, act, fold);

        if (round.msgRing && nact >= 2) {
            std::uint64_t token = mix(p.seed, (r << 8) ^ idx);
            tile_id_t peer = sh.tiles[sh.enabledIdx[(rank + 1) % nact]];
            api::msgSend(peer, &token, sizeof(token));
            api::Message msg = api::msgRecv();
            std::uint64_t got = 0;
            if (msg.data.size() == sizeof(got))
                std::memcpy(&got, msg.data.data(), sizeof(got));
            fold.add(got);
            fold.add(static_cast<std::uint64_t>(msg.sender));
        }

        if (round.respawn && idx == 0) {
            ChildArg c{p.seed, r, 0};
            tile_id_t t = api::threadSpawn(&childMain, &c);
            api::threadJoin(t);
            fold.add(c.fold);
        }

        if (round.barrierAfter)
            api::barrierWait(sh.barrier);
    }
    sh.folds[idx] = fold.h;
}

void
fuzzThreadMain(void* p)
{
    ThreadArg& arg = *static_cast<ThreadArg*>(p);
    runThreadBody(*arg.sh, arg.idx);
}

void
zeroTarget(addr_t base, std::uint64_t bytes)
{
    std::vector<std::uint8_t> zeros(64, 0);
    for (std::uint64_t off = 0; off < bytes; off += 64)
        api::writeMem(base + off, zeros.data(),
                      std::min<std::uint64_t>(64, bytes - off));
}

void
fuzzMain(void* p)
{
    HostShared& sh = *static_cast<HostShared*>(p);
    const FuzzProgram& prog = *sh.prog;
    std::uint32_t w_bytes = prog.regionWords * 4;
    std::uint64_t sync_bytes =
        prog.mutexes * api::MUTEX_BYTES + api::BARRIER_BYTES;

    sh.enabledIdx.clear();
    for (int t = 0; t < prog.threads; ++t)
        if (prog.threadEnabled[t])
            sh.enabledIdx.push_back(t);

    if (!sh.layoutReady) {
        sh.privBase = api::malloc(prog.privateRegions * w_bytes);
        sh.lockBase = api::malloc(prog.lockedRegions * w_bytes);
        sh.ctrBase = api::malloc(prog.counters * 8);
        sh.casBase = api::malloc(prog.casCounters * 4);
        zeroTarget(sh.privBase, prog.privateRegions * w_bytes);
        zeroTarget(sh.lockBase, prog.lockedRegions * w_bytes);
        zeroTarget(sh.ctrBase, prog.counters * 8);
        zeroTarget(sh.casBase, prog.casCounters * 4);

        sh.mutexBase = api::mmap(sync_bytes);
        sh.barrier = sh.mutexBase + prog.mutexes * api::MUTEX_BYTES;
        for (std::uint32_t m = 0; m < prog.mutexes; ++m)
            api::mutexInit(sh.mutexBase + m * api::MUTEX_BYTES);
        api::barrierInit(
            sh.barrier, static_cast<std::uint32_t>(sh.enabledIdx.size()));
        sh.folds.assign(prog.threads, FNV_OFFSET);
        sh.layoutReady = true;
    }
    // else: a later segment. Target memory (regions, mutexes, the
    // barrier) either persisted on the live Simulator or was restored
    // from the checkpoint; re-initializing it would diverge from the
    // uninterrupted run.

    sh.tiles.assign(prog.threads, INVALID_TILE_ID);
    sh.tiles[0] = api::tileId();

    std::vector<ThreadArg> args(prog.threads);
    for (int t = 1; t < prog.threads; ++t) {
        if (!prog.threadEnabled[t])
            continue;
        args[t] = ThreadArg{&sh, t};
        sh.tiles[t] = api::threadSpawn(&fuzzThreadMain, &args[t]);
    }

    runThreadBody(sh, 0); // releases the start barrier

    for (int t = 1; t < prog.threads; ++t)
        if (prog.threadEnabled[t])
            api::threadJoin(sh.tiles[t]);

    // Mid-program segment: leave every allocation and the carried folds
    // in place for the next segment (possibly on a restored Simulator).
    if (sh.lastRound < prog.rounds.size())
        return;

    // Final deterministic fold: per-thread results in index order, then
    // the settled shared state.
    Fold f;
    for (int t : sh.enabledIdx)
        f.add(sh.folds[t]);
    for (std::uint32_t c = 0; c < prog.counters; ++c)
        f.add(api::read<std::uint64_t>(sh.ctrBase + c * 8));
    for (std::uint32_t c = 0; c < prog.casCounters; ++c)
        f.add(api::read<std::uint32_t>(sh.casBase + c * 4));
    std::vector<std::uint32_t> words(prog.regionWords);
    auto fold_region = [&](addr_t base) {
        api::readMem(base, words.data(), w_bytes);
        for (std::uint32_t v : words)
            f.add(v);
    };
    for (std::uint32_t r = 0; r < prog.privateRegions; ++r)
        fold_region(sh.privBase + static_cast<addr_t>(r) * w_bytes);
    for (std::uint32_t r = 0; r < prog.lockedRegions; ++r)
        fold_region(sh.lockBase + static_cast<addr_t>(r) * w_bytes);

    api::free(sh.privBase);
    api::free(sh.lockBase);
    api::free(sh.ctrBase);
    api::free(sh.casBase);
    api::munmap(sh.mutexBase, sync_bytes);
    sh.finalFingerprint = f.h;
}

} // namespace

FuzzResult
runFuzzProgram(const FuzzProgram& prog, const Config& cfg,
               const RunOptions& opt)
{
    Simulator sim(cfg);
    GRAPHITE_ASSERT(prog.activeThreads() < sim.totalTiles());

    HostShared sh;
    sh.prog = &prog;

    ClockWatcher watcher(sim, opt.watcherPeriodUs,
                         opt.periodicValidate ? opt.validateEvery : 0);
    watcher.start();
    SimulationSummary summary;
    try {
        summary = sim.run(&fuzzMain, &sh);
    } catch (...) {
        watcher.stop();
        throw;
    }
    watcher.stop();

    FuzzResult res;
    res.fingerprint = sh.finalFingerprint;
    res.violations = watcher.violations();
    for (std::string& v : checkConservation(sim))
        res.violations.push_back(std::move(v));
    // Race-oracle verdicts: generated programs synchronize every shared
    // access, so the detector must stay silent on a healthy stack.
    if (const race::Detector* det = sim.raceDetector())
        for (const race::RaceRecord& r : det->records())
            res.violations.push_back("race: " + det->describe(r));
    res.simulatedCycles = summary.simulatedCycles;
    res.maxSkew = watcher.maxSkew();
    if (const obs::SpanSink* spans = sim.spanSink())
        res.spansCompleted = spans->completedCount();
    if (opt.collectStats)
        res.statsReport = sim.statsReport();
    return res;
}

namespace
{

/** Run rounds [first, last) as one run() segment; append watcher
 *  verdicts to @p res. */
SimulationSummary
runSegment(Simulator& sim, HostShared& sh, std::uint64_t first,
           std::uint64_t last, const RunOptions& opt, FuzzResult& res)
{
    sh.firstRound = first;
    sh.lastRound = last;
    ClockWatcher watcher(sim, opt.watcherPeriodUs,
                         opt.periodicValidate ? opt.validateEvery : 0);
    watcher.start();
    SimulationSummary summary;
    try {
        summary = sim.run(&fuzzMain, &sh);
    } catch (...) {
        watcher.stop();
        throw;
    }
    watcher.stop();
    for (std::string& v : watcher.violations())
        res.violations.push_back(std::move(v));
    res.maxSkew = std::max(res.maxSkew, watcher.maxSkew());
    return summary;
}

/** Post-quiescence verdicts after the program's final segment. */
void
finishResult(Simulator& sim, const HostShared& sh, const RunOptions& opt,
             const SimulationSummary& summary, FuzzResult& res)
{
    res.fingerprint = sh.finalFingerprint;
    for (std::string& v : checkConservation(sim))
        res.violations.push_back(std::move(v));
    if (const race::Detector* det = sim.raceDetector())
        for (const race::RaceRecord& r : det->records())
            res.violations.push_back("race: " + det->describe(r));
    res.simulatedCycles = summary.simulatedCycles;
    if (const obs::SpanSink* spans = sim.spanSink())
        res.spansCompleted = spans->completedCount();
    if (opt.collectStats)
        res.statsReport = sim.statsReport();
}

} // namespace

std::vector<std::uint8_t>
checkpointFuzzProgram(const FuzzProgram& prog, const Config& cfg,
                      std::size_t split_round, const RunOptions& opt,
                      std::vector<std::string>* violations)
{
    HostShared sh;
    sh.prog = &prog;
    FuzzResult scratch;
    Simulator sim(cfg);
    GRAPHITE_ASSERT(prog.activeThreads() < sim.totalTiles());
    runSegment(sim, sh, 0, split_round, opt, scratch);
    if (violations != nullptr)
        for (std::string& v : scratch.violations)
            violations->push_back(std::move(v));
    return snapshot::saveCheckpoint(sim, packAppBlob(sh));
}

FuzzResult
resumeFuzzProgram(const FuzzProgram& prog, const Config& cfg,
                  std::size_t split_round,
                  const std::vector<std::uint8_t>& ckpt,
                  const RunOptions& opt)
{
    HostShared sh;
    sh.prog = &prog;
    FuzzResult res;
    Simulator sim(cfg);
    std::vector<std::uint8_t> blob = snapshot::restoreCheckpoint(sim, ckpt);
    // Save→restore→save identity: re-serializing the freshly restored
    // state must reproduce the checkpoint bit for bit.
    if (snapshot::saveCheckpoint(sim, blob) != ckpt)
        res.violations.push_back(
            "snapshot: save->restore->save is not byte-identical");
    unpackAppBlob(blob, sh);
    finishResult(
        sim, sh, opt,
        runSegment(sim, sh, split_round, prog.rounds.size(), opt, res),
        res);
    return res;
}

FuzzResult
runFuzzProgramSegmented(const FuzzProgram& prog, const Config& cfg,
                        std::size_t split_round, bool through_snapshot,
                        const RunOptions& opt)
{
    GRAPHITE_ASSERT(split_round <= prog.rounds.size());

    if (through_snapshot) {
        // The first Simulator is destroyed with the checkpoint taken;
        // everything segment B needs must come out of the blob.
        std::vector<std::string> violations;
        std::vector<std::uint8_t> ckpt =
            checkpointFuzzProgram(prog, cfg, split_round, opt, &violations);
        FuzzResult res = resumeFuzzProgram(prog, cfg, split_round, ckpt, opt);
        res.violations.insert(res.violations.begin(),
                              std::make_move_iterator(violations.begin()),
                              std::make_move_iterator(violations.end()));
        return res;
    }

    // Paired-schedule reference: the same quiescent pause between the
    // segments, but the Simulator lives on.
    HostShared sh;
    sh.prog = &prog;
    FuzzResult res;
    Simulator sim(cfg);
    GRAPHITE_ASSERT(prog.activeThreads() < sim.totalTiles());
    runSegment(sim, sh, 0, split_round, opt, res);
    finishResult(
        sim, sh, opt,
        runSegment(sim, sh, split_round, prog.rounds.size(), opt, res),
        res);
    return res;
}

ConfigPoint
baselinePoint()
{
    return ConfigPoint{};
}

std::vector<ConfigPoint>
sampleMatrix(std::uint64_t seed, int variants)
{
    std::vector<ConfigPoint> points;
    points.push_back(baselinePoint());

    static const char* SYNCS[] = {"lax", "lax_barrier", "lax_p2p"};
    static const char* DIRS[] = {"full_map", "limited_no_broadcast",
                                 "limitless"};
    static const int PROCS[] = {1, 3, 8};
    static const int LINES[] = {32, 64};
    static const char* PROTOCOLS[] = {"dir_msi", "dir_mesi"};

    Rng rng(mix(seed, 0xC0F16));
    Rng protocol_rng(mix(seed, 0x9F07));
    for (int i = 0; i < variants; ++i) {
        ConfigPoint pt;
        if (i == 0) {
            // Always run across processes, with the race oracle armed
            // so every seed is race-checked, and spans armed so every
            // seed proves span timing-neutrality.
            pt.processes = 3;
            pt.race = true;
            pt.spans = true;
            pt.accuracy = true;
            pt.syncModel = SYNCS[rng.nextBounded(3)];
            pt.directoryType = DIRS[rng.nextBounded(3)];
            pt.lineSize = LINES[rng.nextBounded(2)];
        } else {
            pt.processes = PROCS[rng.nextBounded(3)];
            pt.syncModel = SYNCS[rng.nextBounded(3)];
            pt.directoryType = DIRS[rng.nextBounded(3)];
            pt.lineSize = LINES[rng.nextBounded(2)];
        }
        pt.slack = rng.nextBounded(2) == 0 ? 2000 : 100000;
        pt.protocol = PROTOCOLS[protocol_rng.nextBounded(2)];
        if (i == 1)
            pt.tiles = 64;
        pt.name = strfmt("p{}_{}_{}_l{}{}{}{}{}{}", pt.processes,
                         pt.syncModel, pt.directoryType, pt.lineSize,
                         pt.tiles != 8 ? strfmt("_t{}", pt.tiles) : "",
                         pt.protocol != "dir_msi" ? "_" + pt.protocol
                                                  : "",
                         pt.race ? "_race" : "",
                         pt.spans ? "_span" : "",
                         pt.accuracy ? "_acc" : "");
        points.push_back(std::move(pt));
    }
    return points;
}

Config
makeFuzzConfig(const ConfigPoint& pt, std::uint64_t seed,
               const std::string& fault_mode)
{
    Config cfg = defaultTargetConfig();
    cfg.setInt("general/total_tiles", pt.tiles);
    cfg.setInt("general/num_processes", pt.processes);
    cfg.set("sync/model", pt.syncModel);
    cfg.setInt("sync/quantum", 2000);
    cfg.setInt("sync/slack", static_cast<std::int64_t>(pt.slack));
    cfg.set("caching_protocol/type", pt.protocol);
    cfg.set("caching_protocol/directory_type", pt.directoryType);
    cfg.setInt("caching_protocol/max_sharers", 2);
    // Deliberately tiny caches: the program working set must not fit,
    // or capacity evictions (and the dirty-writeback path) never run.
    // The data regions alone (192-384 bytes) fit a 2 KB L2, so a fault
    // drill halves it: lost_writeback is only observable when dirty
    // region lines get evicted. Clean runs keep the 2 KB geometry the
    // committed snapshot fixture was recorded with.
    for (const char* l1 :
         {"perf_model/l1_icache", "perf_model/l1_dcache"}) {
        cfg.setInt(std::string(l1) + "/cache_size", 1024);
        cfg.setInt(std::string(l1) + "/associativity", 2);
    }
    cfg.setInt("perf_model/l2_cache/cache_size",
               fault_mode == "none" ? 2048 : 1024);
    cfg.setInt("perf_model/l2_cache/associativity", 2);
    cfg.setInt("perf_model/l2_cache/line_size", pt.lineSize);
    cfg.setInt("rng/seed", static_cast<std::int64_t>(seed | 1));
    cfg.setBool("race/enabled", pt.race);
    cfg.setBool("obs/spans_enabled", pt.spans);
    cfg.setBool("accuracy/enabled", pt.accuracy);
    // The runner applies the full invariant suite itself, with richer
    // reporting than the shutdown fatal().
    cfg.setBool("check/validate_at_shutdown", false);
    cfg.set("check/inject_fault", fault_mode);
    cfg.setInt("check/fault_after", 4);
    cfg.setInt("check/fault_addr_below",
               static_cast<std::int64_t>(AddressSpaceLayout::MMAP_BASE));
    return cfg;
}

} // namespace check
} // namespace graphite
