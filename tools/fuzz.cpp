/**
 * @file
 * Differential fuzz driver for the memory/sync/network stack.
 *
 * Each (seed, config) run executes in a forked child so that aborted
 * assertions, protocol panics and hangs become verdicts instead of
 * killing the sweep, and so the process-global singletons (obs,
 * fault plan) start fresh every run. The parent compares fingerprints
 * across the config matrix, shrinks failing programs to a minimal
 * reproducer, and writes artifacts under --artifacts.
 *
 * Modes:
 *   (default)      clean differential sweep over --seed-count seeds
 *   --fault MODE   detection drill: inject MODE (or "all") into the
 *                  variant configs until the harness flags the seed
 *   --smoke        fixed 32-seed clean sweep + detection drill for
 *                  every fault mode; exits nonzero if any mode escapes
 */

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/fault.h"
#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "common/log.h"
#include "common/strfmt.h"
#include "obs/telemetry/flight_recorder.h"

using namespace graphite;
using namespace graphite::check;

namespace
{

std::string
hexU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
writeAll(int fd, const void* buf, std::size_t n)
{
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w <= 0)
            return false;
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

bool
readAll(int fd, void* buf, std::size_t n)
{
    char* p = static_cast<char*>(buf);
    while (n > 0) {
        ssize_t r = ::read(fd, p, n);
        if (r <= 0)
            return false;
        p += r;
        n -= static_cast<std::size_t>(r);
    }
    return true;
}

/// 0 = reaped in time, 1 = timed out (SIGKILLed and reaped).
int
waitWithTimeout(pid_t pid, int timeout_sec, int* status)
{
    const long poll_us = 20000;
    long waited = 0;
    const long limit = static_cast<long>(timeout_sec) * 1000000;
    for (;;) {
        pid_t r = ::waitpid(pid, status, WNOHANG);
        if (r == pid)
            return 0;
        if (waited >= limit) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, status, 0);
            return 1;
        }
        ::usleep(poll_us);
        waited += poll_us;
    }
}

struct ChildResult
{
    char status = 'X'; ///< O ok, V violation, F fatal, C crash, H hang,
                       ///< X protocol error
    std::uint64_t fingerprint = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skew = 0;
    std::string message;
};

const char*
verdictName(char status)
{
    switch (status) {
      case 'O': return "ok";
      case 'V': return "invariant-violation";
      case 'F': return "fatal";
      case 'C': return "crash";
      case 'H': return "hang";
      default: return "proto-error";
    }
}

/**
 * Segmented-execution request for runChild: split the program at a
 * round boundary and run it as two quiescent segments, optionally
 * detouring through a checkpoint/restore of a fresh Simulator between
 * them (the checkpoint differential's test article).
 */
struct SegSpec
{
    int split = -1; ///< < 0: plain uninterrupted run
    bool throughSnapshot = false;
    std::string schedMode; ///< host/scheduler override, empty = default
    int hostThreads = 0;   ///< host/threads override when schedMode set
};

ChildResult
runChild(const FuzzProgram& prog, const ConfigPoint& pt,
         std::uint64_t seed, const std::string& fault, int timeout_sec,
         const std::string& trace_out = "", const SegSpec& seg = {})
{
    ChildResult out;
    int fds[2];
    if (::pipe(fds) != 0) {
        out.message = "pipe() failed";
        return out;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        out.message = "fork() failed";
        return out;
    }
    if (pid == 0) {
        ::close(fds[0]);
        char st = 'O';
        FuzzResult res;
        std::string msg;
        try {
            Config cfg = makeFuzzConfig(pt, seed, fault);
            if (!trace_out.empty())
                cfg.set("obs/trace_out", trace_out);
            if (!seg.schedMode.empty()) {
                cfg.set("host/scheduler", seg.schedMode);
                cfg.setInt("host/threads", seg.hostThreads);
            }
            res = seg.split < 0
                      ? runFuzzProgram(prog, cfg)
                      : runFuzzProgramSegmented(
                            prog, cfg,
                            static_cast<std::size_t>(seg.split),
                            seg.throughSnapshot);
            if (!res.violations.empty()) {
                st = 'V';
                for (const std::string& v : res.violations) {
                    msg += v;
                    msg += '\n';
                }
            }
        } catch (const std::exception& e) {
            st = 'F';
            msg = e.what();
        } catch (...) {
            st = 'F';
            msg = "unknown exception";
        }
        // On any failure verdict, attach the flight-recorder tail: the
        // last sync/miss/futex events leading up to the violation.
        if (st != 'O') {
            msg += '\n';
            msg += obs::telemetry::FlightRecorder::instance().dump(32);
        }
        std::uint32_t len =
            static_cast<std::uint32_t>(std::min<std::size_t>(
                msg.size(), 8192));
        std::uint64_t cyc = res.simulatedCycles;
        std::uint64_t skew = res.maxSkew;
        bool sent = writeAll(fds[1], &st, 1) &&
                    writeAll(fds[1], &res.fingerprint, 8) &&
                    writeAll(fds[1], &cyc, 8) &&
                    writeAll(fds[1], &skew, 8) &&
                    writeAll(fds[1], &len, 4) &&
                    writeAll(fds[1], msg.data(), len);
        ::_exit(sent ? 0 : 3);
    }
    ::close(fds[1]);
    int status = 0;
    int w = waitWithTimeout(pid, timeout_sec, &status);
    if (w == 1) {
        out.status = 'H';
        out.message =
            strfmt("no result within {}s (killed)", timeout_sec);
        ::close(fds[0]);
        return out;
    }
    if (WIFSIGNALED(status)) {
        out.status = 'C';
        out.message = strfmt("killed by signal {} ({})",
                             WTERMSIG(status),
                             strsignal(WTERMSIG(status)));
        ::close(fds[0]);
        return out;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        out.status = 'C';
        out.message =
            strfmt("child exited with status {}", WEXITSTATUS(status));
        ::close(fds[0]);
        return out;
    }
    char st = 'X';
    std::uint32_t len = 0;
    if (!readAll(fds[0], &st, 1) ||
        !readAll(fds[0], &out.fingerprint, 8) ||
        !readAll(fds[0], &out.cycles, 8) ||
        !readAll(fds[0], &out.skew, 8) || !readAll(fds[0], &len, 4) ||
        len > 65536) {
        out.message = "malformed child result";
        ::close(fds[0]);
        return out;
    }
    out.message.resize(len);
    if (len > 0 && !readAll(fds[0], out.message.data(), len)) {
        out.status = 'X';
        out.message = "truncated child result";
        ::close(fds[0]);
        return out;
    }
    out.status = st;
    ::close(fds[0]);
    return out;
}

struct SeedEval
{
    bool pass = true;
    std::string verdict = "ok";
    std::string detail;
    std::uint64_t baselineFp = 0;
    int runs = 0;
    ConfigPoint failPoint;
};

/**
 * Run @p seed across the sampled matrix: baseline always clean,
 * variants with @p fault injected ("none" for the clean sweep).
 */
SeedEval
evaluateSeed(std::uint64_t seed, int variants, const std::string& fault,
             const GenLimits& limits, int timeout)
{
    SeedEval ev;
    FuzzProgram prog = FuzzProgram::generate(seed, limits);
    std::vector<ConfigPoint> matrix = sampleMatrix(seed, variants);

    ChildResult base =
        runChild(prog, matrix[0], seed, "none", timeout);
    ++ev.runs;
    if (base.status != 'O') {
        ev.pass = false;
        ev.verdict = verdictName(base.status);
        ev.detail = base.message;
        ev.failPoint = matrix[0];
        return ev;
    }
    ev.baselineFp = base.fingerprint;

    for (std::size_t i = 1; i < matrix.size(); ++i) {
        ChildResult r =
            runChild(prog, matrix[i], seed, fault, timeout);
        ++ev.runs;
        if (r.status != 'O') {
            ev.pass = false;
            ev.verdict = verdictName(r.status);
            ev.detail = r.message;
            ev.failPoint = matrix[i];
            return ev;
        }
        if (r.fingerprint != base.fingerprint) {
            ev.pass = false;
            ev.verdict = "mismatch";
            ev.detail = strfmt("fingerprint {} vs baseline {}",
                               hexU64(r.fingerprint),
                               hexU64(base.fingerprint));
            ev.failPoint = matrix[i];
            return ev;
        }
    }
    return ev;
}

/// Does the (possibly shrunk) program still expose the failure?
bool
reproduces(const FuzzProgram& prog, const ConfigPoint& pt,
           std::uint64_t seed, const std::string& fault, int timeout,
           int& runs)
{
    ChildResult r = runChild(prog, pt, seed, fault, timeout);
    ++runs;
    if (r.status != 'O')
        return true;
    ChildResult b =
        runChild(prog, baselinePoint(), seed, "none", timeout);
    ++runs;
    if (b.status != 'O')
        return true;
    return r.fingerprint != b.fingerprint;
}

/**
 * ddmin-style shrink at structured granularity: whole threads (high to
 * low), whole rounds, then individual actions, finally per-round ring /
 * respawn flags. Each trial re-checks the failure, so the result is
 * always a reproducer.
 */
FuzzProgram
shrink(FuzzProgram prog, const ConfigPoint& pt, std::uint64_t seed,
       const std::string& fault, int timeout, int budget, int& trials,
       int& runs)
{
    for (int t = prog.threads - 1; t >= 1; --t) {
        if (trials >= budget)
            return prog;
        if (!prog.threadEnabled[t])
            continue;
        prog.threadEnabled[t] = 0;
        ++trials;
        if (!reproduces(prog, pt, seed, fault, timeout, runs))
            prog.threadEnabled[t] = 1;
    }
    for (FuzzRound& round : prog.rounds) {
        if (trials >= budget)
            return prog;
        if (!round.enabled)
            continue;
        round.enabled = false;
        ++trials;
        if (!reproduces(prog, pt, seed, fault, timeout, runs))
            round.enabled = true;
    }
    for (FuzzRound& round : prog.rounds) {
        if (!round.enabled)
            continue;
        for (int t = 0; t < prog.threads; ++t) {
            if (!prog.threadEnabled[t])
                continue;
            for (FuzzAction& a : round.actions[t]) {
                if (trials >= budget)
                    return prog;
                if (!a.enabled)
                    continue;
                a.enabled = false;
                ++trials;
                if (!reproduces(prog, pt, seed, fault, timeout, runs))
                    a.enabled = true;
            }
        }
    }
    for (FuzzRound& round : prog.rounds) {
        if (trials >= budget)
            return prog;
        if (!round.enabled || (!round.msgRing && !round.respawn))
            continue;
        bool ring = round.msgRing, spawn = round.respawn;
        round.msgRing = false;
        round.respawn = false;
        ++trials;
        if (!reproduces(prog, pt, seed, fault, timeout, runs)) {
            round.msgRing = ring;
            round.respawn = spawn;
        }
    }
    return prog;
}

void
writeArtifacts(const std::string& dir, const FuzzProgram& prog,
               const ConfigPoint& pt, std::uint64_t seed,
               const std::string& fault, const SeedEval& ev,
               int timeout)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "fuzz: cannot create %s: %s\n",
                     dir.c_str(), ec.message().c_str());
        return;
    }

    // Replay the shrunk program on the failing config with tracing on.
    // The trace flushes on clean exit and on FatalError unwind; a child
    // that dies on an assertion leaves no trace, which repro.txt notes.
    std::string trace = dir + "/trace.json";
    runChild(prog, pt, seed, fault, timeout, trace);
    bool have_trace = fs::exists(trace);

    std::ofstream out(dir + "/repro.txt");
    out << "graphite fuzz reproducer\n"
        << "seed        : " << hexU64(seed) << "\n"
        << "fault       : " << fault << "\n"
        << "config      : " << pt.name << " (tiles=" << pt.tiles
        << " processes=" << pt.processes << " sync=" << pt.syncModel
        << " slack=" << pt.slack << " protocol=" << pt.protocol
        << " dir=" << pt.directoryType << " line=" << pt.lineSize
        << ")\n"
        << "verdict     : " << ev.verdict << "\n"
        << "detail      : " << ev.detail << "\n"
        << "reproduce   : graphite_fuzz --seed-start " << seed
        << " --seed-count 1"
        << (fault != "none" ? " --fault " + fault : std::string())
        << "\n"
        << "trace       : "
        << (have_trace ? "trace.json"
                       : "(not flushed; child died before finalize)")
        << "\n"
        << "\nshrunk program (disabled entries marked (off)):\n\n"
        << prog.describe();
}

struct Opts
{
    std::uint64_t seedStart = 1;
    int seedCount = 16;
    int variants = 3;
    int timeout = 20;
    int shrinkBudget = 48;
    std::string fault;
    std::string artifacts = "fuzz-artifacts";
    std::string jsonPath;
    bool smoke = false;
    bool snapshotOnly = false;
};

void
appendJson(std::ofstream& js, std::uint64_t seed,
           const std::string& fault, const SeedEval& ev)
{
    if (!js.is_open())
        return;
    js << "{\"seed\":\"" << hexU64(seed) << "\",\"fault\":\"" << fault
       << "\",\"pass\":" << (ev.pass ? "true" : "false")
       << ",\"verdict\":\"" << ev.verdict << "\",\"config\":\""
       << (ev.pass ? "" : ev.failPoint.name) << "\",\"runs\":"
       << ev.runs << "}\n";
}

/// Clean differential sweep. Returns the number of failing seeds.
int
runSweep(const Opts& o, std::ofstream& js)
{
    GenLimits limits;
    int failures = 0;
    for (int i = 0; i < o.seedCount; ++i) {
        std::uint64_t seed = o.seedStart + static_cast<std::uint64_t>(i);
        SeedEval ev =
            evaluateSeed(seed, o.variants, "none", limits, o.timeout);
        appendJson(js, seed, "none", ev);
        if (ev.pass)
            continue;
        ++failures;
        std::printf("FAIL seed %s on %s: %s (%s)\n",
                    hexU64(seed).c_str(), ev.failPoint.name.c_str(),
                    ev.verdict.c_str(), ev.detail.c_str());
        int trials = 0, runs = 0;
        FuzzProgram shrunk = shrink(FuzzProgram::generate(seed, limits),
                                    ev.failPoint, seed, "none",
                                    o.timeout, o.shrinkBudget, trials,
                                    runs);
        std::string dir = o.artifacts + "/seed_" + hexU64(seed);
        writeArtifacts(dir, shrunk, ev.failPoint, seed, "none", ev,
                       o.timeout);
        std::printf("     reproducer in %s (%d shrink trials, "
                    "%zu actions left)\n",
                    dir.c_str(), trials, shrunk.enabledActions());
    }
    std::printf("sweep: %d/%d seeds clean\n", o.seedCount - failures,
                o.seedCount);
    return failures;
}

/**
 * Detection drill for one fault mode: walk seeds until the harness
 * flags one, then shrink and write the reproducer. Returns true if the
 * mode was detected within the seed budget.
 */
bool
drillMode(const Opts& o, const std::string& mode, std::ofstream& js)
{
    GenLimits limits;
    for (int i = 0; i < o.seedCount; ++i) {
        std::uint64_t seed = o.seedStart + static_cast<std::uint64_t>(i);
        SeedEval ev =
            evaluateSeed(seed, o.variants, mode, limits, o.timeout);
        appendJson(js, seed, mode, ev);
        if (ev.pass)
            continue;
        std::printf("fault %-20s detected at seed %s on %s (%s)\n",
                    mode.c_str(), hexU64(seed).c_str(),
                    ev.failPoint.name.c_str(), ev.verdict.c_str());
        int trials = 0, runs = 0;
        FuzzProgram shrunk = shrink(FuzzProgram::generate(seed, limits),
                                    ev.failPoint, seed, mode, o.timeout,
                                    o.shrinkBudget, trials, runs);
        std::string dir =
            o.artifacts + "/seed_" + hexU64(seed) + "_" + mode;
        writeArtifacts(dir, shrunk, ev.failPoint, seed, mode, ev,
                       o.timeout);
        std::printf("     reproducer in %s (%d shrink trials, "
                    "%zu actions left)\n",
                    dir.c_str(), trials, shrunk.enabledActions());
        return true;
    }
    std::printf("fault %-20s NOT detected in %d seeds\n", mode.c_str(),
                o.seedCount);
    return false;
}

int
runDrill(const Opts& o, std::ofstream& js)
{
    std::vector<std::string> modes;
    if (o.fault == "all") {
        for (FaultMode m : FaultPlan::allModes())
            modes.push_back(FaultPlan::modeName(m));
    } else {
        FaultPlan::parseMode(o.fault); // validates; fatals on unknown
        modes.push_back(o.fault);
    }
    int undetected = 0;
    for (const std::string& m : modes) {
        if (!drillMode(o, m, js))
            ++undetected;
    }
    return undetected;
}

/**
 * Checkpoint/resume differential for one seed. The uninterrupted run
 * of each config cell is the reference; the paired-pause run (two
 * run() segments, one Simulator) and the through-snapshot run (save,
 * destroy, restore into a fresh Simulator) must reproduce its
 * fingerprint, and under the deterministic scheduler the two segmented
 * runs must agree cycle for cycle. Race/span/fault oracles stay off so
 * any divergence indicts the checkpoint alone.
 */
SeedEval
evaluateSnapshotSeed(std::uint64_t seed, int variants, int timeout)
{
    SeedEval ev;
    FuzzProgram prog = FuzzProgram::generate(seed);
    if (prog.rounds.size() < 2)
        return ev; // no interior round boundary to split at
    const int split = static_cast<int>(prog.rounds.size() / 2);

    std::vector<ConfigPoint> matrix = sampleMatrix(seed, variants);
    struct HostCell
    {
        const char* mode;
        int threads;
    };
    static const HostCell HOSTS[] = {
        {"free_running", 2}, {"deterministic", 1}, {"deterministic", 4}};

    for (ConfigPoint pt : matrix) {
        pt.race = false;
        pt.spans = false;

        ChildResult plain =
            runChild(prog, pt, seed, "none", timeout);
        ++ev.runs;
        if (plain.status != 'O') {
            ev.pass = false;
            ev.verdict = verdictName(plain.status);
            ev.detail = plain.message;
            ev.failPoint = pt;
            return ev;
        }
        ev.baselineFp = plain.fingerprint;

        for (const HostCell& host : HOSTS) {
            SegSpec paired{split, false, host.mode, host.threads};
            SegSpec snap{split, true, host.mode, host.threads};
            ChildResult pr =
                runChild(prog, pt, seed, "none", timeout, "", paired);
            ChildResult sr =
                runChild(prog, pt, seed, "none", timeout, "", snap);
            ev.runs += 2;

            auto fail = [&](const std::string& verdict,
                            const std::string& detail) {
                ev.pass = false;
                ev.verdict = verdict;
                ev.detail = strfmt("{}/{}t: {}", host.mode,
                                   host.threads, detail);
                ev.failPoint = pt;
            };
            if (pr.status != 'O') {
                fail(verdictName(pr.status), pr.message);
                return ev;
            }
            if (sr.status != 'O') {
                fail(verdictName(sr.status), sr.message);
                return ev;
            }
            if (pr.fingerprint != plain.fingerprint ||
                sr.fingerprint != plain.fingerprint) {
                fail("snapshot-mismatch",
                     strfmt("paired fp {} / snapshot fp {} vs "
                            "uninterrupted {}",
                            hexU64(pr.fingerprint),
                            hexU64(sr.fingerprint),
                            hexU64(plain.fingerprint)));
                return ev;
            }
            if (std::string(host.mode) == "deterministic" &&
                sr.cycles != pr.cycles) {
                fail("snapshot-cycle-drift",
                     strfmt("snapshot resume ran {} cycles, paired "
                            "reference {}",
                            sr.cycles, pr.cycles));
                return ev;
            }
        }
    }
    return ev;
}

/// Checkpoint/resume differential sweep. Returns failing seed count.
int
runSnapshotSweep(const Opts& o, std::ofstream& js)
{
    int failures = 0;
    for (int i = 0; i < o.seedCount; ++i) {
        std::uint64_t seed = o.seedStart + static_cast<std::uint64_t>(i);
        SeedEval ev = evaluateSnapshotSeed(seed, o.variants, o.timeout);
        appendJson(js, seed, "snapshot", ev);
        if (ev.pass)
            continue;
        ++failures;
        std::printf("FAIL snapshot seed %s on %s: %s (%s)\n",
                    hexU64(seed).c_str(), ev.failPoint.name.c_str(),
                    ev.verdict.c_str(), ev.detail.c_str());
    }
    std::printf("snapshot sweep: %d/%d seeds clean\n",
                o.seedCount - failures, o.seedCount);
    return failures;
}

int
runSmoke(Opts o, std::ofstream& js)
{
    o.seedStart = 1;
    o.seedCount = 32;
    o.variants = 2;
    o.shrinkBudget = 64;
    int failures = runSweep(o, js);

    o.fault = "all";
    failures += runDrill(o, js);

    // Checkpoint/resume differential over a smaller seed band: each
    // seed costs 3 cells x (1 + 3x2) fork-isolated runs.
    Opts snap_opts = o;
    snap_opts.seedCount = 6;
    failures += runSnapshotSweep(snap_opts, js);
    std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures;
}

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--seed-start N] [--seed-count N] [--variants N]\n"
        "          [--fault MODE|all] [--smoke] [--snapshot]\n"
        "          [--artifacts DIR] [--json PATH] [--timeout SEC]\n"
        "          [--shrink-budget N]\n",
        argv0);
}

} // namespace

int
main(int argc, char** argv)
{
    Opts o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--seed-start")
            o.seedStart = std::strtoull(next(), nullptr, 0);
        else if (a == "--seed-count")
            o.seedCount = std::atoi(next());
        else if (a == "--variants")
            o.variants = std::atoi(next());
        else if (a == "--fault")
            o.fault = next();
        else if (a == "--artifacts")
            o.artifacts = next();
        else if (a == "--json")
            o.jsonPath = next();
        else if (a == "--timeout")
            o.timeout = std::atoi(next());
        else if (a == "--shrink-budget")
            o.shrinkBudget = std::atoi(next());
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--snapshot")
            o.snapshotOnly = true;
        else {
            usage(argv[0]);
            return 2;
        }
    }

    std::ofstream js;
    if (!o.jsonPath.empty()) {
        js.open(o.jsonPath);
        if (!js) {
            std::fprintf(stderr, "fuzz: cannot open %s\n",
                         o.jsonPath.c_str());
            return 2;
        }
    }

    try {
        int failures;
        if (o.smoke)
            failures = runSmoke(o, js);
        else if (o.snapshotOnly)
            failures = runSnapshotSweep(o, js);
        else if (!o.fault.empty())
            failures = runDrill(o, js);
        else
            failures = runSweep(o, js);
        return failures == 0 ? 0 : 1;
    } catch (const FatalError& e) {
        std::fprintf(stderr, "fuzz: %s\n", e.what());
        return 2;
    }
}
