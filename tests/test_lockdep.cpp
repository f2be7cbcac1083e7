/**
 * @file
 * Lockdep subsystem tests: planted AB/BA inversions are reported with
 * both acquisition sites the first time the wrong order *could*
 * deadlock (not when it actually does), ORDERED/MULTI class flags,
 * condvar wait release/reacquire discipline, held-set visibility for
 * the telemetry plane (snapshot render + crash-handler dump), the
 * zero-overhead disabled build, and fingerprint neutrality: arming
 * lockdep must not perturb simulated results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check/fuzz_program.h"
#include "check/fuzz_runner.h"
#include "common/config.h"
#include "common/lockdep.h"
#include "obs/telemetry/flight_recorder.h"

// Defined in lockdep_force_off_probe.cpp, a TU compiled with
// -DGRAPHITE_LOCKDEP_FORCE_OFF linked into this armed binary.
bool lockdepForceOffProbeExercise();

// Detection tests are meaningless in a -DGRAPHITE_LOCKDEP=OFF tree,
// where the wrappers are plain std::mutex pass-throughs.
#if GRAPHITE_LOCKDEP_ON
#define LOCKDEP_REQUIRE_ARMED() (void)0
#else
#define LOCKDEP_REQUIRE_ARMED() \
    GTEST_SKIP() << "built with GRAPHITE_LOCKDEP=OFF"
#endif

namespace graphite
{
namespace
{

using lockdep::LockClass;
using lockdep::Mode;

std::string
tempPath(const char* tag)
{
    const char* dir = std::getenv("TMPDIR");
    std::ostringstream os;
    os << (dir != nullptr ? dir : "/tmp") << "/graphite_lockdep_"
       << tag << "_" << ::getpid();
    return os.str();
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/// Reap @p pid with a deadline; SIGKILLs on timeout so a regression
/// that reintroduces an actual deadlock fails fast instead of hanging
/// the suite.
int
reapWithTimeout(pid_t pid, int timeout_sec)
{
    int status = -1;
    const long poll_us = 20000;
    long waited = 0;
    const long limit = static_cast<long>(timeout_sec) * 1000000;
    for (;;) {
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return status;
        if (waited >= limit) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return status;
        }
        ::usleep(poll_us);
        waited += poll_us;
    }
}

/// Warn-mode fixture: violations are recorded (count + report text)
/// but execution continues, so a single test can plant an inversion
/// and then inspect the diagnosis. Always restores enforcing mode.
class LockdepWarn : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        lockdep::resetForTest();
        lockdep::setMode(Mode::Warn);
    }
    void TearDown() override
    {
        lockdep::setMode(Mode::Enforce);
        lockdep::resetForTest();
    }
};

// ------------------------------------------------- planted inversions

TEST_F(LockdepWarn, AbBaFlaggedOnFirstInversionWithBothSites)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex a(LockClass::race_records);
    lockdep::OrderedMutex b(LockClass::span_sink);

    // Legal order first: records the a->b edge with both sites.
    {
        lockdep::Guard ga(a);
        lockdep::Guard gb(b); // EDGE-SITE marker (see assertions)
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);

    // Planted inversion: flagged at acquire time, on the FIRST
    // inversion, with no second thread involved — the discipline is
    // checked, not the schedule, so control returns here instead of
    // ever reaching a two-thread hang.
    {
        lockdep::Guard gb(b);
        lockdep::Guard ga(a);
    }
    EXPECT_EQ(lockdep::violationCount(), 1u);

    std::string report = lockdep::lastReport();
    EXPECT_NE(report.find("lock-order violation"), std::string::npos);
    EXPECT_NE(report.find("race_records"), std::string::npos);
    EXPECT_NE(report.find("span_sink"), std::string::npos);
    // Both sites of the violating acquisition are named...
    EXPECT_NE(report.find("test_lockdep.cpp"), std::string::npos);
    EXPECT_NE(report.find("while holding"), std::string::npos);
    // ...and so is the previously-observed legal order, proving both
    // orders exist in the code (the deadlock pair).
    EXPECT_NE(report.find("opposite order previously observed"),
              std::string::npos);
}

TEST(LockdepPlanted, TwoThreadAbBaExitsEnforceCodeNoDeadlock)
{
    LOCKDEP_REQUIRE_ARMED();
    // The genuinely deadlocking schedule: t1 holds A wants B, t2 holds
    // B wants A. Fork-isolated because enforcing mode exits the
    // process; the assertion is that the child exits with the lockdep
    // code — BEFORE the classic hang — instead of being SIGKILLed by
    // the reap timeout.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        lockdep::setMode(Mode::Enforce);
        static lockdep::OrderedMutex a(LockClass::race_records);
        static lockdep::OrderedMutex b(LockClass::span_sink);
        std::atomic<bool> t1_has_a{false};
        std::atomic<bool> t2_has_b{false};

        std::thread t1([&] {
            a.lock();
            t1_has_a.store(true);
            while (!t2_has_b.load())
                std::this_thread::yield();
            b.lock(); // blocks on t2 — the half that would hang
        });
        std::thread t2([&] {
            b.lock();
            t2_has_b.store(true);
            while (!t1_has_a.load())
                std::this_thread::yield();
            // Checked before blocking: reported + _Exit(87), so the
            // process dies with a diagnosis instead of deadlocking.
            a.lock();
        });
        t1.join();
        t2.join();
        std::_Exit(3); // unreachable unless detection failed
    }

    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFEXITED(status))
        << "child hung or crashed instead of reporting the inversion";
    EXPECT_EQ(WEXITSTATUS(status), 87);
}

// ----------------------------------------------------- class flags

TEST_F(LockdepWarn, OrderedClassRequiresAscendingInstances)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex s0(LockClass::mem_shard, 0);
    lockdep::OrderedMutex s1(LockClass::mem_shard, 1);

    {
        lockdep::Guard g0(s0);
        lockdep::Guard g1(s1); // ascending: legal
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);

    {
        lockdep::Guard g1(s1);
        lockdep::Guard g0(s0); // descending: flagged
    }
    EXPECT_EQ(lockdep::violationCount(), 1u);
    EXPECT_NE(lockdep::lastReport().find("ascending instance"),
              std::string::npos);
}

TEST_F(LockdepWarn, AscendingRunTakesOneHeldSlot)
{
    LOCKDEP_REQUIRE_ARMED();
    // An ascending same-class run is one held-set entry, checked
    // against its highest instance. (40 locks: ThreadSanitizer's own
    // deadlock detector tracks at most 64 per thread.)
    constexpr int N = 40;
    std::vector<std::unique_ptr<lockdep::OrderedMutex>> tiles;
    for (int i = 0; i < N; ++i)
        tiles.push_back(std::make_unique<lockdep::OrderedMutex>(
            LockClass::mem_tile, i));
    for (int i = 0; i < N - 1; ++i)
        tiles[i]->lock();
    {
        lockdep::UniqueLock top(*tiles[N - 1]);
        for (const lockdep::ThreadHeldSet& s : lockdep::heldSnapshot()) {
            if (s.threadId != static_cast<std::uint64_t>(pthread_self()))
                continue;
            EXPECT_EQ(s.held.size(), 1u);
            EXPECT_EQ(s.held.front().count, N);
        }
        EXPECT_NE(lockdep::renderHeldSets().find("mem_tile[0..39 x40]"),
                  std::string::npos);
        // The run's highest instance is the innermost lock.
        lockdep::CondVar cv;
        cv.wait_for(top, std::chrono::milliseconds(1));
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);

    lockdep::OrderedMutex inside(LockClass::mem_tile, 7);
    {
        lockdep::Guard g(inside); // not above the run: flagged
    }
    EXPECT_EQ(lockdep::violationCount(), 1u);

    for (int i = 0; i < N - 1; ++i)
        tiles[i]->unlock();
    EXPECT_EQ(lockdep::renderHeldSets().find("mem_tile"),
              std::string::npos);
}

TEST_F(LockdepWarn, MultiClassNestsInAnyOrder)
{
    // app_target models mutexes owned by the simulated application;
    // their discipline is the app's business, not the simulator's.
    lockdep::OrderedMutex m1(LockClass::app_target, 1);
    lockdep::OrderedMutex m2(LockClass::app_target, 2);
    {
        lockdep::Guard g2(m2);
        lockdep::Guard g1(m1);
    }
    {
        lockdep::Guard g1(m1);
        lockdep::Guard g2(m2);
    }
    EXPECT_EQ(lockdep::violationCount(), 0u);
}

// ----------------------------------------------------- condvar waits

TEST_F(LockdepWarn, CondVarWaitReleasesAndReacquiresInOrder)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex m(LockClass::global_progress);
    lockdep::CondVar cv;
    std::atomic<bool> go{false};

    std::thread waiter([&] {
        lockdep::UniqueLock l(m);
        cv.wait(l, [&] { return go.load(); });
        // Reacquired: taking a later-ranked class under it is legal.
        lockdep::OrderedMutex inner(LockClass::log_filter);
        lockdep::Guard g(inner);
    });

    // While the waiter is parked, the waited mutex has left its
    // held-set and shows as pending — exactly what the watchdog hang
    // dump needs to name "waiting for X" threads.
    bool saw_pending = false;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        for (const lockdep::ThreadHeldSet& s :
             lockdep::heldSnapshot()) {
            if (s.hasPending &&
                s.pending.cls == LockClass::global_progress &&
                s.held.empty())
                saw_pending = true;
        }
        if (saw_pending)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(saw_pending);

    {
        lockdep::Guard g(m);
        go.store(true);
    }
    cv.notify_all();
    waiter.join();
    EXPECT_EQ(lockdep::violationCount(), 0u);
}

TEST_F(LockdepWarn, CondVarWaitOnNonInnermostLockFlagged)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex outer(LockClass::global_progress);
    lockdep::OrderedMutex inner(LockClass::log_filter);
    lockdep::CondVar cv;

    lockdep::UniqueLock l(outer);
    {
        lockdep::Guard g(inner);
        // Waiting on `outer` would release a mid-stack lock while
        // keeping `inner`, a recipe for waking into an inverted order.
        cv.wait_for(l, std::chrono::milliseconds(5));
    }
    EXPECT_GE(lockdep::violationCount(), 1u);
    EXPECT_NE(lockdep::lastReport().find("innermost"),
              std::string::npos);
}

// ------------------------------------------- telemetry visibility

TEST_F(LockdepWarn, RenderHeldSetsNamesClassAndSite)
{
    LOCKDEP_REQUIRE_ARMED();
    lockdep::OrderedMutex m(LockClass::log_filter);
    lockdep::Guard g(m);
    std::string text = lockdep::renderHeldSets();
    EXPECT_NE(text.find("log_filter"), std::string::npos);
    EXPECT_NE(text.find("test_lockdep.cpp"), std::string::npos);
}

TEST(LockdepCrash, CrashDumpIncludesHeldSets)
{
    LOCKDEP_REQUIRE_ARMED();
    std::string dump_path = tempPath("crash");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        using obs::telemetry::FlightRecorder;
        FlightRecorder& fr = FlightRecorder::instance();
        fr.configure(64);
        fr.installCrashHandler(dump_path);
        lockdep::OrderedMutex m(LockClass::log_filter);
        lockdep::Guard g(m);
        ::raise(SIGSEGV);
        std::_Exit(0); // unreachable
    }

    int status = reapWithTimeout(pid, 30);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    std::string dump = slurp(dump_path);
    std::remove(dump_path.c_str());
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(dump.find("=== lockdep held-sets ==="),
              std::string::npos);
    EXPECT_NE(dump.find("holds log_filter"), std::string::npos);
    EXPECT_NE(dump.find("test_lockdep.cpp"), std::string::npos);
}

// ------------------------------------------------- disabled build

TEST(LockdepDisabled, ForceOffVariantCompilesAndAddsNoState)
{
    EXPECT_TRUE(lockdepForceOffProbeExercise());
}

// ------------------------------------------- fingerprint neutrality

TEST(LockdepFuzz, FingerprintUnchangedArmedVsOff)
{
    // Arming lockdep must be observationally inert for the simulated
    // program: same fuzz program, same config, fingerprints equal
    // whether the checker is off or enforcing.
    const std::uint64_t seed = 7;
    check::FuzzProgram prog = check::FuzzProgram::generate(seed);
    Config cfg = check::makeFuzzConfig(check::baselinePoint(), seed);
    check::RunOptions opt;
    opt.watcherPeriodUs = 100;
    opt.validateEvery = 4;

    lockdep::setMode(Mode::Off);
    check::FuzzResult off = check::runFuzzProgram(prog, cfg, opt);
    lockdep::setMode(Mode::Enforce);
    check::FuzzResult armed = check::runFuzzProgram(prog, cfg, opt);

    EXPECT_TRUE(off.violations.empty());
    EXPECT_TRUE(armed.violations.empty());
    EXPECT_NE(off.fingerprint, 0u);
    EXPECT_EQ(off.fingerprint, armed.fingerprint);
}

} // namespace
} // namespace graphite
