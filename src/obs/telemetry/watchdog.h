/**
 * @file
 * Progress watchdog: a host timer thread that snapshots per-tile
 * simulated-cycle heartbeats and flags three pathological shapes a
 * long-running parallel simulation can fall into:
 *
 *  - stall:    some occupied, nominally-running tile made no simulated
 *              progress across several beats while other tiles advanced
 *              (one thread wedged, e.g. spinning on host state);
 *  - deadlock: every occupied tile is parked in a futex/join wait and
 *              total simulated progress stopped — the classic lost-wake
 *              or lock-cycle shape;
 *  - livelock: tiles are marked running yet total simulated progress is
 *              zero beat after beat (lax-slack ping-pong).
 *
 * Verdicts escalate: first to telemetry.stall.* statistics and a
 * WatchdogFlag flight-recorder event, then (after `dump_beats` more
 * beats in the same verdict) to a structured diagnostic dump — the
 * /status JSON, the wait sets naming waiting tiles and futex
 * addresses, and the flight-recorder tail — written to a file or
 * stderr. The `abort` action additionally terminates the process with
 * exit code 86 so harnesses (and the planted-deadlock test) can turn a
 * hang into a bounded failure.
 *
 * Beats are host wall-clock (`telemetry/watchdog_interval_ms`), so
 * thresholds are seconds of real time — far beyond any legitimate
 * quantum-barrier wait — and zero-cost to simulation threads: the
 * watchdog only reads the same atomics/mutex-guarded snapshots the
 * telemetry server does.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/stats.h"
#include "obs/telemetry/status.h"

namespace graphite
{

class Config;

namespace obs
{
namespace telemetry
{

/** What the watchdog does once a verdict persists. */
enum class WatchdogAction
{
    Flag,  ///< statistics + flight-recorder event only
    Dump,  ///< ... plus a structured diagnostic dump
    Abort  ///< ... plus std::_Exit(86) after dumping
};

/** Exit code used by WatchdogAction::Abort. */
inline constexpr int WATCHDOG_ABORT_EXIT = 86;

/** The telemetry/watchdog_* keys (see fromConfig). */
struct WatchdogConfig
{
    std::uint64_t intervalMs{}; ///< beat period (host wall clock)
    int stallBeats{};  ///< beats without progress before a verdict
    int dumpBeats{};   ///< further beats in-verdict before dumping
    WatchdogAction action{};
    std::string dumpPath; ///< empty = stderr

    /**
     * Read the telemetry/watchdog_* keys. Fatal on an unknown action
     * or a zero interval.
     */
    static WatchdogConfig fromConfig(const Config& cfg);
};

/** Host-timer progress watchdog. */
class ProgressWatchdog
{
  public:
    ProgressWatchdog() = default;
    ~ProgressWatchdog() { stop(); }

    ProgressWatchdog(const ProgressWatchdog&) = delete;
    ProgressWatchdog& operator=(const ProgressWatchdog&) = delete;

    /** Start beating. @p source must outlive the watchdog. */
    void start(WatchdogConfig cfg, StatusSource source);

    /** Stop the timer thread. Idempotent. */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Current verdict/counters for /status and /healthz. */
    WatchdogView view() const;

    /**
     * Run one beat synchronously (tests): sample heartbeats, update the
     * verdict, escalate if due. Returns the verdict after the beat.
     */
    const char* beatOnce();

    /** @name Counters (registered as telemetry.stall.* stats) @{ */
    const atomic_stat_t& beats() const { return beatsCount_; }
    const atomic_stat_t& stallFlags() const { return stallFlags_; }
    const atomic_stat_t& deadlockFlags() const { return deadlockFlags_; }
    const atomic_stat_t& livelockFlags() const { return livelockFlags_; }
    const atomic_stat_t& dumps() const { return dumpsCount_; }
    /** @} */

    /**
     * Build the diagnostic dump text (status JSON + wait sets + flight
     * recorder tail). Public so tests can validate content without
     * touching the filesystem.
     */
    std::string renderDump() const;

  private:
    struct Beat
    {
        std::vector<TileStatus> tiles;
        cycle_t total = 0;
    };

    void timerLoop();
    const char* classify(const Beat& prev, const Beat& cur);
    void escalate();
    void writeDump(const std::string& text) const;

    WatchdogConfig cfg_;
    StatusSource source_;

    std::thread thread_;
    std::atomic<bool> running_{false};
    mutable lockdep::OrderedMutex stateMutex_{
        lockdep::LockClass::watchdog_state}; ///< guards lastBeat_/verdict_
    lockdep::CondVar stopCv_;
    bool stopRequested_ = false;

    Beat lastBeat_;
    bool haveBeat_ = false;
    int beatsInVerdict_ = 0;
    bool dumped_ = false;
    const char* verdict_ = "ok";
    /** Per-tile count of consecutive beats without progress. */
    std::vector<int> staleBeats_;
    /** Consecutive beats with zero total simulated progress. */
    int noProgressBeats_ = 0;

    atomic_stat_t beatsCount_{0};
    atomic_stat_t stallFlags_{0};
    atomic_stat_t deadlockFlags_{0};
    atomic_stat_t livelockFlags_{0};
    atomic_stat_t dumpsCount_{0};
};

} // namespace telemetry
} // namespace obs
} // namespace graphite
