#include "common/lockdep.h"
#include "obs/telemetry/watchdog.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "common/config.h"
#include "common/log.h"
#include "obs/telemetry/flight_recorder.h"

namespace graphite
{
namespace obs
{
namespace telemetry
{

WatchdogConfig
WatchdogConfig::fromConfig(const Config& cfg)
{
    WatchdogConfig out;
    out.intervalMs = static_cast<std::uint64_t>(
        cfg.getInt("telemetry/watchdog_interval_ms"));
    if (out.intervalMs == 0)
        fatal("telemetry/watchdog_interval_ms must be positive");
    out.stallBeats =
        static_cast<int>(cfg.getInt("telemetry/watchdog_stall_beats"));
    out.dumpBeats =
        static_cast<int>(cfg.getInt("telemetry/watchdog_dump_beats"));
    out.dumpPath = cfg.getString("telemetry/watchdog_dump");
    std::string action = cfg.getString("telemetry/watchdog_action");
    if (action == "flag")
        out.action = WatchdogAction::Flag;
    else if (action == "dump")
        out.action = WatchdogAction::Dump;
    else if (action == "abort")
        out.action = WatchdogAction::Abort;
    else
        fatal("telemetry/watchdog_action must be flag|dump|abort, "
              "got '{}'",
              action);
    return out;
}

void
ProgressWatchdog::start(WatchdogConfig cfg, StatusSource source)
{
    if (running())
        return;
    cfg_ = std::move(cfg);
    source_ = std::move(source);
    if (cfg_.stallBeats < 1)
        cfg_.stallBeats = 1;
    if (cfg_.dumpBeats < 0)
        cfg_.dumpBeats = 0;
    {
        lockdep::Guard lock(stateMutex_);
        stopRequested_ = false;
        haveBeat_ = false;
        beatsInVerdict_ = 0;
        noProgressBeats_ = 0;
        dumped_ = false;
        verdict_ = "ok";
        staleBeats_.clear();
    }
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { timerLoop(); });
}

void
ProgressWatchdog::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel))
        return;
    {
        lockdep::Guard lock(stateMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

WatchdogView
ProgressWatchdog::view() const
{
    WatchdogView v;
    v.enabled = true;
    {
        lockdep::Guard lock(stateMutex_);
        v.verdict = verdict_;
    }
    v.beats = beatsCount_.load(std::memory_order_relaxed);
    v.stallFlags = stallFlags_.load(std::memory_order_relaxed) +
                   deadlockFlags_.load(std::memory_order_relaxed) +
                   livelockFlags_.load(std::memory_order_relaxed);
    v.dumps = dumpsCount_.load(std::memory_order_relaxed);
    return v;
}

void
ProgressWatchdog::timerLoop()
{
    lockdep::UniqueLock lock(stateMutex_);
    while (!stopRequested_) {
        if (stopCv_.wait_for(lock,
                             std::chrono::milliseconds(cfg_.intervalMs),
                             [this] { return stopRequested_; }))
            break;
        lock.unlock();
        beatOnce();
        lock.lock();
    }
}

const char*
ProgressWatchdog::beatOnce()
{
    Beat cur;
    if (source_.tiles)
        cur.tiles = source_.tiles();
    for (const TileStatus& t : cur.tiles)
        cur.total += t.cycles;
    beatsCount_.fetch_add(1, std::memory_order_relaxed);

    const char* verdict;
    bool escalateNow = false;
    {
        lockdep::Guard lock(stateMutex_);
        if (!haveBeat_) {
            lastBeat_ = std::move(cur);
            haveBeat_ = true;
            staleBeats_.assign(lastBeat_.tiles.size(), 0);
            return verdict_;
        }
        verdict = classify(lastBeat_, cur);
        if (std::strcmp(verdict, verdict_) != 0) {
            // Verdict transition: count the flag, reset escalation.
            verdict_ = verdict;
            beatsInVerdict_ = 0;
            dumped_ = false;
            if (std::strcmp(verdict, "stall") == 0)
                stallFlags_.fetch_add(1, std::memory_order_relaxed);
            else if (std::strcmp(verdict, "deadlock") == 0)
                deadlockFlags_.fetch_add(1, std::memory_order_relaxed);
            else if (std::strcmp(verdict, "livelock") == 0)
                livelockFlags_.fetch_add(1, std::memory_order_relaxed);
            if (std::strcmp(verdict, "ok") != 0) {
                int code = std::strcmp(verdict, "deadlock") == 0 ? 2
                           : std::strcmp(verdict, "livelock") == 0
                               ? 3
                               : 1;
                FlightRecorder::record(FrEvent::WatchdogFlag,
                                       INVALID_TILE_ID, cur.total,
                                       static_cast<std::uint64_t>(code));
            }
        } else if (std::strcmp(verdict, "ok") != 0) {
            ++beatsInVerdict_;
            if (!dumped_ && beatsInVerdict_ >= cfg_.dumpBeats &&
                cfg_.action != WatchdogAction::Flag) {
                dumped_ = true;
                escalateNow = true;
            }
        }
        lastBeat_ = std::move(cur);
    }
    if (escalateNow)
        escalate();
    return verdict;
}

const char*
ProgressWatchdog::classify(const Beat& prev, const Beat& cur)
{
    // Caller holds stateMutex_.
    if (staleBeats_.size() != cur.tiles.size())
        staleBeats_.assign(cur.tiles.size(), 0);

    std::size_t occupied = 0;
    std::size_t parked = 0;      // occupied && !running
    bool anyAdvanced = false;
    bool anyRunningStale = false;
    for (std::size_t i = 0; i < cur.tiles.size(); ++i) {
        const TileStatus& t = cur.tiles[i];
        cycle_t before =
            i < prev.tiles.size() ? prev.tiles[i].cycles : 0;
        bool advanced = t.cycles > before;
        if (!t.occupied || advanced)
            staleBeats_[i] = 0;
        else
            ++staleBeats_[i];
        if (!t.occupied)
            continue;
        ++occupied;
        if (!t.running)
            ++parked;
        if (advanced)
            anyAdvanced = true;
        else if (t.running && staleBeats_[i] >= cfg_.stallBeats)
            anyRunningStale = true;
    }

    if (occupied == 0) {
        // Startup or shutdown: nothing to judge.
        noProgressBeats_ = 0;
        return "ok";
    }

    noProgressBeats_ = cur.total > prev.total ? 0 : noProgressBeats_ + 1;

    if (noProgressBeats_ >= cfg_.stallBeats) {
        // Total progress stopped long enough to call it. All parked =
        // deadlock shape (everyone waits on a futex/join that will
        // never be signalled); anyone still "running" = livelock shape.
        return parked == occupied ? "deadlock" : "livelock";
    }
    if (anyAdvanced && anyRunningStale)
        return "stall";
    return "ok";
}

std::string
ProgressWatchdog::renderDump() const
{
    std::ostringstream os;
    os << "=== watchdog diagnostic dump ===\n";
    {
        lockdep::Guard lock(stateMutex_);
        os << "verdict: " << verdict_ << " (after "
           << beatsCount_.load(std::memory_order_relaxed)
           << " beats, interval " << cfg_.intervalMs << " ms)\n";
    }

    // Name every waiting tile and the primitive it waits on.
    if (source_.waitSets) {
        WaitSetSnapshot ws = source_.waitSets();
        os << "busy tiles: " << ws.busyTiles << "\n";
        for (const auto& q : ws.futexes) {
            os << "futex 0x" << std::hex << q.addr << std::dec
               << " waiters:";
            for (tile_id_t t : q.waiters)
                os << " tile " << t;
            os << "\n";
        }
        for (const auto& q : ws.joins) {
            os << "join on tile " << q.target << " waiters:";
            for (tile_id_t t : q.waiters)
                os << " tile " << t;
            os << "\n";
        }
    }
    if (source_.tiles) {
        for (const TileStatus& t : source_.tiles()) {
            if (!t.occupied)
                continue;
            os << "tile " << t.tile << ": cycles " << t.cycles
               << ", instructions " << t.instructions << ", "
               << (t.running ? "running" : "blocked") << "\n";
        }
    }

    // Lockdep held-sets: which host thread holds which lock classes
    // (and is blocked acquiring what), with acquisition sites — the
    // difference between "it hangs" and "thread A holds mem_shard[3]
    // from memory_system.cpp:210 while waiting for sched_pool".
    std::string held = lockdep::renderHeldSets("  ");
    if (!held.empty())
        os << "lock held-sets (lockdep):\n" << held;

    WatchdogView wd = view();
    os << "status: " << renderStatusJson(source_, &wd) << "\n";
    os << FlightRecorder::instance().dump(256);
    return os.str();
}

void
ProgressWatchdog::writeDump(const std::string& text) const
{
    if (cfg_.dumpPath.empty()) {
        std::fwrite(text.data(), 1, text.size(), stderr);
        std::fflush(stderr);
        return;
    }
    FILE* f = std::fopen(cfg_.dumpPath.c_str(), "w");
    if (f == nullptr) {
        warnc("obs", "watchdog: cannot write dump to {}: {}",
              cfg_.dumpPath, std::strerror(errno));
        std::fwrite(text.data(), 1, text.size(), stderr);
        std::fflush(stderr);
        return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

void
ProgressWatchdog::escalate()
{
    dumpsCount_.fetch_add(1, std::memory_order_relaxed);
    std::string text = renderDump();
    writeDump(text);
    const char* verdict;
    {
        lockdep::Guard lock(stateMutex_);
        verdict = verdict_;
    }
    warnc("obs", "watchdog: {} detected; diagnostic dump written to {}",
          verdict,
          cfg_.dumpPath.empty() ? std::string("stderr") : cfg_.dumpPath);
    if (cfg_.action == WatchdogAction::Abort) {
        // _Exit, not abort(): the process state is wedged and running
        // destructors (joining stuck threads) would hang forever.
        std::_Exit(WATCHDOG_ABORT_EXIT);
    }
}

} // namespace telemetry
} // namespace obs
} // namespace graphite
