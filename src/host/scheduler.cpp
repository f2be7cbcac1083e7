#include "common/lockdep.h"
#include "host/scheduler.h"

#include <chrono>
#include <limits>
#include <thread>

#include "common/config.h"
#include "common/log.h"
#include "perf/core_model.h"

namespace graphite
{
namespace host
{

SchedulerConfig
SchedulerConfig::fromConfig(const Config& cfg)
{
    SchedulerConfig out;
    std::string mode = cfg.getString("host/scheduler");
    if (mode == "deterministic")
        out.mode = SchedMode::Deterministic;
    else if (mode == "free_running")
        out.mode = SchedMode::FreeRunning;
    else
        fatal("host/scheduler must be deterministic|free_running, got "
              "'{}'",
              mode);

    out.hostThreads = static_cast<int>(cfg.getInt("host/threads"));
    if (out.hostThreads < 0)
        fatal("host/threads must be >= 0, got {}", out.hostThreads);
    if (out.hostThreads == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        out.hostThreads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    out.quantumCycles =
        static_cast<cycle_t>(cfg.getInt("host/quantum_cycles"));
    if (out.quantumCycles <= 0)
        fatal("host/quantum_cycles must be positive");
    return out;
}

HostScheduler::HostScheduler(const SchedulerConfig& cfg,
                             tile_id_t total_tiles)
    : cfg_(cfg),
      slots_(cfg.mode == SchedMode::Deterministic ? 1 : cfg.hostThreads),
      threads_(static_cast<size_t>(total_tiles))
{
    GRAPHITE_ASSERT(slots_ >= 1);
}

const char*
HostScheduler::modeName() const
{
    switch (cfg_.mode) {
      case SchedMode::Deterministic: return "deterministic";
      case SchedMode::FreeRunning: return "free_running";
    }
    return "?";
}

HostScheduler::ThreadState
HostScheduler::blockedState(BlockKind kind)
{
    switch (kind) {
      case BlockKind::Sys: return ThreadState::BlockedSys;
      case BlockKind::App: return ThreadState::BlockedApp;
      case BlockKind::Sync: return ThreadState::BlockedSync;
    }
    return ThreadState::BlockedSys;
}

// ------------------------------------------------------------- lifecycle

void
HostScheduler::expectThread(tile_id_t tile)
{
    lockdep::UniqueLock lock(mutex_);
    ThreadRec& r = threads_[tile];
    if (r.state == ThreadState::Absent) {
        r.state = ThreadState::Expected;
        grantLocked();
    } else {
        // The previous occupant sent its ThreadExit to the MCP but has
        // not called finishThread() yet; queue the respawn so the tile
        // re-enters the rotation the moment the old thread leaves.
        GRAPHITE_ASSERT(!r.respawnPending);
        r.respawnPending = true;
    }
}

void
HostScheduler::registerThread(tile_id_t tile, const CoreModel* core)
{
    lockdep::UniqueLock lock(mutex_);
    ThreadRec& r = threads_[tile];
    if (r.state == ThreadState::Expected ||
        r.state == ThreadState::Granted) {
        r.core = core;
    } else {
        // Respawn raced ahead of the old occupant's finishThread();
        // stash the clock until the tile slot is actually vacated.
        GRAPHITE_ASSERT(r.respawnPending);
        r.pendingCore = core;
    }
}

void
HostScheduler::start(tile_id_t tile)
{
    lockdep::UniqueLock lock(mutex_);
    waitGrant(lock, tile);
}

void
HostScheduler::finishThread(tile_id_t tile)
{
    lockdep::UniqueLock lock(mutex_);
    ThreadRec& r = threads_[tile];
    GRAPHITE_ASSERT(r.state == ThreadState::Running);
    --used_;
    r.fenceTicket = 0;
    r.fenceDone = 0;
    r.wakeClock = 0;
    r.quantumStart = 0;
    if (r.respawnPending) {
        r.state = ThreadState::Expected;
        r.core = r.pendingCore;
        r.pendingCore = nullptr;
        r.respawnPending = false;
    } else {
        r.state = ThreadState::Absent;
        r.core = nullptr;
    }
    grantLocked();
}

void
HostScheduler::resetForRun()
{
    lockdep::Guard lock(mutex_);
    GRAPHITE_ASSERT(used_ == 0);
    cursor_ = 0;
}

// ----------------------------------------------------------- quantum loop

void
HostScheduler::quantumCheck(tile_id_t tile)
{
    ThreadRec& r = threads_[tile];
    // Owner-only fast path: quantumStart is written by this thread
    // while Running (waitGrant / here), and the grant handshake orders
    // any earlier writes.
    cycle_t now = r.core->cycle();
    if (now - r.quantumStart < cfg_.quantumCycles)
        return;
    quanta_.fetch_add(1, std::memory_order_relaxed);

    lockdep::UniqueLock lock(mutex_);
    r.quantumStart = now;
    promoteSkewParkedLocked();
    if (anyWaiterLocked()) {
        yields_.fetch_add(1, std::memory_order_relaxed);
        releaseSlotLocked(tile, ThreadState::Ready);
        waitGrant(lock, tile);
    }
}

// ------------------------------------------------------ blocking protocol

void
HostScheduler::beginBlock(tile_id_t tile, BlockKind kind)
{
    lockdep::UniqueLock lock(mutex_);
    GRAPHITE_ASSERT(threads_[tile].state == ThreadState::Running);
    releaseSlotLocked(tile, blockedState(kind));
}

void
HostScheduler::endBlock(tile_id_t tile)
{
    lockdep::UniqueLock lock(mutex_);
    ThreadRec& r = threads_[tile];
    switch (r.state) {
      case ThreadState::BlockedSys:
      case ThreadState::BlockedApp:
      case ThreadState::BlockedSync:
        // free_running self-wake (and teardown unwind in either mode).
        r.state = ThreadState::Ready;
        grantLocked();
        break;
      case ThreadState::Ready:
      case ThreadState::Granted:
        // deterministic mode: notifyUnblocked already re-queued us.
        break;
      default:
        panic("endBlock: tile {} in unexpected state {}", tile,
              static_cast<int>(r.state));
    }
    waitGrant(lock, tile);
}

void
HostScheduler::notifyUnblocked(tile_id_t tile, BlockKind kind)
{
    if (!deterministic())
        return;
    lockdep::UniqueLock lock(mutex_);
    ThreadRec& r = threads_[tile];
    if (r.state == blockedState(kind)) {
        r.state = ThreadState::Ready;
        grantLocked();
    }
}

// ---------------------------------------------------------- request fence

void
HostScheduler::requestFence(tile_id_t tile)
{
    if (!deterministic())
        return;
    lockdep::UniqueLock lock(mutex_);
    ThreadRec& r = threads_[tile];
    std::uint64_t ticket = ++r.fenceTicket;
    r.cv.wait(lock, [&] { return r.fenceDone >= ticket; });
}

void
HostScheduler::requestDispatched(tile_id_t tile)
{
    if (!deterministic())
        return;
    lockdep::UniqueLock lock(mutex_);
    ++threads_[tile].fenceDone;
    threads_[tile].cv.notify_one();
}

// -------------------------------------------------------------- skew park

std::uint64_t
HostScheduler::skewPark(tile_id_t tile, cycle_t wake_clock)
{
    lockdep::UniqueLock lock(mutex_);
    GRAPHITE_ASSERT(threads_[tile].state == ThreadState::Running);
    if (minActiveClockLocked() >= wake_clock)
        return 0;
    auto t0 = std::chrono::steady_clock::now();
    skewParks_.fetch_add(1, std::memory_order_relaxed);
    ThreadRec& r = threads_[tile];
    r.wakeClock = wake_clock;
    releaseSlotLocked(tile, ThreadState::SkewParked);
    waitGrant(lock, tile);
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    skewParkNs_.fetch_add(static_cast<stat_t>(ns),
                          std::memory_order_relaxed);
    return static_cast<std::uint64_t>(ns);
}

cycle_t
HostScheduler::minActiveClockLocked() const
{
    cycle_t mn = std::numeric_limits<cycle_t>::max();
    for (const ThreadRec& r : threads_) {
        switch (r.state) {
          case ThreadState::Expected:
          case ThreadState::Ready:
          case ThreadState::Granted:
          case ThreadState::Running:
          case ThreadState::SkewParked: {
            cycle_t c = r.core != nullptr ? r.core->cycle() : 0;
            mn = std::min(mn, c);
            break;
          }
          default:
            break; // blocked or absent threads cannot advance
        }
    }
    return mn;
}

void
HostScheduler::promoteSkewParkedLocked()
{
    cycle_t mn = minActiveClockLocked();
    for (ThreadRec& r : threads_) {
        if (r.state == ThreadState::SkewParked && mn >= r.wakeClock)
            r.state = ThreadState::Ready;
    }
}

// -------------------------------------------------------- slot management

void
HostScheduler::releaseSlotLocked(tile_id_t tile, ThreadState next)
{
    ThreadRec& r = threads_[tile];
    GRAPHITE_ASSERT(r.state == ThreadState::Running);
    r.state = next;
    --used_;
    grantLocked();
}

bool
HostScheduler::anyWaiterLocked() const
{
    for (const ThreadRec& r : threads_) {
        if (r.state == ThreadState::Ready ||
            r.state == ThreadState::Expected)
            return true;
    }
    return false;
}

void
HostScheduler::grantLocked()
{
    promoteSkewParkedLocked();
    const auto total = static_cast<tile_id_t>(threads_.size());
    while (used_ < slots_) {
        tile_id_t pick = INVALID_TILE_ID;
        for (tile_id_t i = 0; i < total; ++i) {
            tile_id_t t = (cursor_ + i) % total;
            ThreadState st = threads_[t].state;
            if (st == ThreadState::Ready ||
                st == ThreadState::Expected) {
                pick = t;
                break;
            }
        }
        if (pick == INVALID_TILE_ID)
            break;
        threads_[pick].state = ThreadState::Granted;
        ++used_;
        cursor_ = (pick + 1) % total;
        // Targeted wake: only the granted tile's owner can be waiting
        // on this channel. An Expected tile has no waiter yet; its
        // host thread sees the grant when it reaches start().
        threads_[pick].cv.notify_one();
    }
}

void
HostScheduler::waitGrant(lockdep::UniqueLock& lock,
                         tile_id_t tile)
{
    ThreadRec& r = threads_[tile];
    r.cv.wait(lock,
              [&] { return r.state == ThreadState::Granted; });
    r.state = ThreadState::Running;
    if (r.core != nullptr)
        r.quantumStart = r.core->cycle();
}

// ------------------------------------------------------------- statistics

PoolGauges
HostScheduler::gauges() const
{
    lockdep::UniqueLock lock(mutex_);
    PoolGauges g;
    g.slots = slots_;
    for (const ThreadRec& r : threads_) {
        switch (r.state) {
          case ThreadState::Running: ++g.executing; break;
          case ThreadState::Ready:
          case ThreadState::Granted: ++g.runnable; break;
          case ThreadState::BlockedSys:
          case ThreadState::BlockedApp:
          case ThreadState::BlockedSync: ++g.blocked; break;
          case ThreadState::SkewParked: ++g.skewParked; break;
          case ThreadState::Expected: ++g.expected; break;
          case ThreadState::Absent: break;
        }
    }
    return g;
}

} // namespace host
} // namespace graphite
