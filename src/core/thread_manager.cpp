#include "common/lockdep.h"
#include "core/thread_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/log.h"
#include "snapshot/snapshot.h"
#include "core/api.h"
#include "core/simulator.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/trace_event.h"
#include "race/detector.h"

namespace graphite
{

ThreadManager::ThreadManager(Simulator& sim) : sim_(sim)
{
}

ThreadManager::~ThreadManager()
{
    // Normal teardown happens in waitForShutdown(); this is a backstop
    // for error paths so the process does not terminate with detached
    // threads touching freed state.
    if (mcpThread_.joinable())
        mcpThread_.join();
    for (auto& t : lcpThreads_) {
        if (t.joinable())
            t.join();
    }
    lockdep::Guard lock(appThreadsMutex_);
    for (auto& t : appThreads_) {
        if (t.joinable())
            t.join();
    }
}

void
ThreadManager::start()
{
    const ClusterTopology& topo = sim_.topology();
    tileState_.assign(topo.totalTiles(), TileState::Free);
    syscalls_.assign(topo.totalTiles(), 0);

    // Re-entrancy: a second run() on the same Simulator (and a run
    // after checkpoint restore) must not inherit the previous run's
    // shutdown latches or joined host-thread handles.
    shutdownRequested_ = false;
    shutdownDone_ = false;
    lcpThreads_.clear();
    {
        lockdep::Guard lock(appThreadsMutex_);
        appThreads_.clear();
    }

    if (pendingRestore_ != nullptr) {
        exitClock_ = std::move(pendingRestore_->exitClock);
        threadsSpawned_ = pendingRestore_->threadsSpawned;
        syscalls_ = std::move(pendingRestore_->syscalls);
        nextFd_ = pendingRestore_->nextFd;
        pendingRestore_.reset();
    }

    // Reserve tile 0 for the application's main thread before any MCP
    // processing can begin.
    tileState_[0] = TileState::Busy;
    busyTiles_ = 1;

    mcpThread_ = std::thread([this] { mcpLoop(); });
    for (proc_id_t p = 0; p < topo.numProcesses(); ++p)
        lcpThreads_.emplace_back([this, p] { lcpLoop(p); });
}

void
ThreadManager::launchMain(thread_func_t func, void* arg)
{
    // The main thread enters the scheduling rotation before its host
    // thread exists, like any spawned thread (see handleSpawn).
    sim_.hostScheduler()->expectThread(0);
    lockdep::Guard lock(appThreadsMutex_);
    appThreads_.emplace_back([this, func, arg] {
        appTrampoline(0, func, arg, 0, /*is_main=*/true);
    });
}

void
ThreadManager::waitForShutdown()
{
    // The MCP defers the actual shutdown until every tile is free, so
    // this is safe to send while application threads still run.
    SysMsgHeader hdr{SysMsgType::Shutdown, INVALID_THREAD_ID, 0};
    NetPacket pkt;
    pkt.type = PacketType::System;
    pkt.sender = MCP_SENDER;
    pkt.receiver = INVALID_TILE_ID;
    pkt.payload = packSysMsg(hdr);
    sim_.transport().send(sim_.topology().mcpEndpoint(), std::move(pkt));

    if (mcpThread_.joinable())
        mcpThread_.join();
    for (auto& t : lcpThreads_) {
        if (t.joinable())
            t.join();
    }
    lockdep::Guard lock(appThreadsMutex_);
    for (auto& t : appThreads_) {
        if (t.joinable())
            t.join();
    }
}

// --------------------------------------------------------------- app thread

void
ThreadManager::appTrampoline(tile_id_t tile, thread_func_t func,
                             void* arg, cycle_t start_clock, bool is_main)
{
    // Join the host execution pool: announce our clock, then block
    // until the scheduler grants the first slot.
    host::HostScheduler* sched = sim_.hostScheduler();
    sched->registerThread(tile, &sim_.tile(tile).core());
    sched->start(tile);
    api::detail::bindContext(sim_, tile);
    // New occupant of the tile slot: bump the epoch. The slot's vector
    // clock is inherited — reuse of a freed tile is genuinely ordered
    // through the exit -> MCP -> spawn chain, so stale stack/heap words
    // from the previous occupant never report as races.
    if (race::Detector* det = sim_.raceDetector())
        det->threadStart(tile);
    Tile& t = sim_.tile(tile);
    CoreModel& core = t.core();
    core.forwardClock(start_clock);
    if (!is_main)
        core.executePseudo(PseudoInstr::Spawn, sim_.spawnCost());
    t.setOccupied(true);
    t.setRunning(true);
    sim_.syncModel().threadStart(core);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::ThreadStart, tile, core.cycle(),
        start_clock);
    cycle_t trace_start = core.cycle();

    func(arg);

    sim_.syncModel().threadExit(core);
    t.setRunning(false);
    t.setOccupied(false);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::ThreadExit, tile, core.cycle(),
        core.cycle());
    if (obs::TraceSink* trace = sim_.traceSink())
        trace->complete(static_cast<std::uint32_t>(tile),
                        is_main ? "thread.main" : "thread", trace_start,
                        core.cycle() - trace_start);

    // Tell the MCP this tile is free; join waiters observe our clock.
    SysMsgHeader hdr{SysMsgType::ThreadExit, tile, core.cycle()};
    NetPacket pkt;
    pkt.type = PacketType::System;
    pkt.sender = tile;
    pkt.receiver = INVALID_TILE_ID;
    pkt.time = core.cycle();
    pkt.payload = packSysMsg(hdr);
    sim_.transport().send(sim_.topology().mcpEndpoint(), std::move(pkt));
    // Deterministic mode: hold the slot until the MCP has freed the
    // tile, so exit effects land at a fixed point in the serialized
    // schedule; then leave the rotation.
    sched->requestFence(tile);
    sched->finishThread(tile);
    api::detail::unbindContext();
}

// --------------------------------------------------------------------- LCP

void
ThreadManager::lcpLoop(proc_id_t proc)
{
    endpoint_id_t ep = sim_.topology().lcpEndpoint(proc);
    while (true) {
        NetPacket pkt = sim_.transport().recv(ep, PacketType::System);
        if (pkt.sender == INVALID_TILE_ID)
            return; // transport shut down
        SysMsgHeader hdr = peekHeader(pkt.payload);
        switch (hdr.type) {
          case SysMsgType::SpawnToLcp: {
            auto body = unpackBody<SpawnBody>(pkt.payload);
            auto func = reinterpret_cast<thread_func_t>(body.func);
            auto* arg = reinterpret_cast<void*>(body.arg);
            tile_id_t tile = body.tile;
            cycle_t clock = hdr.timestamp;
            lockdep::Guard lock(appThreadsMutex_);
            appThreads_.emplace_back([this, tile, func, arg, clock] {
                appTrampoline(tile, func, arg, clock, /*is_main=*/false);
            });
            break;
          }
          case SysMsgType::LcpShutdown:
            return;
          default:
            panic("LCP {}: unexpected message type {}", proc,
                  static_cast<int>(hdr.type));
        }
    }
}

// --------------------------------------------------------------------- MCP

void
ThreadManager::mcpReplyToTile(tile_id_t tile, cycle_t timestamp,
                              std::vector<std::uint8_t> payload)
{
    NetPacket pkt;
    pkt.type = PacketType::System;
    pkt.sender = MCP_SENDER;
    pkt.receiver = tile;
    pkt.time = timestamp;
    pkt.payload = std::move(payload);
    sim_.transport().send(sim_.topology().tileEndpoint(tile),
                          std::move(pkt));
}

void
ThreadManager::mcpSendToLcp(proc_id_t proc,
                            std::vector<std::uint8_t> payload)
{
    NetPacket pkt;
    pkt.type = PacketType::System;
    pkt.sender = MCP_SENDER;
    pkt.receiver = INVALID_TILE_ID;
    pkt.payload = std::move(payload);
    sim_.transport().send(sim_.topology().lcpEndpoint(proc),
                          std::move(pkt));
}

void
ThreadManager::mcpLoop()
{
    endpoint_id_t ep = sim_.topology().mcpEndpoint();
    auto ns_since = [](std::chrono::steady_clock::time_point t0) {
        return static_cast<stat_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    };
    while (!shutdownDone_) {
        auto wait_start = std::chrono::steady_clock::now();
        NetPacket pkt = sim_.transport().recv(ep, PacketType::System);
        addSerialized(mcpWaitNs_, ns_since(wait_start));
        if (pkt.sender == INVALID_TILE_ID)
            return; // transport shut down
        auto dispatch_start = std::chrono::steady_clock::now();
        // One uncontended lock per dispatched message buys the
        // telemetry plane (waitSets()) a consistent read of the futex
        // queues, join waiters, and tile table.
        lockdep::Guard state_lock(mcpStateMutex_);
        SysMsgHeader hdr = peekHeader(pkt.payload);
        switch (hdr.type) {
          case SysMsgType::SpawnRequest:
            handleSpawn(hdr, unpackBody<SpawnBody>(pkt.payload));
            break;
          case SysMsgType::JoinRequest:
            handleJoin(hdr, unpackBody<JoinBody>(pkt.payload));
            break;
          case SysMsgType::ThreadExit:
            handleThreadExit(hdr);
            break;
          case SysMsgType::FutexWait:
            ++syscalls_[hdr.srcTile];
            handleFutexWait(hdr, unpackBody<FutexBody>(pkt.payload));
            break;
          case SysMsgType::FutexWake:
            ++syscalls_[hdr.srcTile];
            handleFutexWake(hdr, unpackBody<FutexBody>(pkt.payload));
            break;
          case SysMsgType::FileOp:
            ++syscalls_[hdr.srcTile];
            handleFileOp(hdr, pkt.payload);
            break;
          case SysMsgType::Shutdown:
            shutdownRequested_ = true;
            maybeFinishShutdown();
            break;
          default:
            panic("MCP: unexpected message type {}",
                  static_cast<int>(hdr.type));
        }
        // Deterministic-mode request fence: the sender holds its
        // execution slot until its message is fully dispatched, which
        // serializes MCP side effects into the schedule. Shutdown has
        // no requesting tile.
        if (hdr.srcTile >= 0)
            sim_.hostScheduler()->requestDispatched(hdr.srcTile);
        addSerialized(mcpDispatchNs_, ns_since(dispatch_start));
    }
}

void
ThreadManager::handleSpawn(const SysMsgHeader& hdr, const SpawnBody& body)
{
    // Pick the lowest-numbered free tile; striping of tiles across
    // processes makes low ids spread over processes (§3.5).
    tile_id_t chosen = INVALID_TILE_ID;
    for (tile_id_t t = 0;
         t < static_cast<tile_id_t>(tileState_.size()); ++t) {
        if (tileState_[t] == TileState::Free) {
            chosen = t;
            break;
        }
    }

    SpawnBody reply = body;
    if (chosen == INVALID_TILE_ID) {
        // "The maximum number of threads at any time may not exceed the
        // total number of cores" — a spawn beyond that is a user error.
        reply.error = 1;
        reply.tile = INVALID_TILE_ID;
    } else {
        tileState_[chosen] = TileState::Busy;
        ++busyTiles_;
        ++threadsSpawned_;
        exitClock_.erase(chosen);
        // Parent -> child ordering; applied before the LCP can start
        // the child, while the parent is blocked on SpawnReply.
        if (race::Detector* det = sim_.raceDetector())
            det->edge(hdr.srcTile, chosen);
        reply.error = 0;
        reply.tile = chosen;
        // Commit the tile to the rotation now: scheduling order must
        // not depend on how fast the LCP creates the host thread.
        sim_.hostScheduler()->expectThread(chosen);
        obs::telemetry::FlightRecorder::record(
            obs::telemetry::FrEvent::Spawn, hdr.srcTile, hdr.timestamp,
            static_cast<std::uint64_t>(chosen),
            static_cast<std::uint64_t>(hdr.srcTile));
        if (obs::TraceSink* trace = sim_.traceSink())
            trace->instant(
                static_cast<std::uint32_t>(sim_.topology().totalTiles()),
                "mcp.spawn", hdr.timestamp, "tile", chosen);
        debugc("core", "spawn: tile {} requested, tile {} chosen",
               hdr.srcTile, chosen);

        SysMsgHeader fwd{SysMsgType::SpawnToLcp, hdr.srcTile,
                         hdr.timestamp};
        SpawnBody fwd_body = body;
        fwd_body.tile = chosen;
        mcpSendToLcp(sim_.topology().processForTile(chosen),
                     packSysMsg(fwd, fwd_body));
    }

    SysMsgHeader rh{SysMsgType::SpawnReply, hdr.srcTile, hdr.timestamp};
    mcpReplyToTile(hdr.srcTile, hdr.timestamp, packSysMsg(rh, reply));
}

void
ThreadManager::handleJoin(const SysMsgHeader& hdr, const JoinBody& body)
{
    tile_id_t target = body.tile;
    GRAPHITE_ASSERT(target >= 0 &&
                    target < static_cast<tile_id_t>(tileState_.size()));
    auto it = exitClock_.find(target);
    if (tileState_[target] == TileState::Free && it != exitClock_.end()) {
        // Exited target -> joiner ordering (immediate-join path).
        if (race::Detector* det = sim_.raceDetector())
            det->edge(target, hdr.srcTile);
        JoinBody reply{target, it->second};
        SysMsgHeader rh{SysMsgType::JoinReply, hdr.srcTile, it->second};
        mcpReplyToTile(hdr.srcTile, it->second, packSysMsg(rh, reply));
    } else {
        joinWaiters_[target].push_back(hdr.srcTile);
    }
}

void
ThreadManager::handleThreadExit(const SysMsgHeader& hdr)
{
    tile_id_t tile = hdr.srcTile;
    GRAPHITE_ASSERT(tile >= 0 &&
                    tile < static_cast<tile_id_t>(tileState_.size()));
    GRAPHITE_ASSERT(tileState_[tile] == TileState::Busy);
    tileState_[tile] = TileState::Free;
    --busyTiles_;
    exitClock_[tile] = hdr.timestamp;

    auto wit = joinWaiters_.find(tile);
    if (wit != joinWaiters_.end()) {
        for (tile_id_t waiter : wit->second) {
            // Exited thread -> each queued joiner.
            if (race::Detector* det = sim_.raceDetector())
                det->edge(tile, waiter);
            // Deterministic wake: the joiner re-enters the rotation at
            // this dispatch, not when its host thread gets CPU time.
            sim_.hostScheduler()->notifyUnblocked(
                waiter, host::HostScheduler::BlockKind::Sys);
            JoinBody reply{tile, hdr.timestamp};
            SysMsgHeader rh{SysMsgType::JoinReply, waiter,
                            hdr.timestamp};
            mcpReplyToTile(waiter, hdr.timestamp, packSysMsg(rh, reply));
        }
        joinWaiters_.erase(wit);
    }
    maybeFinishShutdown();
}

void
ThreadManager::handleFutexWait(const SysMsgHeader& hdr,
                               const FutexBody& body)
{
    std::uint32_t current = 0;
    sim_.memory().readCoherent(body.addr, &current, sizeof(current));
    if (current != body.value) {
        FutexBody reply = body;
        reply.result = -1; // EWOULDBLOCK
        SysMsgHeader rh{SysMsgType::FutexWaitReply, hdr.srcTile,
                        hdr.timestamp};
        mcpReplyToTile(hdr.srcTile, hdr.timestamp, packSysMsg(rh, reply));
        return;
    }
    futexQueues_[body.addr].push_back(
        FutexWaiter{hdr.srcTile, body.value});
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::FutexWait, hdr.srcTile, hdr.timestamp,
        body.addr, body.value);
}

void
ThreadManager::handleFutexWake(const SysMsgHeader& hdr,
                               const FutexBody& body)
{
    auto qit = futexQueues_.find(body.addr);
    std::uint32_t woken = 0;
    std::uint32_t race_edges = 0;
    if (qit != futexQueues_.end()) {
        auto& queue = qit->second;
        while (woken < body.count && !queue.empty()) {
            FutexWaiter w = queue.front();
            queue.pop_front();
            ++woken;
            // The waker -> waiter happens-before edge forms ONLY here,
            // where the wake actually transfers (a queued waiter is
            // consumed). A futexWait that returned -1 on value mismatch
            // was never queued and gets no edge — futexWake alone
            // orders nothing it did not wake. Both endpoints are
            // blocked on MCP replies, so their clocks are quiescent.
            if (race::Detector* det = sim_.raceDetector()) {
                det->edge(hdr.srcTile, w.tile);
                ++race_edges;
            }
            sim_.hostScheduler()->notifyUnblocked(
                w.tile, host::HostScheduler::BlockKind::Sys);
            // The wakeup "occurs" at the waker's simulated time; the
            // waiter forwards its clock to this timestamp (§3.6.1).
            FutexBody reply{};
            reply.addr = body.addr;
            reply.result = 0;
            SysMsgHeader rh{SysMsgType::FutexWaitReply, w.tile,
                            hdr.timestamp};
            mcpReplyToTile(w.tile, hdr.timestamp, packSysMsg(rh, reply));
        }
        if (queue.empty())
            futexQueues_.erase(qit);
    }
    // Transfer-only invariant: one edge per consumed waiter, never for
    // unconsumed wake count (see tests/test_race.cpp regressions).
    GRAPHITE_ASSERT(sim_.raceDetector() == nullptr || race_edges == woken);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::FutexWake, hdr.srcTile, hdr.timestamp,
        body.addr, woken);
    FutexBody reply = body;
    reply.count = woken;
    reply.result = 0;
    SysMsgHeader rh{SysMsgType::FutexWakeReply, hdr.srcTile,
                    hdr.timestamp};
    mcpReplyToTile(hdr.srcTile, hdr.timestamp, packSysMsg(rh, reply));
}

void
ThreadManager::handleFileOp(const SysMsgHeader& hdr,
                            const std::vector<std::uint8_t>& raw)
{
    auto body = unpackBody<FileOpBody>(raw);
    auto extra = unpackExtra<FileOpBody>(raw);
    FileOpBody reply = body;
    std::vector<std::uint8_t> reply_extra;

    switch (body.op) {
      case FileOpBody::Open: {
        std::string path(extra.begin(), extra.end());
        const char* mode = body.flags == 1 ? "wb" : "rb";
        std::FILE* f = std::fopen(path.c_str(), mode);
        if (f == nullptr) {
            reply.result = -1;
        } else {
            std::int32_t fd = nextFd_++;
            files_[fd] = f;
            reply.result = fd;
        }
        break;
      }
      case FileOpBody::Close: {
        auto it = files_.find(body.fd);
        if (it == files_.end()) {
            reply.result = -1;
        } else {
            std::fclose(it->second);
            files_.erase(it);
            reply.result = 0;
        }
        break;
      }
      case FileOpBody::Read: {
        auto it = files_.find(body.fd);
        if (it == files_.end()) {
            reply.result = -1;
            break;
        }
        std::vector<std::uint8_t> data(body.length);
        size_t n = std::fread(data.data(), 1, data.size(), it->second);
        // Kernel-style copy into the target buffer.
        if (n > 0)
            sim_.memory().writeCoherent(body.bufAddr, data.data(), n);
        reply.result = static_cast<std::int64_t>(n);
        break;
      }
      case FileOpBody::Write: {
        auto it = files_.find(body.fd);
        if (it == files_.end()) {
            reply.result = -1;
            break;
        }
        size_t n =
            std::fwrite(extra.data(), 1, extra.size(), it->second);
        reply.result = static_cast<std::int64_t>(n);
        break;
      }
      case FileOpBody::Seek: {
        auto it = files_.find(body.fd);
        if (it == files_.end()) {
            reply.result = -1;
            break;
        }
        int whence = static_cast<int>(body.flags);
        reply.result =
            std::fseek(it->second, static_cast<long>(body.offset),
                       whence) == 0
                ? static_cast<std::int64_t>(std::ftell(it->second))
                : -1;
        break;
      }
      default:
        panic("MCP: bad file op {}", body.op);
    }

    SysMsgHeader rh{SysMsgType::FileOpReply, hdr.srcTile, hdr.timestamp};
    mcpReplyToTile(hdr.srcTile, hdr.timestamp,
                   packSysMsg(rh, reply, reply_extra.data(),
                              reply_extra.size()));
}

void
ThreadManager::maybeFinishShutdown()
{
    if (!shutdownRequested_ || busyTiles_ != 0 || shutdownDone_)
        return;
    shutdownDone_ = true;
    for (auto& [fd, f] : files_)
        std::fclose(f);
    files_.clear();
    SysMsgHeader hdr{SysMsgType::LcpShutdown, INVALID_THREAD_ID, 0};
    for (proc_id_t p = 0; p < sim_.topology().numProcesses(); ++p)
        mcpSendToLcp(p, packSysMsg(hdr));
}

stat_t
ThreadManager::syscallCount(tile_id_t tile) const
{
    GRAPHITE_ASSERT(tile >= 0 &&
                    tile < static_cast<tile_id_t>(syscalls_.size()));
    return syscalls_[tile];
}

stat_t
ThreadManager::totalSyscalls() const
{
    stat_t total = 0;
    for (stat_t s : syscalls_)
        total += s;
    return total;
}

void
ThreadManager::serialize(snapshot::Archive& ar)
{
    lockdep::Guard lock(mcpStateMutex_);
    const tile_id_t tiles = sim_.topology().totalTiles();
    PendingRestore image;
    if (ar.loading()) {
        image.syscalls.resize(static_cast<size_t>(tiles));
    } else {
        if (!futexQueues_.empty() || !joinWaiters_.empty())
            throw snapshot::SnapshotError(
                "snapshot: cannot checkpoint with blocked threads "
                "(futex/join wait queues are not empty)");
        // A staged restore is the authoritative state until the next
        // start() applies it: re-saving right after a restore must
        // reproduce the restored snapshot byte for byte.
        image = pendingRestore_ != nullptr
                    ? *pendingRestore_
                    : PendingRestore{exitClock_, threadsSpawned_,
                                     syscalls_, nextFd_};
    }
    ar.u64(image.threadsSpawned);
    ar.i64(image.nextFd);
    ar.expect(tiles, "syscall table tile count");
    for (stat_t& s : image.syscalls)
        ar.u64(s);
    ar.sorted(image.exitClock, [&](tile_id_t& tile, cycle_t& clock) {
        ar.i64(tile);
        ar.u64(clock);
    });
    if (ar.loading())
        pendingRestore_ = std::make_unique<PendingRestore>(std::move(image));
}

obs::telemetry::WaitSetSnapshot
ThreadManager::waitSets() const
{
    obs::telemetry::WaitSetSnapshot out;
    lockdep::Guard lock(mcpStateMutex_);
    out.busyTiles = busyTiles_;
    out.shutdownRequested = shutdownRequested_;
    out.futexes.reserve(futexQueues_.size());
    for (const auto& [addr, queue] : futexQueues_) {
        obs::telemetry::WaitSetSnapshot::FutexQueue q;
        q.addr = addr;
        q.waiters.reserve(queue.size());
        for (const FutexWaiter& w : queue)
            q.waiters.push_back(w.tile);
        out.futexes.push_back(std::move(q));
    }
    std::sort(out.futexes.begin(), out.futexes.end(),
              [](const auto& a, const auto& b) { return a.addr < b.addr; });
    out.joins.reserve(joinWaiters_.size());
    for (const auto& [target, waiters] : joinWaiters_) {
        obs::telemetry::WaitSetSnapshot::JoinQueue q;
        q.target = target;
        q.waiters = waiters;
        out.joins.push_back(std::move(q));
    }
    std::sort(out.joins.begin(), out.joins.end(),
              [](const auto& a, const auto& b) {
                  return a.target < b.target;
              });
    return out;
}

} // namespace graphite
