#include "core/api.h"

#include <cstring>
#include <limits>

#include "common/log.h"
#include "core/simulator.h"
#include "obs/metrics_sampler.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/trace_event.h"
#include "race/detector.h"

namespace graphite
{
namespace api
{

namespace
{

/** Per-host-thread binding to a tile of the current simulation. */
struct Context
{
    Simulator* sim = nullptr;
    tile_id_t tile = INVALID_TILE_ID;
    CoreModel* core = nullptr;
    Network* net = nullptr;
    host::HostScheduler* sched = nullptr;
    std::uint64_t sinceCheck = 0;
};

thread_local Context t_ctx;

Context&
ctx()
{
    GRAPHITE_ASSERT(t_ctx.sim != nullptr);
    return t_ctx;
}

/**
 * Periodic hook: after every modeled instruction batch, give the sync
 * model a chance to limit skew and the sampler a chance to record.
 */
void
tick(std::uint64_t instructions)
{
    Context& c = ctx();
    c.sinceCheck += instructions;
    cycle_t interval = c.sim->syncCheckInterval();
    if (c.sinceCheck < interval)
        return;
    c.sinceCheck = 0;
    // Cycle-threshold ROI switch: leave warmup once this tile's clock
    // passes snapshot/ff_detail_at (checked here so no workload
    // cooperation is needed).
    if (c.sim->fastForwarding() && c.sim->fastForwardDetailAt() > 0 &&
        c.core->cycle() >= c.sim->fastForwardDetailAt())
        c.sim->endFastForward();
    c.sim->syncModel().periodicSync(*c.core);
    // Cooperative quantum boundary: hand the execution slot to the
    // next runnable thread (and promote skew-parked ones) after at most
    // host/quantum_cycles of simulated progress.
    c.sched->quantumCheck(c.tile);
    if (obs::MetricsSampler* sampler = c.sim->metricsSampler())
        sampler->maybeSample();
}

/** Charge the syscall cost and send a request packet to the MCP. */
void
sendSysRequest(std::vector<std::uint8_t> payload)
{
    Context& c = ctx();
    c.core->addLatency(c.sim->syscallCost());
    NetPacket pkt;
    pkt.type = PacketType::System;
    pkt.sender = c.tile;
    pkt.receiver = INVALID_TILE_ID;
    pkt.time = c.core->cycle();
    pkt.payload = std::move(payload);
    // Model the request on the system network (magic by default, so no
    // latency — but the traffic is accounted; the MCP resides in
    // process 0, co-located with tile 0).
    c.sim->fabric().model(PacketType::System, c.tile, 0,
                          pkt.modeledBytes(), pkt.time);
    c.sim->transport().send(c.sim->topology().mcpEndpoint(),
                            std::move(pkt));
    // Deterministic mode: hold the slot until the MCP dispatched the
    // request, so its side effects land at a fixed schedule point.
    c.sched->requestFence(c.tile);
}

/**
 * Receive the next @p type packet. One that was already delivered is
 * consumed without giving up the execution slot or perturbing the sync
 * model. Otherwise the thread deregisters from the sync model while
 * blocked (a barrier must not wait on a sleeping thread) and releases
 * its slot for the wait.
 */
NetPacket
recvBlocking(PacketType type, host::HostScheduler::BlockKind kind)
{
    Context& c = ctx();
    NetPacket pkt;
    if (c.net->tryRecv(type, pkt))
        return pkt;
    c.sim->syncModel().threadBlocked(*c.core);
    c.sim->tile(c.tile).setRunning(false);
    c.sched->beginBlock(c.tile, kind);
    pkt = c.net->recv(type);
    c.sched->endBlock(c.tile);
    c.sim->tile(c.tile).setRunning(true);
    c.sim->syncModel().threadUnblocked(*c.core);
    return pkt;
}

/**
 * Block for the MCP's reply; the local clock forwards to the reply's
 * timestamp — the lax rule: "the clock of the tile is forwarded to the
 * time that the event occurred."
 */
NetPacket
recvSysReply()
{
    Context& c = ctx();
    NetPacket pkt = recvBlocking(PacketType::System,
                                 host::HostScheduler::BlockKind::Sys);
    GRAPHITE_ASSERT(pkt.sender == MCP_SENDER);
    cycle_t now = c.core->cycle();
    if (pkt.time > now) {
        if (obs::TraceSink* trace = c.sim->traceSink())
            trace->complete(static_cast<std::uint32_t>(c.tile), "sys.wait",
                            now, pkt.time - now);
        c.core->executePseudo(PseudoInstr::SyncWait, pkt.time - now);
    }
    return pkt;
}

SysMsgHeader
makeHeader(SysMsgType type)
{
    Context& c = ctx();
    return SysMsgHeader{type, c.tile, c.core->cycle()};
}

/**
 * Race-detector view of an atomic RMW: acquire from the address's sync
 * clock and, when @p release, publish to it. A failed CAS passes
 * release=false — it observes but publishes nothing.
 */
void
atomicRaceHook(addr_t addr, bool release)
{
    race::Detector* det = t_ctx.sim->raceDetector();
    if (det == nullptr || race::Detector::suppressed())
        return;
    det->onAtomic(t_ctx.tile, addr, release);
}

} // namespace

namespace detail
{

void
bindContext(Simulator& sim, tile_id_t tile)
{
    GRAPHITE_ASSERT(t_ctx.sim == nullptr);
    t_ctx.sim = &sim;
    t_ctx.tile = tile;
    t_ctx.core = &sim.tile(tile).core();
    t_ctx.net = &sim.tile(tile).network();
    t_ctx.sched = sim.hostScheduler();
    t_ctx.sinceCheck = 0;
}

void
unbindContext()
{
    t_ctx = Context{};
}

bool
bound()
{
    return t_ctx.sim != nullptr;
}

} // namespace detail

// ------------------------------------------------------------ identity/time

tile_id_t
tileId()
{
    return ctx().tile;
}

tile_id_t
numTiles()
{
    return ctx().sim->totalTiles();
}

cycle_t
cycle()
{
    return ctx().core->cycle();
}

// -------------------------------------------------------------------- ROI

void
roiBegin()
{
    ctx().sim->endFastForward();
}

void
roiEnd()
{
    ctx().sim->beginFastForward();
}

// ----------------------------------------------------------- dynamic memory

addr_t
malloc(std::uint64_t size)
{
    Context& c = ctx();
    c.core->addLatency(c.sim->syscallCost());
    addr_t addr = c.sim->memory().manager().allocate(size);
    // Reused storage carries no happens-before history: a block freed
    // by one thread and reallocated to another must not report the old
    // owner's accesses as racing.
    if (race::Detector* det = c.sim->raceDetector())
        det->clearRange(addr, size);
    return addr;
}

void
free(addr_t addr)
{
    Context& c = ctx();
    c.core->addLatency(c.sim->syscallCost());
    c.sim->memory().manager().deallocate(addr);
}

addr_t
brk(addr_t new_brk)
{
    Context& c = ctx();
    c.core->addLatency(c.sim->syscallCost());
    return c.sim->memory().manager().brk(new_brk);
}

addr_t
mmap(std::uint64_t length)
{
    Context& c = ctx();
    c.core->addLatency(c.sim->syscallCost());
    addr_t addr = c.sim->memory().manager().mmap(length);
    if (race::Detector* det = c.sim->raceDetector())
        det->clearRange(addr, length);
    return addr;
}

void
munmap(addr_t addr, std::uint64_t length)
{
    Context& c = ctx();
    c.core->addLatency(c.sim->syscallCost());
    c.sim->memory().manager().munmap(addr, length);
}

// --------------------------------------------------------- memory references

void
readMem(addr_t addr, void* out, size_t size)
{
    Context& c = ctx();
    AccessResult r = c.sim->memory().access(
        c.tile, MemAccessType::Read, addr, out, size, c.core->cycle());
    c.core->executeLoad(r.latency);
    tick(1);
}

void
writeMem(addr_t addr, const void* in, size_t size)
{
    Context& c = ctx();
    AccessResult r = c.sim->memory().access(
        c.tile, MemAccessType::Write, addr, const_cast<void*>(in), size,
        c.core->cycle());
    c.core->executeStore(r.latency);
    tick(1);
}

// ------------------------------------------------------------------ atomics

namespace
{

std::uint64_t
rmw(addr_t addr, size_t size,
    const std::function<std::uint64_t(std::uint64_t)>& op)
{
    Context& c = ctx();
    auto r = c.sim->memory().atomicRmw(c.tile, addr, size, op,
                                       c.core->cycle());
    // An atomic is a load + ALU op + store retiring as one unit; the
    // core blocks on it like a load.
    c.core->executeLoad(r.latency);
    tick(1);
    return r.oldValue;
}

} // namespace

std::uint32_t
atomicCas32(addr_t addr, std::uint32_t expected, std::uint32_t desired)
{
    auto old = static_cast<std::uint32_t>(
        rmw(addr, 4, [&](std::uint64_t v) {
            return v == expected ? desired
                                 : static_cast<std::uint32_t>(v);
        }));
    // A failed CAS is acquire-only: it reads the current value but
    // publishes nothing, so it must not form a release edge.
    atomicRaceHook(addr, old == expected);
    return old;
}

std::uint32_t
atomicExchange32(addr_t addr, std::uint32_t value)
{
    auto old = static_cast<std::uint32_t>(
        rmw(addr, 4, [&](std::uint64_t) { return value; }));
    atomicRaceHook(addr, true);
    return old;
}

std::uint32_t
atomicAdd32(addr_t addr, std::int32_t delta)
{
    auto old = static_cast<std::uint32_t>(
        rmw(addr, 4, [&](std::uint64_t v) {
            return static_cast<std::uint32_t>(v) +
                   static_cast<std::uint32_t>(delta);
        }));
    atomicRaceHook(addr, true);
    return old;
}

std::uint64_t
atomicAdd64(addr_t addr, std::int64_t delta)
{
    std::uint64_t old = rmw(addr, 8, [&](std::uint64_t v) {
        return v + static_cast<std::uint64_t>(delta);
    });
    atomicRaceHook(addr, true);
    return old;
}

void
annotateSite(const char* site)
{
    if (race::Detector* det = ctx().sim->raceDetector())
        det->setSite(site);
}

// ------------------------------------------------------- instruction events

void
exec(InstrClass c, std::uint64_t count)
{
    ctx().core->executeInstructions(c, count);
    tick(count);
}

void
branch(addr_t site, bool taken)
{
    ctx().core->executeBranch(site, taken);
    tick(1);
}

// -------------------------------------------------------------------- futex

int
futexWait(addr_t addr, std::uint32_t expected)
{
    FutexBody body{};
    body.addr = addr;
    body.value = expected;
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FutexWait), body));
    NetPacket reply = recvSysReply();
    SysMsgHeader hdr = peekHeader(reply.payload);
    GRAPHITE_ASSERT(hdr.type == SysMsgType::FutexWaitReply);
    return unpackBody<FutexBody>(reply.payload).result;
}

std::uint32_t
futexWake(addr_t addr, std::uint32_t count)
{
    FutexBody body{};
    body.addr = addr;
    body.count = count;
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FutexWake), body));
    NetPacket reply = recvSysReply();
    SysMsgHeader hdr = peekHeader(reply.payload);
    GRAPHITE_ASSERT(hdr.type == SysMsgType::FutexWakeReply);
    return unpackBody<FutexBody>(reply.payload).count;
}

// ---------------------------------------------------------------- threading

tile_id_t
threadSpawn(thread_func_t func, void* arg)
{
    SpawnBody body{};
    body.func = reinterpret_cast<std::uint64_t>(func);
    body.arg = reinterpret_cast<std::uint64_t>(arg);
    sendSysRequest(
        packSysMsg(makeHeader(SysMsgType::SpawnRequest), body));
    NetPacket reply = recvSysReply();
    SysMsgHeader hdr = peekHeader(reply.payload);
    GRAPHITE_ASSERT(hdr.type == SysMsgType::SpawnReply);
    auto rbody = unpackBody<SpawnBody>(reply.payload);
    if (rbody.error != 0)
        fatal("threadSpawn: no free tile (threads may not exceed the "
              "number of target tiles)");
    return rbody.tile;
}

void
threadJoin(tile_id_t tile)
{
    JoinBody body{};
    body.tile = tile;
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::JoinRequest), body));
    NetPacket reply = recvSysReply();
    SysMsgHeader hdr = peekHeader(reply.payload);
    GRAPHITE_ASSERT(hdr.type == SysMsgType::JoinReply);
}

// ---------------------------------------------------------------- messaging

void
msgSend(tile_id_t dst, const void* data, size_t len)
{
    Context& c = ctx();
    GRAPHITE_ASSERT(dst >= 0 && dst < c.sim->totalTiles());
    std::vector<std::uint8_t> payload(len);
    std::memcpy(payload.data(), data, len);
    // Push the sender's clock before the packet becomes receivable; the
    // per-(sender,receiver) channel is FIFO like the transport.
    if (race::Detector* det = c.sim->raceDetector())
        det->msgSendEdge(c.tile, dst);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::MsgSend, c.tile, c.core->cycle(),
        static_cast<std::uint64_t>(dst), len);
    c.net->send(PacketType::App, dst, std::move(payload),
                c.core->cycle());
    // Deterministic wake of a receiver blocked in msgRecv (no-op in
    // free_running mode and when the receiver is not App-blocked).
    c.sched->notifyUnblocked(dst, host::HostScheduler::BlockKind::App);
    // The send itself occupies the core briefly.
    c.core->executeInstructions(InstrClass::IntAlu, 1);
    tick(1);
}

Message
msgRecv()
{
    Context& c = ctx();
    NetPacket pkt =
        recvBlocking(PacketType::App, host::HostScheduler::BlockKind::App);
    if (race::Detector* det = c.sim->raceDetector())
        det->msgRecvEdge(pkt.sender, c.tile);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::MsgRecv, c.tile, c.core->cycle(),
        static_cast<std::uint64_t>(pkt.sender), pkt.payload.size());

    // Receiving a message is a true synchronization event: forward the
    // clock to the packet's arrival time, then consume the "message
    // receive pseudo-instruction" (§3.1).
    cycle_t now = c.core->cycle();
    if (pkt.time > now) {
        if (obs::TraceSink* trace = c.sim->traceSink())
            trace->complete(static_cast<std::uint32_t>(c.tile), "msg.wait",
                            now, pkt.time - now);
        c.core->executePseudo(PseudoInstr::SyncWait, pkt.time - now);
    }
    c.core->executePseudo(PseudoInstr::MessageReceive, 1);
    tick(1);

    Message msg;
    msg.sender = pkt.sender;
    msg.data = std::move(pkt.payload);
    return msg;
}

// ------------------------------------------------------------------ file IO

int
fileOpen(const char* path, int flags)
{
    FileOpBody body{};
    body.op = FileOpBody::Open;
    body.flags = static_cast<std::uint32_t>(flags);
    size_t len = std::strlen(path);
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FileOp), body, path,
                              len));
    NetPacket reply = recvSysReply();
    return static_cast<int>(
        unpackBody<FileOpBody>(reply.payload).result);
}

std::int64_t
fileRead(int fd, addr_t buf, std::uint64_t len)
{
    FileOpBody body{};
    body.op = FileOpBody::Read;
    body.fd = fd;
    body.length = len;
    body.bufAddr = buf;
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FileOp), body));
    NetPacket reply = recvSysReply();
    return unpackBody<FileOpBody>(reply.payload).result;
}

std::int64_t
fileWrite(int fd, addr_t buf, std::uint64_t len)
{
    Context& c = ctx();
    // Kernel copy of the target buffer travels with the request.
    std::vector<std::uint8_t> data(len);
    c.sim->memory().readCoherent(buf, data.data(), len);
    FileOpBody body{};
    body.op = FileOpBody::Write;
    body.fd = fd;
    body.length = len;
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FileOp), body,
                              data.data(), data.size()));
    NetPacket reply = recvSysReply();
    return unpackBody<FileOpBody>(reply.payload).result;
}

std::int64_t
fileSeek(int fd, std::int64_t offset, int whence)
{
    FileOpBody body{};
    body.op = FileOpBody::Seek;
    body.fd = fd;
    body.offset = offset;
    body.flags = static_cast<std::uint32_t>(whence);
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FileOp), body));
    NetPacket reply = recvSysReply();
    return unpackBody<FileOpBody>(reply.payload).result;
}

int
fileClose(int fd)
{
    FileOpBody body{};
    body.op = FileOpBody::Close;
    body.fd = fd;
    sendSysRequest(packSysMsg(makeHeader(SysMsgType::FileOp), body));
    NetPacket reply = recvSysReply();
    return static_cast<int>(
        unpackBody<FileOpBody>(reply.payload).result);
}

// --------------------------------------------------------- sync primitives
//
// The race detector treats this library the way TSan treats pthreads:
// the implementation's internal accesses and atomics are masked with
// InternalScope (a happens-before analysis of the raw futex spin loops
// would flag benign patterns such as the barrier's plain count reset),
// and each primitive instead contributes one lock-level edge —
// acquireAddr after a lock is obtained, releaseAddr before it is
// published free, barrierArrive/Leave around the generation. Condvars
// need no extra edges: the protected data is ordered by the mutex, and
// the futexWake -> futexWait transfer edge is applied at the MCP.

void
mutexInit(addr_t m)
{
    race::Detector::InternalScope guard;
    write<std::uint32_t>(m, 0);
}

void
mutexLock(addr_t m)
{
    {
        race::Detector::InternalScope guard;
        // glibc-style futex lock: 0 free, 1 locked, 2 contended.
        std::uint32_t c = atomicCas32(m, 0, 1);
        if (c != 0) {
            do {
                if (c == 2 || atomicCas32(m, 1, 2) != 0)
                    futexWait(m, 2);
            } while ((c = atomicCas32(m, 0, 2)) != 0);
        }
    }
    if (race::Detector* det = ctx().sim->raceDetector())
        det->acquireAddr(ctx().tile, m);
}

void
mutexUnlock(addr_t m)
{
    if (race::Detector* det = ctx().sim->raceDetector())
        det->releaseAddr(ctx().tile, m);
    race::Detector::InternalScope guard;
    std::uint32_t old = atomicExchange32(m, 0);
    GRAPHITE_ASSERT(old != 0);
    if (old == 2)
        futexWake(m, 1);
}

void
barrierInit(addr_t b, std::uint32_t participants)
{
    GRAPHITE_ASSERT(participants > 0);
    race::Detector::InternalScope guard;
    write<std::uint32_t>(b, 0);                 // arrival count
    write<std::uint32_t>(b + 4, 0);             // generation
    write<std::uint32_t>(b + 8, participants);  // total
}

void
barrierWait(addr_t b)
{
    race::Detector::InternalScope guard;
    addr_t count = b;
    addr_t gen = b + 4;
    std::uint32_t total = read<std::uint32_t>(b + 8);
    std::uint32_t g = read<std::uint32_t>(gen);
    // Arrival joins our clock into the generation's pending set and
    // must precede the count increment that publishes the arrival.
    race::Detector* det = ctx().sim->raceDetector();
    std::uint64_t rgen = 0;
    if (det)
        rgen = det->barrierArrive(ctx().tile, b, total);
    std::uint32_t n = atomicAdd32(count, 1) + 1;
    if (n == total) {
        write<std::uint32_t>(count, 0);
        atomicAdd32(gen, 1);
        futexWake(gen, std::numeric_limits<std::uint32_t>::max());
    } else {
        while (read<std::uint32_t>(gen) == g) {
            // The MCP compares against the coherent value, so a
            // mismatch means the generation already advanced even when
            // our cached copy is stale — the barrier is open.
            if (futexWait(gen, g) != 0)
                break;
        }
    }
    if (det)
        det->barrierLeave(ctx().tile, b, rgen);
}

void
condInit(addr_t cv)
{
    race::Detector::InternalScope guard;
    write<std::uint32_t>(cv, 0);
}

void
condWait(addr_t cv, addr_t m)
{
    std::uint32_t seq;
    {
        race::Detector::InternalScope guard;
        seq = read<std::uint32_t>(cv);
    }
    mutexUnlock(m);
    futexWait(cv, seq);
    mutexLock(m);
}

void
condSignal(addr_t cv)
{
    race::Detector::InternalScope guard;
    atomicAdd32(cv, 1);
    futexWake(cv, 1);
}

void
condBroadcast(addr_t cv)
{
    race::Detector::InternalScope guard;
    atomicAdd32(cv, 1);
    futexWake(cv, std::numeric_limits<std::uint32_t>::max());
}

} // namespace api
} // namespace graphite
