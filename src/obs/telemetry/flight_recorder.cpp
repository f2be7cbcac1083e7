#include "obs/telemetry/flight_recorder.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "common/lockdep.h"

namespace graphite
{
namespace obs
{
namespace telemetry
{

std::atomic<bool> FlightRecorder::armedFlag_{false};

namespace
{

// ---- async-signal-safe formatting helpers ----
//
// The crash path may not call snprintf (not guaranteed signal-safe) or
// anything that allocates. These format into caller stack buffers and
// write(2) directly.

std::size_t
fmtU64(char* buf, std::uint64_t v)
{
    char tmp[20];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = tmp[n - 1 - i];
    return n;
}

std::size_t
fmtI64(char* buf, std::int64_t v)
{
    if (v < 0) {
        buf[0] = '-';
        return 1 + fmtU64(buf + 1, static_cast<std::uint64_t>(-v));
    }
    return fmtU64(buf, static_cast<std::uint64_t>(v));
}

std::size_t
fmtHex(char* buf, std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    char tmp[16];
    std::size_t n = 0;
    do {
        tmp[n++] = digits[v & 0xf];
        v >>= 4;
    } while (v != 0);
    buf[0] = '0';
    buf[1] = 'x';
    for (std::size_t i = 0; i < n; ++i)
        buf[2 + i] = tmp[n - 1 - i];
    return 2 + n;
}

void
writeAllFd(int fd, const char* data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        ssize_t w = ::write(fd, data + off, len - off);
        if (w <= 0)
            return; // best effort: a crash dump must never loop forever
        off += static_cast<std::size_t>(w);
    }
}

void
writeStr(int fd, const char* s)
{
    writeAllFd(fd, s, std::strlen(s));
}

// ---- crash-handler global state ----
//
// Signal handlers cannot carry context, so the handler reaches the
// recorder through the singleton and this fixed path buffer.

char g_crashPath[512] = {0};
std::atomic<bool> g_handlerInstalled{false};
struct sigaction g_oldActions[5];
const int g_signals[5] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

void
crashHandler(int sig)
{
    // One shot: restore default dispositions first so a second fault
    // inside the dump terminates instead of recursing.
    for (std::size_t i = 0; i < 5; ++i)
        ::sigaction(g_signals[i], &g_oldActions[i], nullptr);
    g_handlerInstalled.store(false, std::memory_order_relaxed);

    int fd = ::open(g_crashPath,
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
        char buf[64];
        writeStr(fd, "=== graphite crash dump (signal ");
        writeAllFd(fd, buf, fmtI64(buf, sig));
        writeStr(fd, ") ===\n");
        FlightRecorder::instance().dumpToFd(fd);
        // Which thread held/awaited which lock when we died — written
        // with the same write(2)-only discipline (see lockdep.h).
        lockdep::dumpHeldSetsToFd(fd);
        ::close(fd);
    }
    ::raise(sig);
}

} // namespace

const char*
frEventName(FrEvent e)
{
    switch (e) {
      case FrEvent::ThreadStart: return "thread_start";
      case FrEvent::ThreadExit: return "thread_exit";
      case FrEvent::Spawn: return "spawn";
      case FrEvent::FutexWait: return "futex_wait";
      case FrEvent::FutexWake: return "futex_wake";
      case FrEvent::MsgSend: return "msg_send";
      case FrEvent::MsgRecv: return "msg_recv";
      case FrEvent::SyncBarrier: return "sync_barrier";
      case FrEvent::SyncSleep: return "sync_sleep";
      case FrEvent::MissPath: return "miss_path";
      case FrEvent::Writeback: return "writeback";
      case FrEvent::WatchdogFlag: return "watchdog_flag";
      case FrEvent::Causality: return "causality";
      case FrEvent::Custom: return "custom";
    }
    return "?";
}

FlightRecorder&
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::configure(std::size_t capacity)
{
    std::size_t cap = 16;
    while (cap < capacity && cap < (std::size_t{1} << 24))
        cap <<= 1;
    slots_.clear();
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    head_.store(0, std::memory_order_relaxed);
    dumpScratch_.resize(cap);
}

void
FlightRecorder::setArmed(bool on)
{
    // Arming an unconfigured recorder gets the default ring.
    if (on && slots_.empty())
        configure(4096);
    armedFlag_.store(on, std::memory_order_relaxed);
}

void
FlightRecorder::push(FrEvent type, tile_id_t tile, cycle_t cycle,
                     std::uint64_t a, std::uint64_t b)
{
    if (slots_.empty())
        return;
    std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & mask_];
    // Seqlock write: odd while the payload is inconsistent. The fence
    // keeps the payload stores from moving above the odd stamp, so a
    // reader that copied any of them sees the stamp change. Two writers
    // on one slot (a slow one lapped by a fast one) can still leave a
    // record mixing both; that needs a writer stalled for a whole lap.
    constexpr auto relaxed = std::memory_order_relaxed;
    s.seq.store(2 * ticket + 1, relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.type.store(type, relaxed);
    s.tile.store(tile, relaxed);
    s.cycle.store(cycle, relaxed);
    s.a.store(a, relaxed);
    s.b.store(b, relaxed);
    s.order.store(ticket, relaxed);
    s.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::uint64_t
FlightRecorder::recorded() const
{
    return head_.load(std::memory_order_relaxed);
}

std::size_t
FlightRecorder::snapshot(TakenSlot* scratch, std::size_t max) const
{
    std::size_t n = 0;
    for (const Slot& s : slots_) {
        if (n >= max)
            break;
        std::uint64_t before = s.seq.load(std::memory_order_acquire);
        if (before == 0 || (before & 1) != 0)
            continue; // empty or mid-write
        constexpr auto relaxed = std::memory_order_relaxed;
        TakenSlot t;
        t.type = s.type.load(relaxed);
        t.tile = s.tile.load(relaxed);
        t.cycle = s.cycle.load(relaxed);
        t.a = s.a.load(relaxed);
        t.b = s.b.load(relaxed);
        t.order = s.order.load(relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) != before)
            continue; // torn by a concurrent writer
        scratch[n++] = t;
    }
    std::sort(scratch, scratch + n,
              [](const TakenSlot& x, const TakenSlot& y) {
                  return x.order < y.order;
              });
    return n;
}

void
FlightRecorder::dumpToFd(int fd) const
{
    char buf[32];
    writeStr(fd, "=== flight recorder (");
    writeAllFd(fd, buf, fmtU64(buf, recorded()));
    writeStr(fd, " events recorded, capacity ");
    writeAllFd(fd, buf, fmtU64(buf, capacity()));
    writeStr(fd, ") ===\n");
    if (slots_.empty() || dumpScratch_.empty())
        return;
    std::size_t n = snapshot(dumpScratch_.data(), dumpScratch_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TakenSlot& t = dumpScratch_[i];
        writeStr(fd, "fr ");
        writeAllFd(fd, buf, fmtU64(buf, t.order));
        writeStr(fd, " ");
        writeStr(fd, frEventName(t.type));
        writeStr(fd, " tile=");
        writeAllFd(fd, buf, fmtI64(buf, t.tile));
        writeStr(fd, " cycle=");
        writeAllFd(fd, buf, fmtU64(buf, t.cycle));
        writeStr(fd, " a=");
        writeAllFd(fd, buf, fmtHex(buf, t.a));
        writeStr(fd, " b=");
        writeAllFd(fd, buf, fmtHex(buf, t.b));
        writeStr(fd, "\n");
    }
}

std::string
FlightRecorder::dump(std::size_t max_events) const
{
    std::string out;
    out += "=== flight recorder (";
    char buf[32];
    out.append(buf, fmtU64(buf, recorded()));
    out += " events recorded, capacity ";
    out.append(buf, fmtU64(buf, capacity()));
    out += ") ===\n";
    if (slots_.empty())
        return out;
    std::vector<TakenSlot> scratch(slots_.size());
    std::size_t n = snapshot(scratch.data(), scratch.size());
    std::size_t first =
        (max_events > 0 && n > max_events) ? n - max_events : 0;
    for (std::size_t i = first; i < n; ++i) {
        const TakenSlot& t = scratch[i];
        out += "fr ";
        out.append(buf, fmtU64(buf, t.order));
        out += " ";
        out += frEventName(t.type);
        out += " tile=";
        out.append(buf, fmtI64(buf, t.tile));
        out += " cycle=";
        out.append(buf, fmtU64(buf, t.cycle));
        out += " a=";
        out.append(buf, fmtHex(buf, t.a));
        out += " b=";
        out.append(buf, fmtHex(buf, t.b));
        out += "\n";
    }
    return out;
}

void
FlightRecorder::installCrashHandler(const std::string& path)
{
    std::size_t n = std::min(path.size(), sizeof(g_crashPath) - 1);
    std::memcpy(g_crashPath, path.data(), n);
    g_crashPath[n] = '\0';
    if (g_handlerInstalled.load(std::memory_order_relaxed))
        return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &crashHandler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    for (std::size_t i = 0; i < 5; ++i)
        ::sigaction(g_signals[i], &sa, &g_oldActions[i]);
    g_handlerInstalled.store(true, std::memory_order_relaxed);
}

void
FlightRecorder::uninstallCrashHandler()
{
    if (!g_handlerInstalled.load(std::memory_order_relaxed))
        return;
    for (std::size_t i = 0; i < 5; ++i)
        ::sigaction(g_signals[i], &g_oldActions[i], nullptr);
    g_handlerInstalled.store(false, std::memory_order_relaxed);
}

bool
FlightRecorder::crashHandlerInstalled() const
{
    return g_handlerInstalled.load(std::memory_order_relaxed);
}

} // namespace telemetry
} // namespace obs
} // namespace graphite
