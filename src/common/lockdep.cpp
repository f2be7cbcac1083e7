#include "common/lockdep.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <pthread.h>
#include <unistd.h>

#include "common/strfmt.h"

namespace graphite::lockdep
{

namespace
{

struct ClassInfo {
    const char* name;
    ClassFlags flags;
};

constexpr ClassInfo CLASS_INFO[NUM_LOCK_CLASSES] = {
#define LOCK_CLASS(name, flags) {#name, ClassFlags::flags},
#include "common/lock_order.def"
#undef LOCK_CLASS
};

} // namespace

const char*
lockClassName(LockClass cls)
{
    int i = static_cast<int>(cls);
    if (i < 0 || i >= NUM_LOCK_CLASSES)
        return "<bad-class>";
    return CLASS_INFO[i].name;
}

ClassFlags
lockClassFlags(LockClass cls)
{
    int i = static_cast<int>(cls);
    if (i < 0 || i >= NUM_LOCK_CLASSES)
        return ClassFlags::NONE;
    return CLASS_INFO[i].flags;
}

#if GRAPHITE_LOCKDEP_ON
inline namespace ld_on
{

namespace
{

using detail::Entry;
using detail::MAX_HELD;
using detail::ThreadState;

// True when entry @p e accounts for the held mutex @p m.
bool
covers(const Entry& e, const OrderedMutex* m)
{
    if (e.mutex != nullptr)
        return e.mutex == m;
    return e.cls == m->lockClass() && m->instance() >= e.instance &&
           m->instance() <= e.last;
}

// "5" for one lock, "0..63 x64" for a run.
std::string
instanceText(std::int64_t instance, std::int64_t last, int count)
{
    if (count <= 1 && last == instance)
        return strfmt("{}", instance);
    return strfmt("{}..{} x{}", instance, last, count);
}

// Global registry of per-thread states for heldSnapshot(). States are
// heap-allocated once and recycled (never freed) so a dump racing a
// thread exit never touches freed memory. Guarded by metaMutex() —
// deliberately a raw std::mutex: lockdep must not track its own
// internals (tools/lock_audit.py allowlists this file).
std::mutex&
metaMutex()
{
    static std::mutex m;
    return m;
}

std::vector<ThreadState*>&
threadRegistry()
{
    static std::vector<ThreadState*> reg;
    return reg;
}

// Fixed-size mirror of the registry for the async-signal-safe crash
// dump: a signal handler cannot take metaMutex() or walk a vector that
// a racing push_back may be reallocating. Slots are written once
// (under metaMutex) and never change; the handler reads them with
// acquire loads only.
constexpr int MAX_THREAD_STATES = 1024;
std::atomic<ThreadState*> g_stateTable[MAX_THREAD_STATES];
std::atomic<int> g_stateCount{0};

// Frees the thread's state for reuse when the thread exits, and detaches
// it: a lock taken later in the thread's exit must not write a state
// that another thread may have taken over.
struct ThreadHandle {
    ThreadState* state = nullptr;
    ~ThreadHandle()
    {
        detail::t_held = nullptr;
        if (state != nullptr) {
            state->depth.store(0, std::memory_order_relaxed);
            state->waiting.store(false, std::memory_order_relaxed);
            state->alive.store(false, std::memory_order_release);
            state = nullptr;
        }
    }
};

// The calling thread's held set. The first call in a thread attaches
// one, a dead thread's if there is one, and publishes it in t_held.
ThreadState&
threadState()
{
    if (detail::t_held != nullptr)
        return *detail::t_held;
    thread_local ThreadHandle handle;
    if (handle.state == nullptr) {
        std::scoped_lock lock(metaMutex());
        auto& reg = threadRegistry();
        for (ThreadState* ts : reg) {
            if (!ts->alive.load(std::memory_order_acquire)) {
                ts->alive.store(true, std::memory_order_relaxed);
                handle.state = ts;
                break;
            }
        }
        if (handle.state == nullptr) {
            handle.state = new ThreadState();
            reg.push_back(handle.state);
            int idx = g_stateCount.load(std::memory_order_relaxed);
            if (idx < MAX_THREAD_STATES) {
                g_stateTable[idx].store(handle.state,
                                        std::memory_order_release);
                g_stateCount.store(idx + 1,
                                   std::memory_order_release);
            }
        }
        handle.state->threadId =
            static_cast<std::uint64_t>(pthread_self());
    }
    detail::t_held = handle.state;
    return *handle.state;
}

// Class-pair edge table: edge[a][b] records the first observed
// acquisition of class b while holding class a, with both sites.
struct EdgeRec {
    std::atomic<bool> seen{false};
    const char* holderFile = nullptr;
    int holderLine = 0;
    const char* acqFile = nullptr;
    int acqLine = 0;
};

EdgeRec&
edge(LockClass from, LockClass to)
{
    static EdgeRec table[NUM_LOCK_CLASSES][NUM_LOCK_CLASSES];
    return table[static_cast<int>(from)][static_cast<int>(to)];
}

std::atomic<std::uint64_t> g_violations{0};
std::mutex&
reportMutex()
{
    static std::mutex m;
    return m;
}
std::string&
lastReportStorage()
{
    static std::string s;
    return s;
}

// Warn mode logs each distinct class pair only once.
std::atomic<bool> (&warnedTable())[NUM_LOCK_CLASSES][NUM_LOCK_CLASSES]
{
    static std::atomic<bool>
        warned[NUM_LOCK_CLASSES][NUM_LOCK_CLASSES];
    return warned;
}

bool
warnedPair(LockClass a, LockClass b)
{
    return warnedTable()[static_cast<int>(a)][static_cast<int>(b)]
        .exchange(true, std::memory_order_relaxed);
}

std::atomic<int> g_modeOverride{-1};

Mode
envMode()
{
    static Mode cached = [] {
        const char* env = std::getenv("GRAPHITE_LOCKDEP");
        if (env == nullptr)
            return Mode::Enforce;
        if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)
            return Mode::Off;
        if (std::strcmp(env, "warn") == 0)
            return Mode::Warn;
        return Mode::Enforce;
    }();
    return cached;
}

std::string
describeHeld(const ThreadState& ts)
{
    std::string out;
    int depth = ts.depth.load(std::memory_order_acquire);
    for (int i = 0; i < depth && i < MAX_HELD; ++i) {
        const Entry& e = ts.held[i];
        out += strfmt("\n    [{}] '{}' instance {} acquired at {}:{}", i,
                      lockClassName(e.cls),
                      instanceText(e.instance, e.last, e.count),
                      e.file != nullptr ? e.file : "?", e.line);
    }
    return out;
}

// Report a violation. `held` is the already-held entry that conflicts
// with acquiring (cls, instance) at file:line.
void
report(const ThreadState& ts, const Entry& held, LockClass cls,
       std::int64_t instance, const char* file, int line,
       const char* rule)
{
    Mode m = mode();
    if (m == Mode::Off)
        return;
    g_violations.fetch_add(1, std::memory_order_relaxed);
    if (m == Mode::Warn && warnedPair(held.cls, cls))
        return;

    std::string msg = strfmt(
        "lockdep: lock-order violation (potential deadlock)\n"
        "  acquiring '{}' instance {} at {}:{}\n"
        "  while holding '{}' instance {} acquired at {}:{}\n"
        "  rule: {}",
        lockClassName(cls), instance, file, line,
        lockClassName(held.cls),
        instanceText(held.instance, held.last, held.count),
        held.file != nullptr ? held.file : "?", held.line, rule);

    // If the opposite order has been observed before, name that edge's
    // sites too: the pair proves both orders occur in the codebase.
    const EdgeRec& rev = edge(cls, held.cls);
    if (cls != held.cls && rev.seen.load(std::memory_order_acquire)) {
        msg += strfmt("\n  opposite order previously observed: '{}' "
                      "held at {}:{} while acquiring '{}' at {}:{}",
                      lockClassName(cls), rev.holderFile,
                      rev.holderLine, lockClassName(held.cls),
                      rev.acqFile, rev.acqLine);
    }
    msg += "\n  full held-set (outermost first):";
    msg += describeHeld(ts);
    msg += "\n";

    {
        std::scoped_lock lock(reportMutex());
        lastReportStorage() = msg;
    }
    // fprintf, not log(): the logger's own mutexes are lockdep classes
    // and a report can fire while they are held.
    std::fputs(msg.c_str(), stderr);
    std::fflush(stderr);
    if (m == Mode::Enforce)
        std::_Exit(87);
}

// Order-check acquiring (cls, instance) against every held lock, then
// record the class-pair edges. Runs BEFORE the underlying lock() so an
// inversion is reported instead of deadlocking.
void
checkAcquire(ThreadState& ts, LockClass cls, std::int64_t instance,
             const char* file, int line)
{
    int depth = ts.depth.load(std::memory_order_relaxed);
    std::uint16_t rank = static_cast<std::uint16_t>(cls);
    for (int i = 0; i < depth; ++i) {
        const Entry& h = ts.held[i];
        if (h.cls == cls) {
            ClassFlags f = lockClassFlags(cls);
            if (f == ClassFlags::MULTI)
                continue;
            if (f == ClassFlags::ORDERED) {
                if (instance > h.last)
                    continue;
                report(ts, h, cls, instance, file, line,
                       "same-class ORDERED locks must be acquired in "
                       "strictly ascending instance order");
            } else {
                report(ts, h, cls, instance, file, line,
                       "same-class nesting is not allowed for this "
                       "class (flags NONE)");
            }
            continue;
        }
        if (static_cast<std::uint16_t>(h.cls) >= rank) {
            report(ts, h, cls, instance, file, line,
                   strfmt("declared hierarchy (lock_order.def) puts "
                          "'{}' (rank {}) before '{}' (rank {})",
                          lockClassName(cls), rank,
                          lockClassName(h.cls),
                          static_cast<int>(h.cls))
                       .c_str());
        }
        // Record the first-seen edge with both sites (also in warn/off
        // mode: the table is how later inversions name this order).
        EdgeRec& e = edge(h.cls, cls);
        if (!e.seen.load(std::memory_order_relaxed)) {
            std::scoped_lock lock(metaMutex());
            if (!e.seen.load(std::memory_order_relaxed)) {
                e.holderFile = h.file;
                e.holderLine = h.line;
                e.acqFile = file;
                e.acqLine = line;
                e.seen.store(true, std::memory_order_release);
            }
        }
    }
}

void
push(ThreadState& ts, const OrderedMutex* m, LockClass cls,
     std::int64_t instance, const char* file, int line)
{
    int depth = ts.depth.load(std::memory_order_relaxed);
    if (depth > 0) {
        Entry& top = ts.held[depth - 1];
        if (top.cls == cls && lockClassFlags(cls) == ClassFlags::ORDERED &&
            instance > top.last) {
            top.mutex = nullptr;
            top.last = instance;
            ++top.count;
            return;
        }
    }
    if (depth >= MAX_HELD) {
        std::fprintf(stderr,
                     "lockdep: held-set overflow (depth %d) acquiring "
                     "'%s' at %s:%d\n",
                     depth, lockClassName(cls), file, line);
        std::fflush(stderr);
        std::_Exit(87);
    }
    ts.held[depth] = {m, cls, instance, instance, 1, file, line};
    ts.depth.store(depth + 1, std::memory_order_release);
}

void
pop(ThreadState& ts, const OrderedMutex* m)
{
    int depth = ts.depth.load(std::memory_order_relaxed);
    for (int i = depth - 1; i >= 0; --i) {
        Entry& e = ts.held[i];
        if (!covers(e, m))
            continue;
        if (e.count > 1) {
            // Partial release of a run. Its instances are distinct, so
            // a released end moves the bound inward by one; an interior
            // release keeps both bounds, which can only over-report.
            --e.count;
            if (m->instance() == e.last)
                --e.last;
            else if (m->instance() == e.instance)
                ++e.instance;
            return;
        }
        for (int j = i; j < depth - 1; ++j)
            ts.held[j] = ts.held[j + 1];
        ts.depth.store(depth - 1, std::memory_order_release);
        return;
    }
    std::fprintf(stderr,
                 "lockdep: unlocking '%s' which this thread does not "
                 "hold\n",
                 lockClassName(m->lockClass()));
    std::fflush(stderr);
    std::_Exit(87);
}

void
beginPending(ThreadState& ts, const OrderedMutex* m, const char* file,
             int line)
{
    ts.pending = {m, m->lockClass(), m->instance(), m->instance(), 1,
                  file, line};
    ts.waiting.store(true, std::memory_order_release);
}

void
endPending(ThreadState& ts)
{
    ts.waiting.store(false, std::memory_order_release);
}

} // namespace

Mode
mode()
{
    int ov = g_modeOverride.load(std::memory_order_relaxed);
    if (ov >= 0)
        return static_cast<Mode>(ov);
    return envMode();
}

void
setMode(Mode m)
{
    g_modeOverride.store(static_cast<int>(m),
                         std::memory_order_relaxed);
}

std::uint64_t
violationCount()
{
    return g_violations.load(std::memory_order_relaxed);
}

std::string
lastReport()
{
    std::scoped_lock lock(reportMutex());
    return lastReportStorage();
}

void
resetForTest()
{
    std::scoped_lock meta(metaMutex());
    for (int a = 0; a < NUM_LOCK_CLASSES; ++a)
        for (int b = 0; b < NUM_LOCK_CLASSES; ++b) {
            edge(static_cast<LockClass>(a), static_cast<LockClass>(b))
                .seen.store(false, std::memory_order_relaxed);
            warnedTable()[a][b].store(false,
                                      std::memory_order_relaxed);
        }
    g_violations.store(0, std::memory_order_relaxed);
    std::scoped_lock lock(reportMutex());
    lastReportStorage().clear();
}

std::vector<ThreadHeldSet>
heldSnapshot()
{
    std::vector<ThreadHeldSet> out;
    std::scoped_lock lock(metaMutex());
    for (const ThreadState* ts : threadRegistry()) {
        if (!ts->alive.load(std::memory_order_acquire))
            continue;
        int depth = ts->depth.load(std::memory_order_acquire);
        bool waiting = ts->waiting.load(std::memory_order_acquire);
        if (depth <= 0 && !waiting)
            continue;
        ThreadHeldSet set;
        set.threadId = ts->threadId;
        for (int i = 0; i < depth && i < MAX_HELD; ++i) {
            const Entry& e = ts->held[i];
            set.held.push_back(
                {e.cls, e.instance, e.last, e.count, e.file, e.line});
        }
        set.hasPending = waiting;
        if (waiting) {
            const Entry& p = ts->pending;
            set.pending = {p.cls, p.instance, p.last,
                           p.count, p.file, p.line};
        }
        out.push_back(std::move(set));
    }
    return out;
}

std::string
renderHeldSets(const char* indent)
{
    std::string out;
    for (const ThreadHeldSet& set : heldSnapshot()) {
        out += strfmt("{}thread {}:", indent, set.threadId);
        for (const HeldLock& h : set.held) {
            out += strfmt(" holds {}[{}]@{}:{}", lockClassName(h.cls),
                          instanceText(h.instance, h.last, h.count),
                          h.file != nullptr ? h.file : "?", h.line);
        }
        if (set.hasPending) {
            out += strfmt(
                " WAITING-FOR {}[{}]@{}:{}",
                lockClassName(set.pending.cls), set.pending.instance,
                set.pending.file != nullptr ? set.pending.file : "?",
                set.pending.line);
        }
        out += "\n";
    }
    return out;
}

namespace
{

// Async-signal-safe fd writers for dumpHeldSetsToFd. Site strings are
// __builtin_FILE() literals (static storage), so writing them from a
// signal handler is safe.
void
fdStr(int fd, const char* s)
{
    std::size_t len = std::strlen(s);
    std::size_t off = 0;
    while (off < len) {
        ssize_t w = ::write(fd, s + off, len - off);
        if (w <= 0)
            return;
        off += static_cast<std::size_t>(w);
    }
}

void
fdDec(int fd, std::uint64_t v)
{
    char buf[24];
    int i = sizeof(buf);
    do {
        buf[--i] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    while (i < static_cast<int>(sizeof(buf))) {
        ssize_t w = ::write(fd, buf + i, sizeof(buf) - i);
        if (w <= 0)
            return;
        i += static_cast<int>(w);
    }
}

void
fdInstance(int fd, std::int64_t instance)
{
    if (instance < 0) {
        fdStr(fd, "-");
        instance = -instance;
    }
    fdDec(fd, static_cast<std::uint64_t>(instance));
}

// Same text as renderHeldSets: "cls[5]@file:line", "cls[0..63 x64]@...".
void
fdEntry(int fd, const Entry& e)
{
    fdStr(fd, lockClassName(e.cls));
    fdStr(fd, "[");
    fdInstance(fd, e.instance);
    if (e.count > 1 || e.last != e.instance) {
        fdStr(fd, "..");
        fdInstance(fd, e.last);
        fdStr(fd, " x");
        fdDec(fd, static_cast<std::uint64_t>(e.count < 0 ? 0 : e.count));
    }
    fdStr(fd, "]@");
    fdStr(fd, e.file != nullptr ? e.file : "?");
    fdStr(fd, ":");
    fdDec(fd, static_cast<std::uint64_t>(e.line < 0 ? 0 : e.line));
}

} // namespace

void
dumpHeldSetsToFd(int fd)
{
    int n = g_stateCount.load(std::memory_order_acquire);
    if (n > MAX_THREAD_STATES)
        n = MAX_THREAD_STATES;
    bool wroteHeader = false;
    for (int i = 0; i < n; ++i) {
        const ThreadState* ts =
            g_stateTable[i].load(std::memory_order_acquire);
        if (ts == nullptr || !ts->alive.load(std::memory_order_acquire))
            continue;
        int depth = ts->depth.load(std::memory_order_acquire);
        bool waiting = ts->waiting.load(std::memory_order_acquire);
        if (depth <= 0 && !waiting)
            continue;
        if (!wroteHeader) {
            fdStr(fd, "=== lockdep held-sets ===\n");
            wroteHeader = true;
        }
        fdStr(fd, "thread ");
        fdDec(fd, ts->threadId);
        fdStr(fd, ":");
        if (depth > MAX_HELD)
            depth = MAX_HELD;
        for (int j = 0; j < depth; ++j) {
            fdStr(fd, " holds ");
            fdEntry(fd, ts->held[j]);
        }
        if (waiting) {
            fdStr(fd, " WAITING-FOR ");
            fdEntry(fd, ts->pending);
        }
        fdStr(fd, "\n");
    }
}

void
detail::popHeld(const OrderedMutex* m)
{
    pop(threadState(), m);
}

void
OrderedMutex::lockSlow(const char* file, int line)
{
    ThreadState& ts = threadState();
    if (mode() != Mode::Off)
        checkAcquire(ts, cls_, instance_, file, line);
    if (!m_.try_lock()) {
        beginPending(ts, this, file, line);
        m_.lock();
        endPending(ts);
    }
    push(ts, this, cls_, instance_, file, line);
}

bool
OrderedMutex::tryLockSlow(const char* file, int line)
{
    ThreadState& ts = threadState();
    if (mode() != Mode::Off)
        checkAcquire(ts, cls_, instance_, file, line);
    if (!m_.try_lock())
        return false;
    push(ts, this, cls_, instance_, file, line);
    return true;
}

void
UniqueLock::lockSlow(const char* file, int line)
{
    ThreadState& ts = threadState();
    if (mode() != Mode::Off)
        checkAcquire(ts, m_->lockClass(), m_->instance(), file, line);
    if (!raw_.try_lock()) {
        beginPending(ts, m_, file, line);
        raw_.lock();
        endPending(ts);
    }
    push(ts, m_, m_->lockClass(), m_->instance(), file, line);
}

bool
UniqueLock::tryLockSlow(const char* file, int line)
{
    ThreadState& ts = threadState();
    if (mode() != Mode::Off)
        checkAcquire(ts, m_->lockClass(), m_->instance(), file, line);
    if (!raw_.try_lock())
        return false;
    push(ts, m_, m_->lockClass(), m_->instance(), file, line);
    return true;
}

void
CondVar::beginWait(UniqueLock& l, const char* file, int line)
{
    // The waited mutex leaves the held-set for the duration of the
    // wait (the thread does not hold it while blocked). Requiring it
    // to be innermost catches waits that would release a mid-stack
    // lock while keeping locks acquired under it. In a run, only the
    // highest instance is innermost.
    ThreadState& ts = threadState();
    int depth = ts.depth.load(std::memory_order_relaxed);
    const OrderedMutex* m = l.mutex();
    if (depth <= 0 || !covers(ts.held[depth - 1], m) ||
        m->instance() != ts.held[depth - 1].last) {
        if (mode() != Mode::Off) {
            Entry e = depth > 0 ? ts.held[depth - 1] : Entry{};
            report(ts, e, m->lockClass(), m->instance(), file, line,
                   "condvar wait requires the waited mutex to be the "
                   "innermost held lock");
        }
    }
    pop(ts, m);
    beginPending(ts, m, file, line);
}

void
CondVar::endWait(UniqueLock& l, const char* file, int line)
{
    ThreadState& ts = threadState();
    endPending(ts);
    if (mode() != Mode::Off)
        checkAcquire(ts, l.mutex()->lockClass(),
                     l.mutex()->instance(), file, line);
    push(ts, l.mutex(), l.mutex()->lockClass(),
         l.mutex()->instance(), file, line);
}

void
CondVar::wait(UniqueLock& l, const char* file, int line)
{
    beginWait(l, file, line);
    cv_.wait(l.raw());
    endWait(l, file, line);
}

} // namespace ld_on
#endif // GRAPHITE_LOCKDEP_ON

} // namespace graphite::lockdep
