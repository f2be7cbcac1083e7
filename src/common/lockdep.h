// lockdep — declared lock hierarchy with runtime inversion detection.
//
// Every mutex in the simulator is an OrderedMutex annotated with a
// LockClass from lock_order.def.  A thread-local held-set plus a global
// class-pair edge table let us report a potential deadlock — with both
// acquisition sites — the FIRST time an inversion could happen, not
// when two threads finally interleave into an actual hang (the
// FastTrack idea of checking the discipline, not the schedule, applied
// to lock order, like the kernel's lockdep).
//
// Build-time switch: cmake -DGRAPHITE_LOCKDEP=OFF compiles everything
// down to a plain std::mutex wrapper with zero overhead
// (sizeof(OrderedMutex) == sizeof(std::mutex), all calls inline
// pass-throughs).  The two variants live in distinct inline namespaces
// (ld_on / ld_off) so a test TU compiled with
// -DGRAPHITE_LOCKDEP_FORCE_OFF can link into an armed binary without
// ODR violations.
//
// Runtime switch (armed builds only): GRAPHITE_LOCKDEP=0|warn|1 in the
// environment, or lockdep::setMode().  "warn" records and logs
// violations but keeps running (hierarchy bring-up); the default
// enforcing mode prints both acquisition sites and exits with code 87.
//
// Cost in an armed build: a lock taken while the thread holds nothing
// has nothing to be checked against, so lock()/try_lock() record it
// inline (one held-set entry and the depth, behind a thread_local
// pointer), and unlock() drops the innermost entry inline; in any mode
// such a round trip makes no call into lockdep.cpp.  A lock taken with
// others held runs the out-of-line order check, run merge and
// edge-table record; a raw lock that would block publishes its
// WAITING-FOR entry out of line; and releasing a lock that is not the
// innermost entry searches the held set out of line.  Runtime-off
// skips only the order check.

#ifndef GRAPHITE_COMMON_LOCKDEP_H
#define GRAPHITE_COMMON_LOCKDEP_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#if defined(GRAPHITE_LOCKDEP_FORCE_OFF)
#define GRAPHITE_LOCKDEP_ON 0
#elif defined(GRAPHITE_LOCKDEP_ENABLED)
#define GRAPHITE_LOCKDEP_ON 1
#else
#define GRAPHITE_LOCKDEP_ON 0
#endif

namespace graphite::lockdep
{

enum class LockClass : std::uint16_t {
#define LOCK_CLASS(name, flags) name,
#include "common/lock_order.def"
#undef LOCK_CLASS
    COUNT
};

constexpr int NUM_LOCK_CLASSES = static_cast<int>(LockClass::COUNT);

enum class ClassFlags : std::uint8_t {
    NONE = 0,    // same-class nesting is a violation
    ORDERED = 1, // same-class nesting legal in ascending instance order
    MULTI = 2,   // same-class nesting legal in any order
};

const char* lockClassName(LockClass cls);
ClassFlags lockClassFlags(LockClass cls);

// One entry of a thread's held-set, exported to the telemetry plane
// (watchdog hang dumps, flight recorder) by heldSnapshot(). A run of
// same-class ORDERED locks taken in ascending instance order is one
// entry: `count` locks with instances in [instance, last], acquired
// first at file:line.
struct HeldLock {
    LockClass cls;
    std::int64_t instance;
    std::int64_t last;
    int count;
    const char* file;
    int line;
};

struct ThreadHeldSet {
    std::uint64_t threadId; // pthread numeric id
    std::vector<HeldLock> held;     // innermost last
    bool hasPending;
    HeldLock pending; // lock this thread is currently blocked acquiring
};

#if GRAPHITE_LOCKDEP_ON
inline namespace ld_on
{

class OrderedMutex;

// The per-thread held set, in this header so that OrderedMutex and
// UniqueLock can record the round trip described above inline.
namespace detail
{

constexpr int MAX_HELD = 64;

// One lock currently held by a thread, or a run of same-class ORDERED
// locks taken in ascending instance order (mutex == nullptr): `count`
// locks with instances in [instance, last]. Runs bound the held set by
// the number of lock classes, not by how many shards or tiles one
// thread locks at once.
struct Entry {
    const OrderedMutex* mutex;
    LockClass cls;
    std::int64_t instance;
    std::int64_t last;
    int count;
    const char* file;
    int line;
};

// `depth` is bumped with release ordering after a new entry is fully
// written, so the racy heldSnapshot() reader sees complete entries.
// Cache-line aligned: the owning thread writes its held set on every
// lock and unlock, so another thread's state must not share its lines
// (adjacent states cost fft-w4 about 8% of host time).
struct alignas(64) ThreadState {
    std::atomic<int> depth{0};
    Entry held[MAX_HELD];
    std::atomic<bool> alive{true};
    std::atomic<bool> waiting{false}; // blocked acquiring `pending`
    Entry pending{};
    std::uint64_t threadId = 0;
};

// The calling thread's held set: null until its first acquisition
// attaches one out of line, and again once the thread has exited.
// Trivially destructible, so reading it costs no guard or wrapper call.
inline thread_local ThreadState* t_held = nullptr;

// The calling thread's held set when it holds nothing, else nullptr. An
// acquisition then has nothing to be order-checked against, so it is
// recorded inline with pushFirst().
inline ThreadState*
emptyHeldSet()
{
    ThreadState* ts = t_held;
    if (ts == nullptr || ts->depth.load(std::memory_order_relaxed) != 0)
        return nullptr;
    return ts;
}

inline void
pushFirst(ThreadState& ts, const OrderedMutex* m, LockClass cls,
          std::int64_t instance, const char* file, int line)
{
    ts.held[0] = {m, cls, instance, instance, 1, file, line};
    ts.depth.store(1, std::memory_order_release);
}

// Drops @p m from the calling thread's held set when it is the
// innermost entry on its own; false leaves the release to popHeld().
inline bool
popInnermost(const OrderedMutex* m)
{
    ThreadState* ts = t_held;
    if (ts == nullptr)
        return false;
    int depth = ts->depth.load(std::memory_order_relaxed);
    if (depth <= 0 || ts->held[depth - 1].mutex != m)
        return false;
    ts->depth.store(depth - 1, std::memory_order_release);
    return true;
}

// Out of line: releases @p m from a run or from under a later lock, and
// exits with code 87 when the thread does not hold it.
void popHeld(const OrderedMutex* m);

} // namespace detail

class OrderedMutex {
public:
    explicit OrderedMutex(LockClass cls, std::int64_t instance = 0)
        : cls_(cls), instance_(instance)
    {
    }
    OrderedMutex(const OrderedMutex&) = delete;
    OrderedMutex& operator=(const OrderedMutex&) = delete;

    void lock(const char* file = __builtin_FILE(),
              int line = __builtin_LINE())
    {
        detail::ThreadState* ts = detail::emptyHeldSet();
        if (ts != nullptr && m_.try_lock()) {
            detail::pushFirst(*ts, this, cls_, instance_, file, line);
            return;
        }
        lockSlow(file, line);
    }
    bool try_lock(const char* file = __builtin_FILE(),
                  int line = __builtin_LINE())
    {
        detail::ThreadState* ts = detail::emptyHeldSet();
        if (ts == nullptr)
            return tryLockSlow(file, line);
        if (!m_.try_lock())
            return false;
        detail::pushFirst(*ts, this, cls_, instance_, file, line);
        return true;
    }
    void unlock()
    {
        if (!detail::popInnermost(this))
            detail::popHeld(this);
        m_.unlock();
    }

    LockClass lockClass() const { return cls_; }
    std::int64_t instance() const { return instance_; }
    // For ORDERED classes living in default-constructed containers:
    // stamp the shard/tile id after construction, before any use.
    void setInstance(std::int64_t instance) { instance_ = instance; }
    std::mutex& native() { return m_; }

private:
    void lockSlow(const char* file, int line);
    bool tryLockSlow(const char* file, int line);

    std::mutex m_;
    LockClass cls_;
    std::int64_t instance_;
};

// scoped_lock/lock_guard replacement for a single OrderedMutex.
class Guard {
public:
    explicit Guard(OrderedMutex& m, const char* file = __builtin_FILE(),
                   int line = __builtin_LINE())
        : m_(m)
    {
        m_.lock(file, line);
    }
    ~Guard() { m_.unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

private:
    OrderedMutex& m_;
};

// unique_lock replacement; usable with lockdep::CondVar.
class UniqueLock {
public:
    UniqueLock() = default;
    explicit UniqueLock(OrderedMutex& m,
                        const char* file = __builtin_FILE(),
                        int line = __builtin_LINE())
        : m_(&m), raw_(m.native(), std::defer_lock)
    {
        lock(file, line);
    }
    UniqueLock(OrderedMutex& m, std::defer_lock_t,
               const char* = __builtin_FILE(), int = __builtin_LINE())
        : m_(&m), raw_(m.native(), std::defer_lock)
    {
    }
    UniqueLock(OrderedMutex& m, std::try_to_lock_t,
               const char* file = __builtin_FILE(),
               int line = __builtin_LINE())
        : m_(&m), raw_(m.native(), std::defer_lock)
    {
        try_lock(file, line);
    }
    UniqueLock(UniqueLock&& other) noexcept
        : m_(other.m_), raw_(std::move(other.raw_))
    {
        other.m_ = nullptr;
    }
    UniqueLock& operator=(UniqueLock&& other) noexcept
    {
        if (this != &other) {
            if (owns_lock())
                unlock();
            m_ = other.m_;
            raw_ = std::move(other.raw_);
            other.m_ = nullptr;
        }
        return *this;
    }
    ~UniqueLock()
    {
        if (owns_lock())
            unlock();
    }

    // The same inline cases as OrderedMutex's.
    void lock(const char* file = __builtin_FILE(),
              int line = __builtin_LINE())
    {
        detail::ThreadState* ts = detail::emptyHeldSet();
        if (ts != nullptr && raw_.try_lock()) {
            detail::pushFirst(*ts, m_, m_->lockClass(), m_->instance(),
                              file, line);
            return;
        }
        lockSlow(file, line);
    }
    bool try_lock(const char* file = __builtin_FILE(),
                  int line = __builtin_LINE())
    {
        detail::ThreadState* ts = detail::emptyHeldSet();
        if (ts == nullptr)
            return tryLockSlow(file, line);
        if (!raw_.try_lock())
            return false;
        detail::pushFirst(*ts, m_, m_->lockClass(), m_->instance(), file,
                          line);
        return true;
    }
    void unlock()
    {
        if (!detail::popInnermost(m_))
            detail::popHeld(m_);
        raw_.unlock();
    }
    bool owns_lock() const { return raw_.owns_lock(); }
    explicit operator bool() const { return owns_lock(); }
    OrderedMutex* mutex() const { return m_; }
    std::unique_lock<std::mutex>& raw() { return raw_; }

private:
    void lockSlow(const char* file, int line);
    bool tryLockSlow(const char* file, int line);

    OrderedMutex* m_ = nullptr;
    std::unique_lock<std::mutex> raw_;
};

// condition_variable replacement: the waited mutex must be the
// innermost held lock; it leaves the held-set for the duration of the
// wait and is order-checked again on reacquisition.
class CondVar {
public:
    void wait(UniqueLock& l, const char* file = __builtin_FILE(),
              int line = __builtin_LINE());

    template <class Pred>
    void wait(UniqueLock& l, Pred pred,
              const char* file = __builtin_FILE(),
              int line = __builtin_LINE())
    {
        while (!pred())
            wait(l, file, line);
    }

    template <class Rep, class Period>
    std::cv_status wait_for(UniqueLock& l,
                            const std::chrono::duration<Rep, Period>& d,
                            const char* file = __builtin_FILE(),
                            int line = __builtin_LINE())
    {
        beginWait(l, file, line);
        std::cv_status st = cv_.wait_for(l.raw(), d);
        endWait(l, file, line);
        return st;
    }

    template <class Rep, class Period, class Pred>
    bool wait_for(UniqueLock& l,
                  const std::chrono::duration<Rep, Period>& d, Pred pred,
                  const char* file = __builtin_FILE(),
                  int line = __builtin_LINE())
    {
        // The predicate re-check runs with the mutex reacquired; the
        // held-set entry is restored around each predicate call so
        // locks taken inside it are order-checked correctly.
        while (!pred()) {
            if (wait_for(l, d, file, line) == std::cv_status::timeout)
                return pred();
        }
        return true;
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

private:
    void beginWait(UniqueLock& l, const char* file, int line);
    void endWait(UniqueLock& l, const char* file, int line);

    std::condition_variable cv_;
};

enum class Mode { Off, Warn, Enforce };

// Effective mode: setMode() override if set, else GRAPHITE_LOCKDEP env
// (0/off, warn, anything else = enforce), else Enforce.
Mode mode();
void setMode(Mode m);

// Number of violations recorded so far (warn mode keeps counting).
std::uint64_t violationCount();
// Text of the most recent violation report ("" if none). For tests.
std::string lastReport();
// Drop all recorded edges + violation state. For tests only; not safe
// while other threads are acquiring locks.
void resetForTest();

// Snapshot of every live thread's held-set (racy-but-safe reads) for
// the watchdog hang dump and flight recorder.
std::vector<ThreadHeldSet> heldSnapshot();
// Render the snapshot as indented text lines, one thread per line,
// naming lock classes and acquisition sites. Empty string when no
// thread holds anything.
std::string renderHeldSets(const char* indent = "  ");

// Async-signal-safe held-set dump for the crash handler: writes the
// same per-thread lines to @p fd using only write(2) and stack
// buffers — no locks, no allocation. Racy-but-safe like heldSnapshot.
void dumpHeldSetsToFd(int fd);

} // namespace ld_on

#else // !GRAPHITE_LOCKDEP_ON

inline namespace ld_off
{

// Zero-overhead variant: a bare std::mutex plus inline pass-throughs.
class OrderedMutex {
public:
    explicit OrderedMutex(LockClass, std::int64_t = 0) {}
    OrderedMutex(const OrderedMutex&) = delete;
    OrderedMutex& operator=(const OrderedMutex&) = delete;

    void lock(const char* = nullptr, int = 0) { m_.lock(); }
    bool try_lock(const char* = nullptr, int = 0)
    {
        return m_.try_lock();
    }
    void unlock() { m_.unlock(); }
    void setInstance(std::int64_t) {}
    std::mutex& native() { return m_; }

private:
    std::mutex m_;
};

static_assert(sizeof(OrderedMutex) == sizeof(std::mutex),
              "disabled lockdep must add no per-mutex state");

class Guard {
public:
    explicit Guard(OrderedMutex& m, const char* = nullptr, int = 0)
        : g_(m.native())
    {
    }

private:
    std::lock_guard<std::mutex> g_;
};

class UniqueLock {
public:
    UniqueLock() = default;
    explicit UniqueLock(OrderedMutex& m, const char* = nullptr,
                        int = 0)
        : m_(&m), raw_(m.native())
    {
    }
    UniqueLock(OrderedMutex& m, std::defer_lock_t,
               const char* = nullptr, int = 0)
        : m_(&m), raw_(m.native(), std::defer_lock)
    {
    }
    UniqueLock(OrderedMutex& m, std::try_to_lock_t,
               const char* = nullptr, int = 0)
        : m_(&m), raw_(m.native(), std::try_to_lock)
    {
    }
    UniqueLock(UniqueLock&&) noexcept = default;
    UniqueLock& operator=(UniqueLock&&) noexcept = default;

    void lock(const char* = nullptr, int = 0) { raw_.lock(); }
    bool try_lock(const char* = nullptr, int = 0)
    {
        return raw_.try_lock();
    }
    void unlock() { raw_.unlock(); }
    bool owns_lock() const { return raw_.owns_lock(); }
    explicit operator bool() const { return owns_lock(); }
    OrderedMutex* mutex() const { return m_; }
    std::unique_lock<std::mutex>& raw() { return raw_; }

private:
    OrderedMutex* m_ = nullptr;
    std::unique_lock<std::mutex> raw_;
};

static_assert(sizeof(UniqueLock) ==
                  sizeof(OrderedMutex*) + sizeof(std::unique_lock<std::mutex>),
              "disabled lockdep UniqueLock must add no state");

class CondVar {
public:
    void wait(UniqueLock& l) { cv_.wait(l.raw()); }

    template <class Pred> void wait(UniqueLock& l, Pred pred)
    {
        cv_.wait(l.raw(), std::move(pred));
    }

    template <class Rep, class Period>
    std::cv_status wait_for(UniqueLock& l,
                            const std::chrono::duration<Rep, Period>& d)
    {
        return cv_.wait_for(l.raw(), d);
    }

    template <class Rep, class Period, class Pred>
    bool wait_for(UniqueLock& l,
                  const std::chrono::duration<Rep, Period>& d, Pred pred)
    {
        return cv_.wait_for(l.raw(), d, std::move(pred));
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

enum class Mode { Off, Warn, Enforce };
inline Mode mode() { return Mode::Off; }
inline void setMode(Mode) {}
inline std::uint64_t violationCount() { return 0; }
inline std::string lastReport() { return {}; }
inline void resetForTest() {}
inline std::vector<ThreadHeldSet> heldSnapshot() { return {}; }
inline std::string renderHeldSets(const char* = "  ") { return {}; }
inline void dumpHeldSetsToFd(int) {}

} // namespace ld_off

#endif // GRAPHITE_LOCKDEP_ON

} // namespace graphite::lockdep

#endif // GRAPHITE_COMMON_LOCKDEP_H
