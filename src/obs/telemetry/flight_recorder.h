/**
 * @file
 * Black-box flight recorder: a fixed-size lock-free ring of recent
 * high-level simulation events (sync transitions, quantum barriers,
 * message sends, miss-path entries, futex traffic, thread lifecycle),
 * dumpable at any moment — including from a crash signal handler.
 *
 * The recorder is the "what was the simulator doing right before it
 * died/hung" complement to the trace/span artifacts: those are written
 * at clean finalize(), which a crash or deadlock never reaches. The
 * ring is always-on by default (telemetry/recorder) because its hot
 * path is one relaxed atomic load when scanning for the gate plus, per
 * recorded event, one fetch_add and a seqlock-stamped slot write —
 * events are per miss/sync/syscall, not per instruction.
 *
 * Concurrency: per-slot seqlock. A writer claims a global ticket with
 * fetch_add, stamps the slot's sequence odd (write in progress), fills
 * the payload, then stamps it even. Readers (dump paths) copy the
 * payload between two sequence reads and discard torn slots. No locks,
 * no allocation after configure() — which is what makes dumpToFd()
 * async-signal-safe (see DESIGN.md "Flight recorder & signal safety").
 *
 * The crash handler is process-global: installCrashHandler(path)
 * registers for SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT, and on delivery
 * writes a header plus the ring contents to `path` using only
 * async-signal-safe primitives (open/write/close, integer formatting
 * into stack buffers), then re-raises the signal with the default
 * disposition so the exit status still reports the crash.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_types.h"

namespace graphite
{
namespace obs
{
namespace telemetry
{

/** Event classes the recorder distinguishes. */
enum class FrEvent : std::uint8_t
{
    ThreadStart,  ///< a=start clock
    ThreadExit,   ///< a=exit clock
    Spawn,        ///< MCP chose a tile: a=chosen tile, b=requester
    FutexWait,    ///< a=addr, b=expected value
    FutexWake,    ///< a=addr, b=wake count
    MsgSend,      ///< a=dst tile, b=bytes
    MsgRecv,      ///< a=src tile, b=bytes
    SyncBarrier,  ///< quantum barrier release: a=epoch, b=wait us
    SyncSleep,    ///< LaxP2P throttle: a=park us, b=partner clock delta
    MissPath,     ///< memory miss-path entry: a=line addr, b=for_write
    Writeback,    ///< dirty L2 eviction: a=line addr, b=home tile
    WatchdogFlag, ///< watchdog stall/deadlock flag: a=verdict code
    Causality,    ///< worst causality violation: a=magnitude cycles,
                  ///< b=(src tile << 8) | violation-point id
    Custom        ///< free-form (tests)
};

inline constexpr int NUM_FR_EVENTS = 14;

/** Stable short name for an event class ("miss_path", "futex_wait"). */
const char* frEventName(FrEvent e);

/** Process-global flight recorder. */
class FlightRecorder
{
  public:
    static FlightRecorder& instance();

    /** Cached arm flag — the only hot-path check at record sites. */
    static bool
    armed()
    {
        return armedFlag_.load(std::memory_order_relaxed);
    }

    /**
     * (Re)size the ring to @p capacity slots (rounded up to a power of
     * two, min 16) and drop all recorded events. Not safe concurrently
     * with record(); call while the simulation is quiescent.
     */
    void configure(std::size_t capacity);

    void setArmed(bool on);

    /** Record one event. Thread-safe, lock-free, no-op when disarmed. */
    static void
    record(FrEvent type, tile_id_t tile, cycle_t cycle,
           std::uint64_t a = 0, std::uint64_t b = 0)
    {
        if (!armed())
            return;
        instance().push(type, tile, cycle, a, b);
    }

    /** Total events ever recorded (including overwritten ones). */
    std::uint64_t recorded() const;

    /** Ring capacity in slots. */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Async-signal-safe dump: writes a header and the surviving ring
     * events (oldest first) to @p fd using only write(2) and stack
     * buffers. Torn slots (concurrent writers) are skipped.
     */
    void dumpToFd(int fd) const;

    /**
     * Convenience dump into a string (watchdog dumps, invariant-failure
     * reports, tests). @p max_events > 0 keeps only the newest events.
     */
    std::string dump(std::size_t max_events = 0) const;

    /**
     * Install the process crash handler: on SIGSEGV/SIGBUS/SIGFPE/
     * SIGILL/SIGABRT, dump the ring to @p path and re-raise. The path
     * is copied into a fixed buffer (truncated to 511 bytes).
     */
    void installCrashHandler(const std::string& path);

    /** Restore the previous signal dispositions. Idempotent. */
    void uninstallCrashHandler();

    /** True when the crash handler is currently installed. */
    bool crashHandlerInstalled() const;

  private:
    /**
     * Payload fields are relaxed atomics: readers copy them while a
     * writer may be filling the slot, and the seqlock discards the torn
     * copy afterwards.
     */
    struct Slot
    {
        std::atomic<std::uint64_t> seq{0}; ///< odd = write in progress
        std::atomic<FrEvent> type{FrEvent::Custom};
        std::atomic<tile_id_t> tile{INVALID_TILE_ID};
        std::atomic<cycle_t> cycle{0};
        std::atomic<std::uint64_t> a{0};
        std::atomic<std::uint64_t> b{0};
        /** Global ticket, for sorting dumps. */
        std::atomic<std::uint64_t> order{0};
    };
    // Lock-free payload loads keep dumpToFd() async-signal-safe.
    static_assert(std::atomic<FrEvent>::is_always_lock_free &&
                      std::atomic<tile_id_t>::is_always_lock_free &&
                      std::atomic<cycle_t>::is_always_lock_free &&
                      std::atomic<std::uint64_t>::is_always_lock_free,
                  "flight recorder slots must be lock-free");

    struct TakenSlot
    {
        std::uint64_t order;
        FrEvent type;
        tile_id_t tile;
        cycle_t cycle;
        std::uint64_t a;
        std::uint64_t b;
    };

    void push(FrEvent type, tile_id_t tile, cycle_t cycle,
              std::uint64_t a, std::uint64_t b);

    /** Snapshot surviving slots, sorted oldest-first. Signal-safe when
     *  @p scratch points into a caller-provided array. */
    std::size_t snapshot(TakenSlot* scratch, std::size_t max) const;

    static std::atomic<bool> armedFlag_;

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::atomic<std::uint64_t> head_{0};
    /** Preallocated at configure() so dumpToFd() never allocates; the
     *  two users (watchdog escalation, crash handler) are terminal /
     *  mutually exclusive in practice, so sharing it is safe. */
    mutable std::vector<TakenSlot> dumpScratch_;
};

} // namespace telemetry
} // namespace obs
} // namespace graphite
