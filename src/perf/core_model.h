/**
 * @file
 * In-order core performance model (paper §3.1).
 *
 * "The core performance model is a purely modeled component of the system
 * that manages the simulated clock local to each tile. It follows a
 * producer-consumer design: it consumes instructions and other dynamic
 * information produced by the rest of the system."
 *
 * The provided model is the paper's: an in-order pipeline with an
 * out-of-order memory system — store buffer and load unit are modeled as
 * slot rings that introduce structural stalls when full, branch
 * mispredictions charge a configurable penalty, and every instruction
 * class has a configurable cost. The local clock only moves forward;
 * forwardClock() implements the lax-synchronization "clock is forwarded to
 * the time the event occurred" rule.
 */

#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"
#include "perf/branch_predictor.h"
#include "perf/instruction.h"

namespace graphite
{

class Config;

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Per-class instruction costs in cycles. */
struct InstructionCosts
{
    std::array<cycle_t, NUM_INSTR_CLASSES> cost;

    /** Read the perf_model/core/cost/<class> config keys. */
    static InstructionCosts fromConfig(const Config& cfg);
};

/**
 * The in-order core model. Owned and driven by a single application
 * thread; the clock is readable concurrently (LaxP2P partners, the skew
 * tracker) so it is atomic.
 *
 * Cache-line aligned: the owning thread writes the clock and counters
 * on every modeled instruction, so no other tile's heap data may share
 * those lines (neighbouring objects there cost blackscholes-w4 about a
 * quarter of its host time).
 */
class alignas(64) CoreModel
{
  public:
    CoreModel(tile_id_t tile, const Config& cfg);

    /** @name Instruction interface (producer side) @{ */

    /** Retire @p count instructions of class @p c. */
    void executeInstructions(InstrClass c, std::uint64_t count = 1);

    /** Retire a branch whose actual direction was @p taken. */
    void executeBranch(addr_t site, bool taken);

    /**
     * Retire a load whose memory latency was @p latency cycles (from the
     * memory model). An in-order core blocks on loads, but up to
     * load_queue_size loads may be outstanding before a structural stall.
     */
    void executeLoad(cycle_t latency);

    /**
     * Retire a store. Stores complete in the background through the store
     * buffer; the core stalls only when the buffer is full.
     */
    void executeStore(cycle_t latency);

    /** Consume a pseudo-instruction (spawn, message receive, ...). */
    void executePseudo(PseudoInstr p, cycle_t cost = 1);

    /** @} */

    /** @name Clock @{ */

    /** Current local clock (cycles). Thread-safe read. */
    cycle_t cycle() const { return clock_.load(std::memory_order_relaxed); }

    /**
     * Stable pointer to the local clock for concurrent observers (the
     * accuracy observatory reads it at delivery points). Valid for the
     * core's lifetime.
     */
    const std::atomic<cycle_t>* clockPtr() const { return &clock_; }

    /**
     * Forward the local clock to @p t on a true synchronization event;
     * no-op when @p t is in the past (lax rule, §3.6.1).
     */
    void forwardClock(cycle_t t);

    /** Unconditionally charge @p cycles of busy time. */
    void addLatency(cycle_t cycles);

    /** @} */

    /** @name Statistics @{ */
    /** Thread-safe read (the watchdog and gauges poll it mid-run). */
    stat_t instructionsRetired() const
    {
        return instructions_.load(std::memory_order_relaxed);
    }
    stat_t instructionsOfClass(InstrClass c) const;
    stat_t loadStalls() const { return loadStalls_; }
    stat_t storeStalls() const { return storeStalls_; }
    stat_t syncWaitCycles() const { return syncWaitCycles_; }
    const BranchPredictor& branchPredictor() const { return *bp_; }
    /** @} */

    tile_id_t tileId() const { return tile_; }

    /** Checkpoint serialization (owner thread quiescent). */
    void serialize(snapshot::Archive& ar);

  private:
    void advance(cycle_t cycles);

    /**
     * Count @p n retired instructions. Only the owner thread writes, so
     * a relaxed load plus store suffices (no locked read-modify-write
     * on every modeled instruction).
     */
    void retire(std::uint64_t n)
    {
        instructions_.store(
            instructions_.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
    }

    tile_id_t tile_;
    std::atomic<cycle_t> clock_{0};
    InstructionCosts costs_;
    std::unique_ptr<BranchPredictor> bp_;
    cycle_t mispredictPenalty_;

    /** Completion times of in-flight loads/stores (slot rings). */
    std::vector<cycle_t> loadSlots_;
    std::vector<cycle_t> storeSlots_;
    size_t nextLoadSlot_ = 0;
    size_t nextStoreSlot_ = 0;

    std::atomic<stat_t> instructions_{0};
    std::array<stat_t, NUM_INSTR_CLASSES> perClass_{};
    stat_t loadStalls_ = 0;
    stat_t storeStalls_ = 0;
    stat_t syncWaitCycles_ = 0;
};

} // namespace graphite
