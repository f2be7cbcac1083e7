#include "perf/core_model.h"

#include <algorithm>

#include "common/config.h"
#include "common/log.h"
#include "snapshot/snapshot.h"

namespace graphite
{

namespace
{

/**
 * A slot ring: its size, its completion times and its cursor. A restore
 * tolerates a different configured size: a checkpoint taken under one
 * load-queue/store-buffer depth may be forked into sweeps with
 * different timing knobs, so it copies what fits (oldest-first from the
 * cursor) instead of rejecting the snapshot.
 */
void
slotRing(snapshot::Archive& ar, std::vector<cycle_t>& slots, size_t& next)
{
    std::vector<cycle_t> saved;
    if (!ar.loading())
        saved = slots;
    std::uint64_t saved_size = saved.size();
    ar.u64(saved_size);
    // Sanity bound so a corrupted-but-checksummed count surfaces as a
    // clean SnapshotError instead of a giant allocation.
    if (saved_size > (1u << 20))
        throw snapshot::SnapshotError(
            strfmt("snapshot: implausible slot ring size {}", saved_size));
    saved.resize(saved_size);
    for (cycle_t& c : saved)
        ar.u64(c);
    std::uint64_t saved_next = next;
    ar.u64(saved_next);
    if (!ar.loading())
        return;

    if (saved_size == slots.size()) {
        if (saved_next >= saved_size)
            throw snapshot::SnapshotError(
                strfmt("snapshot: slot ring cursor {} out of range ({} "
                       "slots)",
                       saved_next, saved_size));
        slots = std::move(saved);
        next = static_cast<size_t>(saved_next);
        return;
    }
    std::fill(slots.begin(), slots.end(), 0);
    size_t n = std::min<size_t>(saved.size(), slots.size());
    // Keep the youngest n completion times; the cursor points at the
    // oldest slot, so walk backwards from it.
    for (size_t i = 0; i < n; ++i) {
        size_t src = (saved_next + saved.size() - 1 - i) % saved.size();
        size_t dst = (slots.size() - 1 - i) % slots.size();
        slots[dst] = saved[src];
    }
    next = 0;
}

} // namespace

std::string_view
instrClassName(InstrClass c)
{
    switch (c) {
      case InstrClass::IntAlu: return "int_alu";
      case InstrClass::IntMul: return "int_mul";
      case InstrClass::IntDiv: return "int_div";
      case InstrClass::FpAdd:  return "fp_add";
      case InstrClass::FpMul:  return "fp_mul";
      case InstrClass::FpDiv:  return "fp_div";
      case InstrClass::Branch: return "branch";
      case InstrClass::Load:   return "load";
      case InstrClass::Store:  return "store";
      default: panic("bad instruction class {}", static_cast<int>(c));
    }
}

InstructionCosts
InstructionCosts::fromConfig(const Config& cfg)
{
    InstructionCosts c{};
    for (int i = 0; i < NUM_INSTR_CLASSES; ++i) {
        std::string key = "perf_model/core/cost/";
        key += instrClassName(static_cast<InstrClass>(i));
        c.cost[i] = cfg.getInt(key);
    }
    return c;
}

CoreModel::CoreModel(tile_id_t tile, const Config& cfg)
    : tile_(tile),
      costs_(InstructionCosts::fromConfig(cfg)),
      bp_(BranchPredictor::create(
          cfg.getString("perf_model/branch_predictor/type"),
          cfg.getInt("perf_model/branch_predictor/size"))),
      mispredictPenalty_(
          cfg.getInt("perf_model/branch_predictor/mispredict_penalty")),
      loadSlots_(std::max<std::int64_t>(
                     1, cfg.getInt("perf_model/core/load_queue_size")),
                 0),
      storeSlots_(
          std::max<std::int64_t>(
              1, cfg.getInt("perf_model/core/store_buffer_size")),
          0)
{
}

void
CoreModel::advance(cycle_t cycles)
{
    // Only the tile's own thread writes clock_ (as retire() and
    // forwardClock() rely on too): no locked read-modify-write.
    clock_.store(cycle() + cycles, std::memory_order_relaxed);
}

void
CoreModel::executeInstructions(InstrClass c, std::uint64_t count)
{
    GRAPHITE_ASSERT(c != InstrClass::Load && c != InstrClass::Store &&
                    c != InstrClass::Branch);
    retire(count);
    perClass_[static_cast<int>(c)] += count;
    advance(costs_.cost[static_cast<int>(c)] * count);
}

void
CoreModel::executeBranch(addr_t site, bool taken)
{
    retire(1);
    ++perClass_[static_cast<int>(InstrClass::Branch)];
    cycle_t cost = costs_.cost[static_cast<int>(InstrClass::Branch)];
    if (!bp_->predictAndTrain(site, taken))
        cost += mispredictPenalty_;
    advance(cost);
}

void
CoreModel::executeLoad(cycle_t latency)
{
    GRAPHITE_ASSERT(latency < (1ull << 40));
    retire(1);
    ++perClass_[static_cast<int>(InstrClass::Load)];

    cycle_t now = cycle() + costs_.cost[static_cast<int>(InstrClass::Load)];
    // Structural hazard: the oldest in-flight load must have completed
    // before a new load-queue slot frees up.
    cycle_t& slot = loadSlots_[nextLoadSlot_];
    nextLoadSlot_ = (nextLoadSlot_ + 1) % loadSlots_.size();
    cycle_t start = now;
    if (slot > now) {
        start = slot;
        ++loadStalls_;
    }
    cycle_t done = start + latency;
    slot = done;
    // In-order core consumes the loaded value: clock advances to
    // completion.
    clock_.store(done, std::memory_order_relaxed);
}

void
CoreModel::executeStore(cycle_t latency)
{
    GRAPHITE_ASSERT(latency < (1ull << 40));
    retire(1);
    ++perClass_[static_cast<int>(InstrClass::Store)];

    cycle_t now =
        cycle() + costs_.cost[static_cast<int>(InstrClass::Store)];
    cycle_t& slot = storeSlots_[nextStoreSlot_];
    nextStoreSlot_ = (nextStoreSlot_ + 1) % storeSlots_.size();
    cycle_t start = now;
    if (slot > now) {
        // Store buffer full: stall the core until the oldest entry
        // drains.
        start = slot;
        ++storeStalls_;
        clock_.store(slot, std::memory_order_relaxed);
    } else {
        clock_.store(now, std::memory_order_relaxed);
    }
    // The store itself completes in the background.
    slot = start + latency;
}

void
CoreModel::executePseudo(PseudoInstr p, cycle_t cost)
{
    GRAPHITE_ASSERT(cost < (1ull << 40));
    switch (p) {
      case PseudoInstr::Spawn:
      case PseudoInstr::MessageReceive:
        advance(cost);
        break;
      case PseudoInstr::SyncWait:
        syncWaitCycles_ += cost;
        advance(cost);
        break;
      default:
        panic("bad pseudo instruction {}", static_cast<int>(p));
    }
}

void
CoreModel::forwardClock(cycle_t t)
{
    // Monotonic max; only this tile's thread writes, so a simple
    // compare-and-store suffices.
    if (t > cycle())
        clock_.store(t, std::memory_order_relaxed);
}

void
CoreModel::addLatency(cycle_t cycles)
{
    advance(cycles);
}

stat_t
CoreModel::instructionsOfClass(InstrClass c) const
{
    return perClass_[static_cast<int>(c)];
}

void
CoreModel::serialize(snapshot::Archive& ar)
{
    ar.u64(clock_);
    bp_->serialize(ar);
    slotRing(ar, loadSlots_, nextLoadSlot_);
    slotRing(ar, storeSlots_, nextStoreSlot_);
    ar.u64(instructions_);
    for (stat_t& s : perClass_)
        ar.u64(s);
    ar.u64(loadStalls_);
    ar.u64(storeStalls_);
    ar.u64(syncWaitCycles_);
}

} // namespace graphite
