/**
 * @file
 * Deliberate protocol fault injection for the fuzz harness.
 *
 * The memory system is self-verifying (PAPER.md §3.3): functional data
 * movement *is* the modeled coherence protocol, so a protocol bug must
 * corrupt program results or trip an invariant. The fuzz harness proves
 * it has teeth by arming one of these faults and demonstrating that the
 * differential sweep detects it within a bounded seed budget.
 *
 * Config keys (see graphite.cfg [check]):
 *   check/inject_fault      none | drop_invalidation | stale_dram_fill |
 *                           lost_writeback | skip_release_fence |
 *                           late_delivery
 *   check/fault_after       opportunities to let pass before firing
 *                           (spares setup traffic; default 4)
 *   check/fault_addr_below  only fire on lines below this address
 *                           (0 = everywhere; the harness passes the mmap
 *                           base so sync words stay intact and a fault
 *                           manifests as a detectable corruption rather
 *                           than a deadlock)
 *
 * Each Simulator owns its plan, built only when a fault is armed; the
 * injection points hold a non-owning pointer, so the fully disabled hot
 * path is one null check.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"

namespace graphite
{

class Config;

namespace check
{

/** Which protocol step to sabotage. */
enum class FaultMode : std::uint8_t
{
    None = 0,
    DropInvalidation,  ///< a sharer keeps its stale copy on S->M
    StaleDramFill,     ///< DRAM fill returns one flipped bit
    LostWriteback,     ///< dirty L2 eviction never reaches memory
    SkipReleaseFence,  ///< atomic RMW skips the L1 write-through sync
    LateDelivery,      ///< packet stamped with its send time (timing
                       ///< only, data intact) — plants a guaranteed
                       ///< causality violation for the accuracy
                       ///< observatory's detection tests
};

/** One Simulator's fault schedule. */
class FaultPlan
{
  public:
    /** The schedule the [check] keys describe. */
    explicit FaultPlan(const Config& cfg);

    /** The plan `check/inject_fault` arms; null for "none". */
    static std::unique_ptr<FaultPlan> fromConfig(const Config& cfg);

    /**
     * Record an opportunity for @p mode on the line at @p line_addr and
     * decide whether to sabotage it. Fires on every opportunity past
     * `check/fault_after` that survives the address filter.
     */
    bool shouldFire(FaultMode mode, addr_t line_addr);

    FaultMode mode() const { return mode_; }
    std::uint64_t opportunities() const;
    std::uint64_t fired() const;

    /** @return the mode named @p name; fatal() on an unknown name. */
    static FaultMode parseMode(const std::string& name);
    static const char* modeName(FaultMode mode);
    /** Every injectable mode (excludes "none"), for harness drills. */
    static const std::vector<FaultMode>& allModes();

  private:
    FaultMode mode_;
    std::uint64_t after_;
    addr_t addrBelow_; ///< 0 = no filter
    std::atomic<std::uint64_t> opportunities_{0};
    std::atomic<std::uint64_t> fired_{0};
};

} // namespace check
} // namespace graphite
