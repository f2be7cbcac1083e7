#include "check/fault.h"

#include "common/config.h"
#include "common/log.h"

namespace graphite
{
namespace check
{

FaultPlan::FaultPlan(const Config& cfg)
    : mode_(parseMode(cfg.getString("check/inject_fault"))),
      after_(static_cast<std::uint64_t>(cfg.getInt("check/fault_after"))),
      addrBelow_(
          static_cast<addr_t>(cfg.getInt("check/fault_addr_below")))
{
    if (mode_ != FaultMode::None)
        warn("fault injection armed: {} after {} opportunities",
             modeName(mode_), after_);
}

std::unique_ptr<FaultPlan>
FaultPlan::fromConfig(const Config& cfg)
{
    auto plan = std::make_unique<FaultPlan>(cfg);
    if (plan->mode() == FaultMode::None)
        return nullptr;
    return plan;
}

bool
FaultPlan::shouldFire(FaultMode mode, addr_t line_addr)
{
    if (mode != mode_)
        return false;
    if (addrBelow_ != 0 && line_addr >= addrBelow_)
        return false;
    std::uint64_t n =
        opportunities_.fetch_add(1, std::memory_order_relaxed);
    if (n < after_)
        return false;
    fired_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::uint64_t
FaultPlan::opportunities() const
{
    return opportunities_.load(std::memory_order_relaxed);
}

std::uint64_t
FaultPlan::fired() const
{
    return fired_.load(std::memory_order_relaxed);
}

FaultMode
FaultPlan::parseMode(const std::string& name)
{
    if (name.empty() || name == "none")
        return FaultMode::None;
    if (name == "drop_invalidation")
        return FaultMode::DropInvalidation;
    if (name == "stale_dram_fill")
        return FaultMode::StaleDramFill;
    if (name == "lost_writeback")
        return FaultMode::LostWriteback;
    if (name == "skip_release_fence")
        return FaultMode::SkipReleaseFence;
    if (name == "late_delivery")
        return FaultMode::LateDelivery;
    fatal("check/inject_fault: unknown mode '{}'", name);
}

const char*
FaultPlan::modeName(FaultMode mode)
{
    switch (mode) {
      case FaultMode::None: return "none";
      case FaultMode::DropInvalidation: return "drop_invalidation";
      case FaultMode::StaleDramFill: return "stale_dram_fill";
      case FaultMode::LostWriteback: return "lost_writeback";
      case FaultMode::SkipReleaseFence: return "skip_release_fence";
      case FaultMode::LateDelivery: return "late_delivery";
    }
    return "?";
}

const std::vector<FaultMode>&
FaultPlan::allModes()
{
    // LateDelivery is deliberately absent: it perturbs only packet
    // timestamps, never data, so the differential sweep's fingerprint
    // cannot detect it — the accuracy observatory's violation counter
    // does (tests/test_accuracy.cpp). Listing it here would fail the
    // fuzz detection drill, which requires a fingerprint mismatch.
    static const std::vector<FaultMode> modes = {
        FaultMode::DropInvalidation,
        FaultMode::StaleDramFill,
        FaultMode::LostWriteback,
        FaultMode::SkipReleaseFence,
    };
    return modes;
}

} // namespace check
} // namespace graphite
