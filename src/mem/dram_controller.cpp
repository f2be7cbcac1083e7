#include "mem/dram_controller.h"

#include <cmath>

#include "common/log.h"
#include "network/global_progress.h"
#include "snapshot/snapshot.h"

namespace graphite
{

DramController::DramController(cycle_t latency_cycles,
                               double bytes_per_cycle,
                               const GlobalProgress* progress,
                               cycle_t outlier_window,
                               cycle_t max_backlog)
    : latency_(latency_cycles),
      bytesPerCycle_(bytes_per_cycle),
      progress_(progress),
      queue_(outlier_window, max_backlog)
{
    if (bytes_per_cycle <= 0.0)
        fatal("dram controller: bandwidth must be positive (got {})",
              bytes_per_cycle);
}

DramController::Breakdown
DramController::access(cycle_t arrival_time, size_t bytes)
{
    ++accesses_;
    auto service = static_cast<cycle_t>(
        std::ceil(static_cast<double>(bytes) / bytesPerCycle_));
    serviceTime_ += service;
    cycle_t queue_delay =
        progress_ != nullptr
            ? queue_.enqueue(arrival_time, service, progress_->current())
            : 0;
    Breakdown bd;
    bd.queue = queue_delay;
    bd.service = latency_ + service;
    bd.total = bd.queue + bd.service;
    return bd;
}

void
DramController::serialize(snapshot::Archive& ar)
{
    ar.u64(accesses_);
    ar.u64(serviceTime_);
    queue_.serialize(ar);
}

} // namespace graphite
