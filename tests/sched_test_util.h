/**
 * @file
 * Helpers for unit tests that drive HostScheduler and the blocking sync
 * models directly with CoreModels on test-owned host threads.
 */

#pragma once

#include "host/scheduler.h"
#include "perf/core_model.h"

namespace graphite::testutil
{

/** A free-running pool of @p host_threads slots. */
inline host::SchedulerConfig
unitSchedConfig(int host_threads, cycle_t quantum)
{
    host::SchedulerConfig sc;
    sc.mode = host::SchedMode::FreeRunning;
    sc.hostThreads = host_threads;
    sc.quantumCycles = quantum;
    return sc;
}

/** Put tiles 0 and 1 into the rotation with @p a and @p b as clocks. */
inline void
registerTiles(host::HostScheduler& sched, const CoreModel& a,
              const CoreModel& b)
{
    sched.expectThread(0);
    sched.registerThread(0, &a);
    sched.expectThread(1);
    sched.registerThread(1, &b);
}

} // namespace graphite::testutil
