/**
 * @file
 * Post-run conservation invariants and a concurrent clock/coherence
 * watcher for the fuzz harness.
 *
 * Conservation checks run at quiescence (after Simulator::run returns):
 *  - coherence SWMR / inclusion / data agreement (validateCoherence)
 *  - per-tile counter sums equal the registered mem.* aggregates
 *  - the traffic matrix's message/byte sums equal the App and Memory
 *    models' routed packet/byte totals
 *  - target heap fully released (the fuzz program frees everything)
 *
 * The ClockWatcher samples every tile's clock from a host thread while
 * the simulation runs: per-tile clocks are atomics advanced only by the
 * owning thread and every store is monotone, so *any* observed backward
 * step is a hard violation. It can also run validateCoherence()
 * periodically mid-run — the quiesce composes with concurrent traffic —
 * which catches transient SWMR violations that self-heal before
 * shutdown (e.g. an injected skip_release_fence leaving a stale L1
 * copy that a later invalidation would erase).
 */

#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"

namespace graphite
{

class Simulator;

namespace check
{

/** @return violation descriptions; empty when every invariant holds. */
std::vector<std::string> checkConservation(Simulator& sim);

/** Concurrent monotonicity + periodic-coherence prober. */
class ClockWatcher
{
  public:
    /**
     * @param period_us        host microseconds between clock samples
     * @param validate_every   run validateCoherence() every N samples;
     *                         0 disables mid-run coherence probing
     */
    ClockWatcher(Simulator& sim, int period_us, int validate_every);
    ~ClockWatcher();

    void start();
    void stop(); ///< idempotent; joins the watcher thread

    std::vector<std::string> violations() const;

    /** Largest clock spread observed among concurrently running tiles. */
    cycle_t maxSkew() const;

  private:
    void loop();

    Simulator& sim_;
    int periodUs_;
    int validateEvery_;
    std::thread thread_;
    std::atomic<bool> stopFlag_{false};
    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::invariants};
    std::vector<std::string> violations_;
    cycle_t maxSkew_ = 0;
    std::vector<cycle_t> lastSeen_;
};

} // namespace check
} // namespace graphite
