#include "common/lockdep.h"
#include "sync/skew_tracker.h"

#include <algorithm>

#include "obs/accuracy/accuracy.h"
#include "obs/trace_event.h"
#include "perf/core_model.h"

namespace graphite
{

SkewTracker::SkewTracker(std::uint64_t min_period_us)
    : start_(std::chrono::steady_clock::now()),
      minPeriodUs_(min_period_us),
      lastSnap_(start_)
{
}

void
SkewTracker::attachCores(std::vector<SkewSource> cores,
                         const obs::Observers& observers)
{
    lockdep::Guard lock(mutex_);
    cores_ = std::move(cores);
    obs_ = observers;
}

void
SkewTracker::maybeSnapshot()
{
    auto now = std::chrono::steady_clock::now();
    lockdep::Guard lock(mutex_);
    if (cores_.empty())
        return;
    auto elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - lastSnap_)
            .count();
    if (elapsed_us >= 0 &&
        static_cast<std::uint64_t>(elapsed_us) < minPeriodUs_)
        return;
    lastSnap_ = now;

    double sum = 0;
    int n = 0;
    cycle_t fast_clock = 0;
    cycle_t slow_clock = 0;
    tile_id_t fast_tile = INVALID_TILE_ID;
    tile_id_t slow_tile = INVALID_TILE_ID;
    std::vector<double> clocks;
    clocks.reserve(cores_.size());
    for (const SkewSource& src : cores_) {
        if (src.running != nullptr && !src.running->load())
            continue; // blocked or idle tile
        cycle_t c = src.core->cycle();
        if (c == 0)
            continue; // tile never ran
        if (fast_tile == INVALID_TILE_ID || c > fast_clock) {
            fast_clock = c;
            fast_tile = src.core->tileId();
        }
        if (slow_tile == INVALID_TILE_ID || c < slow_clock) {
            slow_clock = c;
            slow_tile = src.core->tileId();
        }
        clocks.push_back(static_cast<double>(c));
        sum += static_cast<double>(c);
        ++n;
    }
    if (n < 2)
        return;

    // The envelope extremes define the worst tile pair this snapshot;
    // feed it to the accuracy observatory's skew matrix.
    if (obs_.accuracy && fast_tile != slow_tile)
        obs_.accuracy->onPairObserved(fast_tile, slow_tile, fast_clock,
                                      slow_clock);
    double mean = sum / n;
    Snapshot s;
    s.wallSeconds =
        std::chrono::duration<double>(now - start_).count();
    s.maxSkew = -1e300;
    s.minSkew = 1e300;
    for (double c : clocks) {
        s.maxSkew = std::max(s.maxSkew, c - mean);
        s.minSkew = std::min(s.minSkew, c - mean);
    }
    snaps_.push_back(s);

    // Counter tracks on lane 0 plot the skew envelope over target time.
    if (obs_.trace) {
        auto ts = static_cast<cycle_t>(mean);
        obs_.trace->counter(0, "skew.max_cycles", ts,
                            static_cast<std::int64_t>(s.maxSkew));
        obs_.trace->counter(0, "skew.min_cycles", ts,
                            static_cast<std::int64_t>(s.minSkew));
    }
}

size_t
SkewTracker::sampleCount() const
{
    lockdep::Guard lock(mutex_);
    return snaps_.size();
}

std::vector<SkewTracker::Interval>
SkewTracker::analyze(int num_intervals) const
{
    lockdep::Guard lock(mutex_);
    std::vector<Interval> out;
    if (snaps_.empty() || num_intervals <= 0)
        return out;

    double t_end = 0;
    for (const Snapshot& s : snaps_)
        t_end = std::max(t_end, s.wallSeconds);
    if (t_end <= 0)
        t_end = 1e-9;
    double width = t_end / num_intervals;

    for (int b = 0; b < num_intervals; ++b) {
        double lo = b * width;
        double hi = (b + 1) * width;
        Interval iv;
        iv.wallSeconds = (lo + hi) / 2;
        iv.maxSkew = -1e300;
        iv.minSkew = 1e300;
        bool any = false;
        for (const Snapshot& s : snaps_) {
            bool inside = s.wallSeconds >= lo &&
                          (s.wallSeconds < hi ||
                           (b == num_intervals - 1 &&
                            s.wallSeconds <= hi + 1e-12));
            if (!inside)
                continue;
            iv.maxSkew = std::max(iv.maxSkew, s.maxSkew);
            iv.minSkew = std::min(iv.minSkew, s.minSkew);
            any = true;
        }
        if (any)
            out.push_back(iv);
    }
    return out;
}

} // namespace graphite
