#include "common/lockdep.h"
#include "network/global_progress.h"

#include "common/log.h"
#include "common/strfmt.h"
#include "snapshot/snapshot.h"

namespace graphite
{

GlobalProgress::GlobalProgress(size_t window_size)
{
    if (window_size == 0)
        fatal("global progress window size must be >= 1");
    window_.resize(window_size, 0);
}

cycle_t
GlobalProgress::observe(cycle_t timestamp)
{
    lockdep::Guard lock(mutex_);
    if (count_ < window_.size()) {
        ++count_;
    } else {
        sum_ -= window_[next_];
    }
    window_[next_] = timestamp;
    sum_ += timestamp;
    next_ = (next_ + 1) % window_.size();
    return publishLocked();
}

cycle_t
GlobalProgress::publishLocked()
{
    cycle_t estimate =
        count_ == 0 ? 0 : static_cast<cycle_t>(sum_ / count_);
    publishedEstimate_.store(estimate, std::memory_order_relaxed);
    // A reader that sees a non-zero count also sees an estimate at
    // least as new as the one published with it.
    publishedCount_.store(count_, std::memory_order_release);
    return estimate;
}

std::optional<cycle_t>
GlobalProgress::current() const
{
    if (samples() == 0)
        return std::nullopt;
    return publishedEstimate_.load(std::memory_order_relaxed);
}

void
GlobalProgress::serialize(snapshot::Archive& ar)
{
    lockdep::Guard lock(mutex_);
    ar.expect(window_.size(), "global-progress window");
    for (cycle_t& c : window_)
        ar.u64(c);
    ar.u64(next_);
    ar.u64(count_);
    // 128-bit running sum, low word first.
    auto lo = static_cast<std::uint64_t>(sum_);
    auto hi = static_cast<std::uint64_t>(sum_ >> 64);
    ar.u64(lo);
    ar.u64(hi);
    if (ar.loading()) {
        // observe() indexes the window with the cursor.
        if (next_ >= window_.size() || count_ > window_.size())
            throw snapshot::SnapshotError(
                strfmt("snapshot: global-progress cursor {} or count {} "
                       "out of range (window {})",
                       next_, count_, window_.size()));
        sum_ = (static_cast<unsigned __int128>(hi) << 64) | lo;
        publishLocked();
    }
}

} // namespace graphite
