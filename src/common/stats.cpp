#include "common/lockdep.h"
#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/log.h"
#include "snapshot/snapshot.h"

namespace graphite
{

// ------------------------------------------------------------ HistogramStat

void
HistogramStat::record(stat_t value)
{
    buckets_[std::bit_width(value)].fetch_add(1,
                                              std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    stat_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

void
HistogramStat::recordSerialized(stat_t value)
{
    addSerialized(buckets_[std::bit_width(value)]);
    addSerialized(count_);
    addSerialized(sum_, value);
    if (value < min_.load(std::memory_order_relaxed))
        min_.store(value, std::memory_order_relaxed);
    if (value > max_.load(std::memory_order_relaxed))
        max_.store(value, std::memory_order_relaxed);
}

void
HistogramStat::merge(const HistogramStat& other)
{
    for (int i = 0; i < NUM_BUCKETS; ++i)
        addSerialized(buckets_[i], other.bucket(i));
    addSerialized(count_, other.count());
    addSerialized(sum_, other.sum());
    // Raw min_ (all-ones when empty), as serialize() writes it.
    stat_t other_min = other.min_.load(std::memory_order_relaxed);
    if (other_min < min_.load(std::memory_order_relaxed))
        min_.store(other_min, std::memory_order_relaxed);
    if (other.max() > max())
        max_.store(other.max(), std::memory_order_relaxed);
}

double
HistogramStat::mean() const
{
    stat_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
}

stat_t
HistogramStat::bucket(int i) const
{
    GRAPHITE_ASSERT(i >= 0 && i < NUM_BUCKETS);
    return buckets_[i].load(std::memory_order_relaxed);
}

stat_t
HistogramStat::percentileApprox(double p) const
{
    stat_t n = count();
    if (n == 0)
        return 0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    // Rank of the p-th sample (1-based, ceil).
    auto rank = static_cast<stat_t>(p * static_cast<double>(n));
    if (rank == 0)
        rank = 1;
    stat_t seen = 0;
    for (int i = 0; i < NUM_BUCKETS; ++i) {
        seen += bucket(i);
        if (seen >= rank) {
            // Upper bound of bucket i: largest value of bit-width i.
            return i == 0 ? 0 : (stat_t{1} << i) - 1;
        }
    }
    return max();
}

std::string
HistogramStat::summary() const
{
    std::ostringstream os;
    os << "count=" << count() << " mean=" << mean()
       << " min=" << min() << " p50<=" << percentileApprox(0.5)
       << " p99<=" << percentileApprox(0.99) << " max=" << max();
    return os.str();
}

void
HistogramStat::reset()
{
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~stat_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

void
HistogramStat::serialize(snapshot::Archive& ar)
{
    for (auto& b : buckets_)
        ar.u64(b);
    ar.u64(count_);
    ar.u64(sum_);
    // Raw min_ (all-ones when empty), not the cooked min() accessor, so
    // a restored histogram keeps accepting smaller samples correctly.
    ar.u64(min_);
    ar.u64(max_);
}

// ------------------------------------------------------------ StatsRegistry

void
StatsRegistry::checkNewName(const std::string& name) const
{
    // Caller holds mutex_.
    if (counters_.count(name) || gauges_.count(name) ||
        histograms_.count(name))
        panic("duplicate stat registration: {}", name);
}

void
StatsRegistry::registerCounter(const std::string& name,
                               const atomic_stat_t* counter)
{
    lockdep::Guard lock(mutex_);
    checkNewName(name);
    counters_.emplace(name, counter);
}

void
StatsRegistry::registerGauge(const std::string& name, gauge_fn fn)
{
    GRAPHITE_ASSERT(fn != nullptr);
    lockdep::Guard lock(mutex_);
    checkNewName(name);
    gauges_.emplace(name, std::move(fn));
}

void
StatsRegistry::registerHistogram(const std::string& name,
                                 std::vector<const HistogramStat*> parts)
{
    GRAPHITE_ASSERT(!parts.empty());
    lockdep::Guard lock(mutex_);
    checkNewName(name);
    histograms_.emplace(name, std::move(parts));
}

stat_t
StatsRegistry::get(const std::string& name) const
{
    lockdep::Guard lock(mutex_);
    if (auto it = counters_.find(name); it != counters_.end())
        return it->second->load(std::memory_order_relaxed);
    if (auto it = gauges_.find(name); it != gauges_.end())
        return it->second();
    fatal("unknown statistic '{}'", name);
}

bool
StatsRegistry::has(const std::string& name) const
{
    lockdep::Guard lock(mutex_);
    return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
           histograms_.count(name) != 0;
}

HistogramStat
StatsRegistry::merged(const std::vector<const HistogramStat*>& parts)
{
    HistogramStat out;
    for (const HistogramStat* part : parts)
        out.merge(*part);
    return out;
}

std::optional<HistogramStat>
StatsRegistry::histogram(const std::string& name) const
{
    lockdep::Guard lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        return std::nullopt;
    return merged(it->second);
}

stat_t
StatsRegistry::sumMatching(const std::string& prefix,
                           const std::string& suffix,
                           MatchMode mode) const
{
    lockdep::Guard lock(mutex_);
    stat_t total = 0;
    std::size_t matched = 0;
    auto scan = [&](const auto& map, const auto& value_of) {
        for (auto it = map.lower_bound(prefix); it != map.end(); ++it) {
            const std::string& name = it->first;
            if (name.compare(0, prefix.size(), prefix) != 0)
                break;
            if (name.size() >= prefix.size() + suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0) {
                total += value_of(it->second);
                ++matched;
            }
        }
    };
    scan(counters_, [](const atomic_stat_t* p) {
        return p->load(std::memory_order_relaxed);
    });
    scan(gauges_, [](const gauge_fn& fn) { return fn(); });
    if (mode == MatchMode::Strict && matched == 0)
        fatal("sumMatching: no statistic matches '{}<id>{}'", prefix,
              suffix);
    return total;
}

std::vector<std::string>
StatsRegistry::names() const
{
    lockdep::Guard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto& [name, ptr] : counters_)
        out.push_back(name);
    for (const auto& [name, fn] : gauges_)
        out.push_back(name);
    for (const auto& [name, parts] : histograms_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
StatsRegistry::histogramNames() const
{
    lockdep::Guard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(histograms_.size());
    for (const auto& [name, parts] : histograms_)
        out.push_back(name);
    return out;
}

std::vector<std::pair<std::string, stat_t>>
StatsRegistry::snapshot() const
{
    lockdep::Guard lock(mutex_);
    std::vector<std::pair<std::string, stat_t>> out;
    out.reserve(counters_.size() + gauges_.size() +
                2 * histograms_.size());
    for (const auto& [name, ptr] : counters_)
        out.emplace_back(name, ptr->load(std::memory_order_relaxed));
    for (const auto& [name, fn] : gauges_)
        out.emplace_back(name, fn());
    for (const auto& [name, parts] : histograms_) {
        HistogramStat h = merged(parts);
        out.emplace_back(name + ".count", h.count());
        out.emplace_back(name + ".sum", h.sum());
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
StatsRegistry::dump() const
{
    lockdep::Guard lock(mutex_);
    // Merge all kinds into one sorted listing.
    std::map<std::string, std::string> lines;
    for (const auto& [name, ptr] : counters_)
        lines[name] =
            std::to_string(ptr->load(std::memory_order_relaxed));
    for (const auto& [name, fn] : gauges_)
        lines[name] = std::to_string(fn());
    for (const auto& [name, parts] : histograms_)
        lines[name] = merged(parts).summary();
    std::ostringstream os;
    for (const auto& [name, value] : lines)
        os << name << " = " << value << "\n";
    return os.str();
}

void
StatsRegistry::clear()
{
    lockdep::Guard lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

} // namespace graphite
