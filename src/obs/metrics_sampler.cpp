#include "common/lockdep.h"
#include "obs/metrics_sampler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/config.h"
#include "common/log.h"
#include "obs/telemetry/status.h"

namespace graphite
{
namespace obs
{

MetricsSampler::MetricsSampler(
    const StatsRegistry* registry, cycle_t interval, std::string out_path,
    std::function<cycle_t()> now,
    std::function<std::vector<double>()> active_clocks)
    : registry_(registry),
      interval_(interval),
      outPath_(std::move(out_path)),
      now_(std::move(now)),
      activeClocks_(std::move(active_clocks)),
      start_(std::chrono::steady_clock::now()),
      nextSample_(interval)
{
    if (interval == 0)
        fatal("metrics: interval must be positive");
    for (auto& [name, value] : registry_->snapshot()) {
        columns_.push_back(name);
        prevValues_.push_back(value);
    }
    violationsColumn_ = static_cast<std::size_t>(
        std::find(columns_.begin(), columns_.end(), "accuracy.violations") -
        columns_.begin());
}

std::unique_ptr<MetricsSampler>
MetricsSampler::fromConfig(
    const Config& cfg, const StatsRegistry* registry,
    std::function<cycle_t()> now,
    std::function<std::vector<double>()> active_clocks)
{
    std::string path = cfg.getString("obs/metrics_out");
    if (path.empty())
        return nullptr;
    std::int64_t interval = cfg.getInt("obs/metrics_interval");
    if (interval <= 0)
        fatal("metrics: interval must be positive");
    return std::make_unique<MetricsSampler>(
        registry, static_cast<cycle_t>(interval), std::move(path),
        std::move(now), std::move(active_clocks));
}

void
MetricsSampler::maybeSample()
{
    // Racy pre-check: worth it because this runs from every application
    // thread's periodic sync hook. The boundary is re-checked under the
    // lock before sampling.
    cycle_t now = now_ ? now_() : 0;
    if (now < nextSample_.load(std::memory_order_relaxed))
        return;

    lockdep::Guard lock(mutex_);
    if (now < nextSample_.load(std::memory_order_relaxed))
        return; // another thread beat us to this interval
    sampleLocked(now);
    // Skip boundaries the run jumped over (lax clocks can leap).
    cycle_t target = nextSample_.load(std::memory_order_relaxed);
    while (target <= now)
        target += interval_;
    nextSample_.store(target, std::memory_order_relaxed);
}

void
MetricsSampler::sampleLocked(cycle_t now)
{
    Row row;
    row.index = rows_.size();
    row.startCycle = lastSampleCycle_;
    row.endCycle = now;
    row.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    row.hostWallMs = row.wallSeconds * 1000.0;
    row.hostRssKb = telemetry::hostRssKb();

    if (activeClocks_) {
        std::vector<double> clocks = activeClocks_();
        if (clocks.size() >= 2) {
            double sum = 0;
            for (double c : clocks)
                sum += c;
            double mean = sum / static_cast<double>(clocks.size());
            row.skewMax = -1e300;
            row.skewMin = 1e300;
            for (double c : clocks) {
                row.skewMax = std::max(row.skewMax, c - mean);
                row.skewMin = std::min(row.skewMin, c - mean);
            }
        }
    }

    auto snap = registry_->snapshot();
    row.deltas.assign(columns_.size(), 0);
    // The column set is fixed at construction; stats registered later in
    // the run are ignored (documented behavior, keeps rows rectangular).
    std::size_t si = 0;
    for (std::size_t ci = 0; ci < columns_.size(); ++ci) {
        while (si < snap.size() && snap[si].first < columns_[ci])
            ++si;
        if (si < snap.size() && snap[si].first == columns_[ci]) {
            row.deltas[ci] =
                static_cast<std::int64_t>(snap[si].second) -
                static_cast<std::int64_t>(prevValues_[ci]);
            prevValues_[ci] = snap[si].second;
        }
    }
    // The causality_violations lead column repeats accuracy.violations'
    // delta; it is always present and reads 0 while that is absent.
    if (violationsColumn_ < columns_.size())
        row.causalityViolations = static_cast<stat_t>(
            std::max<std::int64_t>(row.deltas[violationsColumn_], 0));

    lastSampleCycle_ = now;
    rows_.push_back(std::move(row));
}

std::size_t
MetricsSampler::rowCount() const
{
    lockdep::Guard lock(mutex_);
    return rows_.size();
}

std::vector<std::string>
MetricsSampler::columns() const
{
    lockdep::Guard lock(mutex_);
    return columns_;
}

MetricsSampler::Row
MetricsSampler::row(std::size_t i) const
{
    lockdep::Guard lock(mutex_);
    GRAPHITE_ASSERT(i < rows_.size());
    return rows_[i];
}

std::string
MetricsSampler::render() const
{
    lockdep::Guard lock(mutex_);
    return renderLocked();
}

std::string
MetricsSampler::renderLocked() const
{
    std::ostringstream os;
    os << "interval,start_cycle,end_cycle,wall_seconds,host_wall_ms,"
          "host_rss_kb,skew_max_cycles,skew_min_cycles,"
          "causality_violations";
    for (const std::string& c : columns_)
        os << "," << c;
    os << "\n";
    for (const Row& r : rows_) {
        os << r.index << "," << r.startCycle << "," << r.endCycle << ","
           << r.wallSeconds << "," << r.hostWallMs << "," << r.hostRssKb
           << "," << r.skewMax << "," << r.skewMin << ","
           << r.causalityViolations;
        for (std::int64_t d : r.deltas)
            os << "," << d;
        os << "\n";
    }
    return os.str();
}

void
MetricsSampler::flush()
{
    lockdep::Guard lock(mutex_);
    // Tail interval: whatever accumulated since the last boundary. A
    // run shorter than one interval still gets its single partial row
    // (an empty artifact would hide the whole run).
    cycle_t now = now_ ? now_() : 0;
    if (now > lastSampleCycle_ || rows_.empty())
        sampleLocked(now);

    if (outPath_.empty())
        return;
    std::string doc = renderLocked();
    std::FILE* f = std::fopen(outPath_.c_str(), "wb");
    if (f == nullptr)
        fatal("metrics: cannot open '{}' for writing", outPath_);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
}

} // namespace obs
} // namespace graphite
