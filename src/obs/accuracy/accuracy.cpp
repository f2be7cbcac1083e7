#include "obs/accuracy/accuracy.h"

#include <fstream>
#include <sstream>

#include "common/config.h"
#include "common/log.h"
#include "obs/telemetry/flight_recorder.h"

namespace graphite
{
namespace obs
{
namespace accuracy
{

const char*
violationPointName(ViolationPoint p)
{
    switch (p) {
      case ViolationPoint::NetApp: return "net_app";
      case ViolationPoint::NetSystem: return "net_system";
      case ViolationPoint::NetMemory: return "net_memory";
      case ViolationPoint::MemRequest: return "mem_request";
      case ViolationPoint::MemInvalidation: return "mem_invalidation";
      case ViolationPoint::MemRecall: return "mem_recall";
      case ViolationPoint::MemReply: return "mem_reply";
      case ViolationPoint::MemWriteback: return "mem_writeback";
    }
    return "?";
}

AccuracyObservatory::AccuracyObservatory(tile_id_t total_tiles,
                                         cycle_t flight_min_cycles,
                                         std::string out)
    : tiles_(total_tiles),
      flightMin_(flight_min_cycles),
      out_(std::move(out)),
      clocks_(static_cast<size_t>(total_tiles), nullptr),
      pairs_(static_cast<size_t>(total_tiles) *
             static_cast<size_t>(total_tiles))
{
}

std::unique_ptr<AccuracyObservatory>
AccuracyObservatory::fromConfig(const Config& cfg, tile_id_t total_tiles)
{
    std::string out = cfg.getString("accuracy/out");
    if (out.empty() && !cfg.getBool("accuracy/enabled"))
        return nullptr;
    return std::make_unique<AccuracyObservatory>(
        total_tiles,
        static_cast<cycle_t>(cfg.getInt("accuracy/flight_min_cycles")),
        std::move(out));
}

void
AccuracyObservatory::attachClock(tile_id_t tile,
                                 const std::atomic<cycle_t>* clock)
{
    if (tile >= 0 && static_cast<size_t>(tile) < clocks_.size())
        clocks_[static_cast<size_t>(tile)] = clock;
}

void
AccuracyObservatory::onDelivery(ViolationPoint p, tile_id_t src,
                                tile_id_t dst, cycle_t event_time)
{
    if (dst < 0 || static_cast<size_t>(dst) >= clocks_.size())
        return;
    const std::atomic<cycle_t>* clock = clocks_[static_cast<size_t>(dst)];
    if (clock == nullptr)
        return;
    cycle_t local = clock->load(std::memory_order_relaxed);

    PointState& ps = points_[static_cast<int>(p)];
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    ps.deliveries.fetch_add(1, std::memory_order_relaxed);

    if (src >= 0 && static_cast<size_t>(src) < clocks_.size() &&
        clocks_[static_cast<size_t>(src)] != nullptr) {
        cycle_t remote = clocks_[static_cast<size_t>(src)]->load(
            std::memory_order_relaxed);
        recordPair(src, dst,
                   remote > local ? remote - local : local - remote);
    }

    if (event_time >= local)
        return; // the event is in the receiver's future: causal

    cycle_t mag = local - event_time;
    violations_.fetch_add(1, std::memory_order_relaxed);
    ps.violations.fetch_add(1, std::memory_order_relaxed);
    magnitude_.record(mag);
    ps.magnitude.record(mag);

    cycle_t prev = worst_.load(std::memory_order_relaxed);
    while (mag > prev && !worst_.compare_exchange_weak(
                             prev, mag, std::memory_order_relaxed)) {
    }
    // Flight-record the worst offenders: a new high-water violation of
    // at least accuracy/flight_min_cycles lands in the crash/hang ring
    // with its magnitude and the (src, point) pair packed into b.
    if (mag > prev && mag >= flightMin_) {
        std::uint64_t packed =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
             << 8) |
            static_cast<std::uint64_t>(static_cast<int>(p));
        telemetry::FlightRecorder::record(telemetry::FrEvent::Causality,
                                          dst, local, mag, packed);
    }
}

void
AccuracyObservatory::onNetLatency(int channel, cycle_t latency)
{
    if (channel < 0 || channel >= 3)
        return;
    netLatency_[channel].record(latency);
}

void
AccuracyObservatory::onPairObserved(tile_id_t a, tile_id_t b,
                                    cycle_t clock_a, cycle_t clock_b)
{
    recordPair(a, b,
               clock_a > clock_b ? clock_a - clock_b
                                 : clock_b - clock_a);
}

void
AccuracyObservatory::recordPair(tile_id_t src, tile_id_t dst,
                                cycle_t skew)
{
    if (src < 0 || dst < 0 || src >= tiles_ || dst >= tiles_ ||
        src == dst)
        return;
    PairCell& cell =
        pairs_[static_cast<size_t>(src) * static_cast<size_t>(tiles_) +
               static_cast<size_t>(dst)];
    cycle_t prev = cell.maxSkew.load(std::memory_order_relaxed);
    while (skew > prev && !cell.maxSkew.compare_exchange_weak(
                              prev, skew, std::memory_order_relaxed)) {
    }
    cell.sumSkew.fetch_add(skew, std::memory_order_relaxed);
    cell.samples.fetch_add(1, std::memory_order_relaxed);

    prev = pairMax_.load(std::memory_order_relaxed);
    while (skew > prev && !pairMax_.compare_exchange_weak(
                              prev, skew, std::memory_order_relaxed)) {
    }
    pairSum_.fetch_add(skew, std::memory_order_relaxed);
    pairSamples_.fetch_add(1, std::memory_order_relaxed);
}

stat_t
AccuracyObservatory::pointDeliveries(ViolationPoint p) const
{
    return points_[static_cast<int>(p)].deliveries.load(
        std::memory_order_relaxed);
}

stat_t
AccuracyObservatory::pointViolations(ViolationPoint p) const
{
    return points_[static_cast<int>(p)].violations.load(
        std::memory_order_relaxed);
}

const HistogramStat*
AccuracyObservatory::pointMagnitudeHistogram(ViolationPoint p) const
{
    return &points_[static_cast<int>(p)].magnitude;
}

const HistogramStat*
AccuracyObservatory::netLatencyHistogram(int channel) const
{
    if (channel < 0 || channel >= 3)
        return nullptr;
    return &netLatency_[channel];
}

PairSkew
AccuracyObservatory::pair(tile_id_t src, tile_id_t dst) const
{
    PairSkew out;
    if (src < 0 || dst < 0 || src >= tiles_ || dst >= tiles_)
        return out;
    const PairCell& cell =
        pairs_[static_cast<size_t>(src) * static_cast<size_t>(tiles_) +
               static_cast<size_t>(dst)];
    out.maxSkew = cell.maxSkew.load(std::memory_order_relaxed);
    out.samples = cell.samples.load(std::memory_order_relaxed);
    stat_t sum = cell.sumSkew.load(std::memory_order_relaxed);
    out.meanSkew = out.samples == 0
                       ? 0.0
                       : static_cast<double>(sum) /
                             static_cast<double>(out.samples);
    return out;
}

double
AccuracyObservatory::pairSkewMean() const
{
    stat_t n = pairSamples_.load(std::memory_order_relaxed);
    if (n == 0)
        return 0.0;
    return static_cast<double>(
               pairSum_.load(std::memory_order_relaxed)) /
           static_cast<double>(n);
}

std::string
AccuracyObservatory::reportJsonl() const
{
    std::ostringstream os;
    stat_t del = deliveries();
    stat_t vio = violations();
    os << "{\"type\":\"accuracy_summary\",\"tiles\":" << tiles_
       << ",\"deliveries\":" << del << ",\"violations\":" << vio
       << ",\"violation_fraction\":"
       << (del == 0 ? 0.0
                    : static_cast<double>(vio) /
                          static_cast<double>(del))
       << ",\"worst_magnitude_cycles\":" << worstMagnitude()
       << ",\"pair_skew_max_cycles\":" << pairSkewMax()
       << ",\"pair_skew_mean_cycles\":" << pairSkewMean()
       << ",\"pair_samples\":" << pairSamples() << "}\n";

    for (int i = 0; i < NUM_VIOLATION_POINTS; ++i) {
        auto p = static_cast<ViolationPoint>(i);
        const HistogramStat* h = pointMagnitudeHistogram(p);
        os << "{\"type\":\"accuracy_point\",\"point\":\""
           << violationPointName(p)
           << "\",\"deliveries\":" << pointDeliveries(p)
           << ",\"violations\":" << pointViolations(p)
           << ",\"magnitude_p50\":" << h->percentileApprox(0.50)
           << ",\"magnitude_p95\":" << h->percentileApprox(0.95)
           << ",\"magnitude_max\":" << h->max() << "}\n";
    }

    // Non-empty matrix cells only; a dense 1024^2 dump would dwarf the
    // interesting rows.
    for (tile_id_t s = 0; s < tiles_; ++s) {
        for (tile_id_t d = 0; d < tiles_; ++d) {
            PairSkew ps = pair(s, d);
            if (ps.samples == 0)
                continue;
            os << "{\"type\":\"accuracy_pair\",\"src\":" << s
               << ",\"dst\":" << d
               << ",\"max_skew_cycles\":" << ps.maxSkew
               << ",\"mean_skew_cycles\":" << ps.meanSkew
               << ",\"samples\":" << ps.samples << "}\n";
        }
    }
    return os.str();
}

void
AccuracyObservatory::writeReport() const
{
    if (out_.empty())
        return;
    std::ofstream f(out_, std::ios::trunc);
    if (!f) {
        warn("accuracy: cannot write report to '{}'", out_);
        return;
    }
    f << reportJsonl();
    informc("obs",
            "accuracy report: {} ({} violations / {} deliveries, worst "
            "{} cycles)",
            out_, violations(), deliveries(), worstMagnitude());
}

} // namespace accuracy
} // namespace obs
} // namespace graphite
