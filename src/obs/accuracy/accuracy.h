/**
 * @file
 * Accuracy observatory: causality-violation detection and lax-sync
 * error attribution (paper §3.6, §4.3).
 *
 * Lax synchronization deliberately lets tiles run on skewed clocks:
 * "regardless of the time-stamp of a packet, the network forwards
 * messages immediately and delivers them in the order they are
 * received". The price is that a packet or coherence message may carry
 * a timestamp *earlier* than the receiver's local clock — a causality
 * violation, the unit of lax-sync simulation error. This observatory
 * makes that error measurable on every run:
 *
 *  - every network delivery and memory-transaction leg is checked
 *    against the destination tile's live clock; violations are counted
 *    and their magnitudes (receiver clock − event time, in cycles)
 *    histogrammed per interaction point;
 *  - a lock-free per-tile-pair skew matrix accumulates the max/mean
 *    clock skew observed at interaction points (deliveries and LaxP2P
 *    partner checks);
 *  - per-channel network delivery-latency histograms feed the
 *    accuracy-diff harness (tools/accuracy_report.py) with the P50/P95
 *    latencies it compares across sync models.
 *
 * Detection is timing-neutral by construction: hooks only *read* tile
 * clocks and modeled event times and bump observatory-private atomics;
 * no simulated clock, packet timestamp, or protocol decision is ever
 * touched (proven by the `_acc` fuzz variant's fingerprint equality).
 *
 * Config keys (see graphite.cfg [accuracy]):
 *   accuracy/enabled            arm detection without a report file
 *   accuracy/out                JSONL report path (implies enabled)
 *   accuracy/flight_min_cycles  min violation magnitude recorded into
 *                               the flight recorder (worst offenders)
 *
 * Each Simulator owns its observatory, built only when armed; the
 * hooks hold a non-owning pointer, so the fully disarmed hot path is a
 * null check.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"

namespace graphite
{

class Config;

namespace obs
{
namespace accuracy
{

/**
 * Where a stale-timestamp event was observed. Network points classify
 * by packet type at the Network::recv demux; memory points classify by
 * coherence-transaction leg at the modeled arrival of each message.
 */
enum class ViolationPoint : std::uint8_t
{
    NetApp = 0,      ///< application packet at the recv demux
    NetSystem,       ///< system (MCP) packet at the recv demux
    NetMemory,       ///< physically transported memory packet
    MemRequest,      ///< requester -> home directory request
    MemInvalidation, ///< home -> sharer invalidation (and its ack)
    MemRecall,       ///< home -> owner recall (and the data return)
    MemReply,        ///< home -> requester data/ack reply
    MemWriteback,    ///< evicting tile -> home writeback / evict notify
};

inline constexpr int NUM_VIOLATION_POINTS = 8;

/** Stable lowercase name ("net_app", "mem_recall", ...). */
const char* violationPointName(ViolationPoint p);

/** One cell of the per-tile-pair skew matrix, read side. */
struct PairSkew
{
    cycle_t maxSkew = 0;  ///< max |clock(src) − clock(dst)| observed
    double meanSkew = 0;  ///< mean over samples
    stat_t samples = 0;   ///< interaction points observed
};

/**
 * One Simulator's accuracy observatory. All hot-path methods are
 * wait-free (relaxed atomics only) and safe from any host thread.
 */
class AccuracyObservatory
{
  public:
    /**
     * An armed observatory over @p total_tiles tiles. Violations of at
     * least @p flight_min_cycles reach the flight recorder; the JSONL
     * report goes to @p out (empty = no report).
     */
    explicit AccuracyObservatory(tile_id_t total_tiles,
                                 cycle_t flight_min_cycles = 10000,
                                 std::string out = "");

    /**
     * The observatory the [accuracy] keys ask for; null unless
     * `accuracy/enabled` is set or `accuracy/out` names a report.
     */
    static std::unique_ptr<AccuracyObservatory>
    fromConfig(const Config& cfg, tile_id_t total_tiles);

    /**
     * Attach @p tile's live clock (the core model's atomic). A tile
     * with no clock attached observes nothing.
     */
    void attachClock(tile_id_t tile, const std::atomic<cycle_t>* clock);

    /**
     * One delivery/completion observed at interaction point @p p:
     * an event modeled to occur at @p event_time arrives at @p dst
     * (sent by @p src). Reads the destination clock; when the event
     * timestamp is already in the receiver's past, records a causality
     * violation of magnitude (clock − event_time). Also feeds the
     * (src, dst) skew-matrix cell.
     */
    void onDelivery(ViolationPoint p, tile_id_t src, tile_id_t dst,
                    cycle_t event_time);

    /**
     * One modeled network delivery latency on @p channel (the integer
     * value of the PacketType enum). Feeds the per-channel latency
     * histograms the accuracy-diff harness compares across sync
     * models.
     */
    void onNetLatency(int channel, cycle_t latency);

    /**
     * A direct observation of two tiles' clocks at an interaction
     * point (a LaxP2P partner check). Feeds the (a, b) skew-matrix
     * cell.
     */
    void onPairObserved(tile_id_t a, tile_id_t b, cycle_t clock_a,
                        cycle_t clock_b);

    /** @name Aggregate accessors (stats registration, tests) @{ */
    tile_id_t totalTiles() const { return tiles_; }
    const atomic_stat_t* deliveriesCounter() const { return &deliveries_; }
    const atomic_stat_t* violationsCounter() const { return &violations_; }
    stat_t deliveries() const
    {
        return deliveries_.load(std::memory_order_relaxed);
    }
    stat_t violations() const
    {
        return violations_.load(std::memory_order_relaxed);
    }
    cycle_t worstMagnitude() const
    {
        return worst_.load(std::memory_order_relaxed);
    }
    stat_t pointDeliveries(ViolationPoint p) const;
    stat_t pointViolations(ViolationPoint p) const;
    const HistogramStat* magnitudeHistogram() const { return &magnitude_; }
    const HistogramStat* pointMagnitudeHistogram(ViolationPoint p) const;
    const HistogramStat* netLatencyHistogram(int channel) const;
    /** @} */

    /** @name Pair-skew matrix accessors @{ */
    PairSkew pair(tile_id_t src, tile_id_t dst) const;
    cycle_t pairSkewMax() const
    {
        return pairMax_.load(std::memory_order_relaxed);
    }
    double pairSkewMean() const;
    stat_t pairSamples() const
    {
        return pairSamples_.load(std::memory_order_relaxed);
    }
    /** @} */

    /** Configured report path ("" when none). */
    const std::string& reportPath() const { return out_; }

    /** Write the JSONL report to reportPath(), if one is configured. */
    void writeReport() const;

    /** Render the JSONL report body. */
    std::string reportJsonl() const;

  private:
    struct PointState
    {
        atomic_stat_t deliveries{0};
        atomic_stat_t violations{0};
        HistogramStat magnitude;
    };

    /** One directional skew-matrix cell (src-major, like the traffic
     *  matrix in NetworkFabric). */
    struct PairCell
    {
        std::atomic<cycle_t> maxSkew{0};
        atomic_stat_t sumSkew{0};
        atomic_stat_t samples{0};
    };

    void recordPair(tile_id_t src, tile_id_t dst, cycle_t skew);

    tile_id_t tiles_;
    cycle_t flightMin_;
    std::string out_;

    std::vector<const std::atomic<cycle_t>*> clocks_;

    atomic_stat_t deliveries_{0};
    atomic_stat_t violations_{0};
    std::atomic<cycle_t> worst_{0};
    HistogramStat magnitude_;
    PointState points_[NUM_VIOLATION_POINTS];
    HistogramStat netLatency_[3];

    std::vector<PairCell> pairs_;
    std::atomic<cycle_t> pairMax_{0};
    atomic_stat_t pairSum_{0};
    atomic_stat_t pairSamples_{0};
};

} // namespace accuracy
} // namespace obs
} // namespace graphite
