/**
 * @file
 * Executes a FuzzProgram on one simulator configuration and samples the
 * configuration matrix the differential sweep runs each seed across.
 *
 * runFuzzProgram() builds a Simulator from the given Config, runs the
 * program with a ClockWatcher attached (clock monotonicity + optional
 * periodic coherence probing), then runs the post-quiescence
 * conservation suite. The returned fingerprint must be identical for
 * the same program across every configuration in the matrix.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/fixed_types.h"
#include "common/stats.h"
#include "check/fuzz_program.h"

namespace graphite
{
namespace check
{

struct RunOptions
{
    bool periodicValidate = true; ///< probe coherence mid-run
    int watcherPeriodUs = 300;
    int validateEvery = 8; ///< coherence probe every N clock samples
    bool collectStats = false; ///< fill FuzzResult::statsReport
};

struct FuzzResult
{
    std::uint64_t fingerprint = 0;
    std::vector<std::string> violations;
    cycle_t simulatedCycles = 0;
    cycle_t maxSkew = 0;
    /** Spans the armed span engine completed; 0 when spans are off. */
    stat_t spansCompleted = 0;
    std::string statsReport;
};

/**
 * Run @p prog under @p cfg. Throws FatalError on configuration errors
 * or a failed shutdown validation; protocol invariant breaks surface in
 * FuzzResult::violations.
 */
FuzzResult runFuzzProgram(const FuzzProgram& prog, const Config& cfg,
                          const RunOptions& opt = {});

/**
 * Run @p prog in two segments split at round @p split_round (rounds
 * [0, split) then [split, end)). With @p through_snapshot false both
 * segments are run() calls on ONE Simulator — the paired-schedule
 * reference. With it true, the first segment's quiescent state is
 * checkpointed (snapshot/checkpoint.h), the Simulator is destroyed,
 * and a fresh Simulator restored from the blob runs the second
 * segment; the restored state is also immediately re-saved and any
 * byte difference from the original checkpoint is reported as a
 * violation. Both paths must reproduce runFuzzProgram's fingerprint,
 * and under `host/scheduler = deterministic` the through-snapshot run
 * must match the paired reference cycle for cycle — this is the fuzz
 * matrix's checkpoint/resume verdict source.
 */
FuzzResult runFuzzProgramSegmented(const FuzzProgram& prog,
                                   const Config& cfg,
                                   std::size_t split_round,
                                   bool through_snapshot,
                                   const RunOptions& opt = {});

/**
 * Run rounds [0, @p split_round) of @p prog on a fresh Simulator and
 * return the sealed checkpoint of its quiescent state (workload
 * bookkeeping rides in the application blob). Segment-A watcher
 * violations are appended to @p violations when given.
 */
std::vector<std::uint8_t>
checkpointFuzzProgram(const FuzzProgram& prog, const Config& cfg,
                      std::size_t split_round, const RunOptions& opt = {},
                      std::vector<std::string>* violations = nullptr);

/**
 * Restore @p ckpt into a fresh Simulator and run rounds
 * [@p split_round, end) of @p prog. Every resume also re-saves the
 * restored state and reports any byte difference from @p ckpt as a
 * violation (save→restore→save identity). The golden-snapshot fixture
 * test replays a committed checkpoint through this entry point.
 */
FuzzResult resumeFuzzProgram(const FuzzProgram& prog, const Config& cfg,
                             std::size_t split_round,
                             const std::vector<std::uint8_t>& ckpt,
                             const RunOptions& opt = {});

/** One point of the configuration matrix. */
struct ConfigPoint
{
    std::string name = "baseline";
    int tiles = 8;
    int processes = 1;
    std::string syncModel = "lax";
    cycle_t slack = 100000; ///< LaxP2P only
    std::string protocol = "dir_msi";
    std::string directoryType = "full_map";
    int lineSize = 64;
    /** Arm the happens-before race detector (src/race). Fuzz programs
     *  are race-free by construction, so any report is a violation —
     *  either a detector false positive or a missing sync edge. */
    bool race = false;
    /** Arm the span engine (src/obs/span) without an output file. The
     *  fingerprint-equality sweep then proves span instrumentation is
     *  timing-neutral: an armed run must reproduce the baseline's
     *  architectural fingerprint bit for bit. */
    bool spans = false;
    /** Arm the accuracy observatory (src/obs/accuracy) without a
     *  report file. Same fingerprint-equality argument as spans:
     *  causality detection only reads clocks, so an armed run must be
     *  architecturally indistinguishable from the baseline. */
    bool accuracy = false;
};

/** The fixed reference point every variant is compared against. */
ConfigPoint baselinePoint();

/**
 * Baseline plus @p variants seed-sampled points over
 * {1,3,8 processes} x {lax, lax_barrier, lax_p2p} x
 * {full_map, limited_no_broadcast, limitless} x {32,64-byte lines} x
 * {2000, 100000 cycles of p2p slack} x {dir_msi, dir_mesi}. The first
 * variant always runs on 3 processes with the race, span and accuracy
 * oracles armed, so every seed exercises the cross-process paths and
 * proves the oracles timing-neutral. The second runs on 64 tiles, where
 * six threads' lines spread over many homes and the two sharer pointers
 * overflow often. Every other point has 8 tiles. The protocol is drawn
 * from a stream of its own, so it does not shift the other fields a
 * seed draws.
 */
std::vector<ConfigPoint> sampleMatrix(std::uint64_t seed, int variants);

/**
 * Materialize a Config for @p pt: deliberately small caches
 * (so capacity evictions and writebacks happen; a 2 KB L2, halved when
 * a fault is injected so dirty data lines get evicted too), shutdown
 * validation off (the runner applies the richer invariant suite
 * itself), and fault injection per @p fault_mode with the address
 * filter set to the mmap base so sync words are never corrupted.
 */
Config makeFuzzConfig(const ConfigPoint& pt, std::uint64_t seed,
                      const std::string& fault_mode = "none");

} // namespace check
} // namespace graphite
