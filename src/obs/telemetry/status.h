/**
 * @file
 * Live-status data model shared by the telemetry plane: the sources
 * a Simulator wires into the HTTP server and the progress watchdog,
 * the MCP wait-set snapshot, and the renderers that turn them into
 * the /metrics (Prometheus text exposition) and /status (JSON) bodies.
 *
 * Every statistic either body reports comes from the Simulator's
 * StatsRegistry, by name; the source adds only what the registry does
 * not hold (per-tile heartbeats, wait sets, and two names).
 *
 * The obs layer sits *below* core in the link order (graphite_core
 * links graphite_obs), so these types are defined here and produced by
 * core: ThreadManager fills a WaitSetSnapshot, Simulator binds the
 * StatusSource lambdas. Everything a renderer touches through the
 * source must be safe to read from a foreign host thread while the
 * simulation runs — tile clocks are atomics, wait sets are copied
 * under the MCP state mutex, registry reads take the registry mutex.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"

namespace graphite
{
namespace obs
{

namespace telemetry
{

/** One tile's heartbeat, as sampled by the watchdog/server. */
struct TileStatus
{
    tile_id_t tile = INVALID_TILE_ID;
    cycle_t cycles = 0;
    stat_t instructions = 0;
    bool occupied = false; ///< an application thread owns the tile
    bool running = false;  ///< ... and is not blocked in a wait
};

/** Copy of the MCP's blocking state: who waits on what. */
struct WaitSetSnapshot
{
    struct FutexQueue
    {
        addr_t addr = 0;
        std::vector<tile_id_t> waiters;
    };
    struct JoinQueue
    {
        tile_id_t target = INVALID_TILE_ID;
        std::vector<tile_id_t> waiters;
    };
    std::vector<FutexQueue> futexes;
    std::vector<JoinQueue> joins;
    int busyTiles = 0;
    bool shutdownRequested = false;
};

/** Simulator-owned data sources for the telemetry plane. */
struct StatusSource
{
    /**
     * Every statistic /metrics and /status report. A name that is not
     * registered reads 0 (the accuracy and host.pool.* names mark
     * whether those observers are armed).
     */
    const StatsRegistry* stats = nullptr;
    std::function<std::vector<TileStatus>()> tiles;
    std::function<WaitSetSnapshot()> waitSets;
    std::string syncModelName;
    std::string schedulerMode; ///< "deterministic" | "free_running"
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

/** Watchdog state surfaced in /status and /healthz. */
struct WatchdogView
{
    bool enabled = false;
    const char* verdict = "ok"; ///< "ok" | "stall" | "deadlock"
    stat_t beats = 0;
    stat_t stallFlags = 0;
    stat_t dumps = 0;
};

/** Host resident-set size in KiB (/proc/self/statm); 0 if unknown. */
stat_t hostRssKb();

/**
 * Sanitize a registry statistic name into a Prometheus metric name:
 * "graphite_" prefix, every non-[a-zA-Z0-9_] byte becomes '_'.
 */
std::string prometheusName(const std::string& stat_name);

/**
 * Render the full Prometheus text exposition for @p reg: every counter
 * and gauge as an untyped gauge sample, every registered histogram as
 * a cumulative-bucket histogram family (the registry's power-of-two
 * buckets become `le` bounds). The scalar ".count"/".sum" histogram
 * projections are skipped in favor of the histogram family so no
 * series is exported twice.
 */
std::string renderPrometheus(const StatsRegistry& reg);

/** Render the /status JSON document. @p wd may be null (no watchdog). */
std::string renderStatusJson(const StatusSource& src,
                             const WatchdogView* wd);

/** Render the /healthz JSON body. @p wd may be null. */
std::string renderHealthJson(const StatusSource& src,
                             const WatchdogView* wd);

} // namespace telemetry
} // namespace obs
} // namespace graphite
