/**
 * @file
 * Chrome trace_event sink: low-overhead, per-lane ring-buffered event
 * recording, exported as JSON loadable by chrome://tracing and Perfetto.
 *
 * Lanes map to Chrome "threads": one lane per target tile plus one for
 * the MCP service thread. Timestamps are *simulated* cycles rendered as
 * trace microseconds (1 cycle == 1 us of display time), so the viewer
 * shows target time, not host time.
 *
 * Each Simulator owns its sink, built only when `obs/trace_out` is set;
 * components hold a non-owning pointer, so the disabled hot path — the
 * default — is one null check. Lanes and their names are fixed at
 * construction. A per-lane mutex guards the lane's ring; lanes are
 * effectively single-writer (a tile's events come from the thread
 * occupying it), so contention is nil. Rings overwrite nothing: once a
 * lane is full further events are dropped and counted, keeping the
 * *beginning* of the run — the part whose thread-spawn structure makes
 * the rest interpretable.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/lockdep.h"

namespace graphite
{

class Config;

namespace obs
{

/** One recorded event. Names must be string literals (never freed). */
struct TraceEvent
{
    const char* name = nullptr;
    const char* argName = nullptr; ///< nullptr = no argument
    cycle_t ts = 0;                ///< simulated cycles
    cycle_t dur = 0;               ///< for phase 'X' only
    std::int64_t arg = 0;
    std::uint64_t id = 0; ///< flow-binding id, phases 's'/'t'/'f' only
    std::uint32_t lane = 0;
    /** 'X' complete, 'i' instant, 'C' counter, or a flow phase:
     *  's' start, 't' step, 'f' end (Perfetto arrows). */
    char phase = 'i';
};

/** One Simulator's trace sink. */
class TraceSink
{
  public:
    /**
     * One ring of @p capacity events per entry of @p lane_names (the
     * viewer's thread names). @p path is where writeFile() puts the
     * document; empty for render-only sinks (tests).
     */
    TraceSink(std::vector<std::string> lane_names, std::size_t capacity,
              std::string path = "");

    /**
     * The sink `obs/trace_out` asks for: one lane per tile plus one for
     * the MCP service thread, `obs/trace_buffer_capacity` events each.
     * Null when the key is empty (tracing off).
     */
    static std::unique_ptr<TraceSink> fromConfig(const Config& cfg,
                                                 tile_id_t total_tiles);

    /** @name Recording @{ */
    void complete(std::uint32_t lane, const char* name, cycle_t ts,
                  cycle_t dur, const char* arg_name = nullptr,
                  std::int64_t arg = 0);
    void instant(std::uint32_t lane, const char* name, cycle_t ts,
                 const char* arg_name = nullptr, std::int64_t arg = 0);
    void counter(std::uint32_t lane, const char* name, cycle_t ts,
                 std::int64_t value);
    /**
     * Record a flow event: @p phase is 's' (start), 't' (step) or
     * 'f' (end). Events with the same @p name and @p id form one
     * arrow chain; the 'f' event binds to the enclosing slice
     * ("bp":"e"). All events of one chain share category "span".
     */
    void flow(char phase, std::uint32_t lane, const char* name,
              cycle_t ts, std::uint64_t id);
    /** @} */

    /** Events currently held across all lanes. */
    std::size_t recorded() const;

    /** Events rejected because their lane's ring was full. */
    std::size_t dropped() const;

    /** Render the Chrome trace JSON document. */
    std::string toJson() const;

    const std::string& path() const { return path_; }

    /** Write toJson() to path(); fatal if the file cannot be written. */
    void writeFile() const;

  private:
    struct Lane
    {
        mutable lockdep::OrderedMutex mutex{lockdep::LockClass::trace_lane};
        std::vector<TraceEvent> events; ///< reserve(capacity), append-only
        std::uint64_t dropped = 0;
        std::string name;
    };

    void record(const TraceEvent& ev);

    std::vector<std::unique_ptr<Lane>> lanes_; ///< fixed at construction
    std::size_t capacity_;
    std::string path_;
};

} // namespace obs
} // namespace graphite
