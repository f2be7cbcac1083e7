#include "common/lockdep.h"
#include "obs/trace_event.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/config.h"
#include "common/log.h"
#include "common/strfmt.h"

namespace graphite
{
namespace obs
{

TraceSink::TraceSink(std::vector<std::string> lane_names,
                     std::size_t capacity, std::string path)
    : capacity_(capacity), path_(std::move(path))
{
    lanes_.reserve(lane_names.size());
    for (std::size_t i = 0; i < lane_names.size(); ++i) {
        auto lane = std::make_unique<Lane>();
        lane->mutex.setInstance(static_cast<std::int64_t>(i));
        lane->events.reserve(capacity);
        lane->name = std::move(lane_names[i]);
        lanes_.push_back(std::move(lane));
    }
}

std::unique_ptr<TraceSink>
TraceSink::fromConfig(const Config& cfg, tile_id_t total_tiles)
{
    std::string path = cfg.getString("obs/trace_out");
    if (path.empty())
        return nullptr;
    auto capacity = static_cast<std::size_t>(
        cfg.getInt("obs/trace_buffer_capacity"));
    std::vector<std::string> names;
    for (tile_id_t t = 0; t < total_tiles; ++t)
        names.push_back(strfmt("tile {}", t));
    names.emplace_back("mcp");
    return std::make_unique<TraceSink>(std::move(names), capacity,
                                       std::move(path));
}

void
TraceSink::record(const TraceEvent& ev)
{
    // Events from an out-of-range lane are dropped.
    if (ev.lane >= lanes_.size())
        return;
    Lane& lane = *lanes_[ev.lane];
    lockdep::Guard lock(lane.mutex);
    if (lane.events.size() >= capacity_) {
        ++lane.dropped;
        return;
    }
    lane.events.push_back(ev);
}

void
TraceSink::complete(std::uint32_t lane, const char* name, cycle_t ts,
                    cycle_t dur, const char* arg_name, std::int64_t arg)
{
    TraceEvent ev;
    ev.name = name;
    ev.argName = arg_name;
    ev.ts = ts;
    ev.dur = dur;
    ev.arg = arg;
    ev.lane = lane;
    ev.phase = 'X';
    record(ev);
}

void
TraceSink::instant(std::uint32_t lane, const char* name, cycle_t ts,
                   const char* arg_name, std::int64_t arg)
{
    TraceEvent ev;
    ev.name = name;
    ev.argName = arg_name;
    ev.ts = ts;
    ev.arg = arg;
    ev.lane = lane;
    ev.phase = 'i';
    record(ev);
}

void
TraceSink::flow(char phase, std::uint32_t lane, const char* name,
                cycle_t ts, std::uint64_t id)
{
    GRAPHITE_ASSERT(phase == 's' || phase == 't' || phase == 'f');
    TraceEvent ev;
    ev.name = name;
    ev.ts = ts;
    ev.id = id;
    ev.lane = lane;
    ev.phase = phase;
    record(ev);
}

std::size_t
TraceSink::recorded() const
{
    std::size_t total = 0;
    for (const auto& lane : lanes_) {
        lockdep::Guard ll(lane->mutex);
        total += lane->events.size();
    }
    return total;
}

std::size_t
TraceSink::dropped() const
{
    std::size_t total = 0;
    for (const auto& lane : lanes_) {
        lockdep::Guard ll(lane->mutex);
        total += lane->dropped;
    }
    return total;
}

namespace
{

/** Escape a string for a JSON string literal. */
void
appendEscaped(std::ostringstream& os, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

} // namespace

std::string
TraceSink::toJson() const
{
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    std::uint64_t total_dropped = 0;
    std::uint64_t total_recorded = 0;

    for (std::size_t li = 0; li < lanes_.size(); ++li) {
        const Lane& lane = *lanes_[li];
        lockdep::Guard ll(lane.mutex);
        total_dropped += lane.dropped;

        if (!lane.name.empty()) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":"
               << li << ",\"args\":{\"name\":\"";
            appendEscaped(os, lane.name);
            os << "\"}}";
        }

        // Events are appended in recording order, which is ts order per
        // lane up to cross-thread jitter; sort so viewers get a clean
        // timeline.
        std::vector<TraceEvent> evs = lane.events;
        total_recorded += evs.size();
        std::stable_sort(evs.begin(), evs.end(),
                         [](const TraceEvent& a, const TraceEvent& b) {
                             return a.ts < b.ts;
                         });
        for (const TraceEvent& ev : evs) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"name\":\"";
            appendEscaped(os, ev.name);
            os << "\",\"ph\":\"" << ev.phase << "\",\"pid\":0,\"tid\":"
               << ev.lane << ",\"ts\":" << ev.ts;
            if (ev.phase == 'X')
                os << ",\"dur\":" << ev.dur;
            if (ev.phase == 'i')
                os << ",\"s\":\"t\"";
            if (ev.phase == 's' || ev.phase == 't' ||
                ev.phase == 'f') {
                // Flow chains match on (cat, id, name); the end event
                // binds to the enclosing slice.
                os << ",\"cat\":\"span\",\"id\":" << ev.id;
                if (ev.phase == 'f')
                    os << ",\"bp\":\"e\"";
            }
            if (ev.argName != nullptr) {
                os << ",\"args\":{\"";
                appendEscaped(os, ev.argName);
                os << "\":" << ev.arg << "}";
            }
            os << "}";
        }
    }

    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"generator\":\"graphite-obs\",\"timeUnit\":"
          "\"simulated cycles as us\",\"recordedEvents\":"
       << total_recorded << ",\"droppedEvents\":" << total_dropped
       << "}}";
    return os.str();
}

void
TraceSink::writeFile() const
{
    std::string json = toJson();
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (f == nullptr)
        fatal("trace: cannot open '{}' for writing", path_);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

} // namespace obs
} // namespace graphite
