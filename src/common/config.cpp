#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/log.h"

namespace graphite
{

namespace
{

std::string
trim(std::string_view s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::string
stripComment(std::string_view line)
{
    size_t pos = line.find_first_of("#;");
    if (pos != std::string_view::npos)
        line = line.substr(0, pos);
    return std::string(line);
}

} // namespace

void
Config::parseText(std::string_view text)
{
    std::string section;
    size_t start = 0;
    int line_no = 0;
    while (start <= text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string_view::npos)
            end = text.size();
        std::string line = trim(stripComment(text.substr(start,
                                                         end - start)));
        start = end + 1;
        ++line_no;
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal("config line {}: malformed section header '{}'",
                      line_no, line);
            section = trim(std::string_view(line).substr(1,
                                                         line.size() - 2));
            continue;
        }
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config line {}: expected 'key = value', got '{}'",
                  line_no, line);
        std::string key = trim(std::string_view(line).substr(0, eq));
        std::string value = trim(std::string_view(line).substr(eq + 1));
        if (key.empty())
            fatal("config line {}: empty key", line_no);
        if (!section.empty())
            key = section + "/" + key;
        values_[key] = value;
    }
}

void
Config::parseFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '{}'", path);
    std::stringstream ss;
    ss << in.rdbuf();
    parseText(ss.str());
}

void
Config::setOverride(std::string_view assignment)
{
    size_t eq = assignment.find('=');
    if (eq == std::string_view::npos)
        fatal("malformed config override '{}' (expected key=value)",
              std::string(assignment));
    std::string key = trim(assignment.substr(0, eq));
    std::string value = trim(assignment.substr(eq + 1));
    if (key.empty())
        fatal("malformed config override '{}' (empty key)",
              std::string(assignment));
    values_[key] = value;
}

void
Config::set(const std::string& key, const std::string& value)
{
    values_[key] = value;
}

void
Config::setInt(const std::string& key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::setBool(const std::string& key, bool value)
{
    values_[key] = value ? "true" : "false";
}

void
Config::setDouble(const std::string& key, double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    values_[key] = os.str();
}

bool
Config::has(const std::string& key) const
{
    return values_.count(key) != 0;
}

std::optional<std::string>
Config::lookup(const std::string& key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

std::string
Config::getString(const std::string& key) const
{
    auto v = lookup(key);
    if (!v)
        fatal("missing required config key '{}'", key);
    return *v;
}

std::string
Config::getString(const std::string& key, const std::string& dflt) const
{
    return lookup(key).value_or(dflt);
}

std::int64_t
Config::getInt(const std::string& key) const
{
    auto v = lookup(key);
    if (!v)
        fatal("missing required config key '{}'", key);
    std::int64_t out = 0;
    const char* first = v->data();
    const char* last = v->data() + v->size();
    auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || ptr != last)
        fatal("config key '{}': '{}' is not an integer", key, *v);
    return out;
}

std::int64_t
Config::getInt(const std::string& key, std::int64_t dflt) const
{
    return has(key) ? getInt(key) : dflt;
}

double
Config::getDouble(const std::string& key) const
{
    auto v = lookup(key);
    if (!v)
        fatal("missing required config key '{}'", key);
    try {
        size_t pos = 0;
        double out = std::stod(*v, &pos);
        if (pos != v->size())
            fatal("config key '{}': '{}' is not a number", key, *v);
        return out;
    } catch (const std::invalid_argument&) {
        fatal("config key '{}': '{}' is not a number", key, *v);
    } catch (const std::out_of_range&) {
        fatal("config key '{}': '{}' is out of range", key, *v);
    }
}

double
Config::getDouble(const std::string& key, double dflt) const
{
    return has(key) ? getDouble(key) : dflt;
}

bool
Config::getBool(const std::string& key) const
{
    auto v = lookup(key);
    if (!v)
        fatal("missing required config key '{}'", key);
    std::string s = *v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    fatal("config key '{}': '{}' is not a boolean", key, *v);
}

bool
Config::getBool(const std::string& key, bool dflt) const
{
    return has(key) ? getBool(key) : dflt;
}

std::vector<std::string>
Config::keysWithPrefix(const std::string& prefix) const
{
    std::vector<std::string> out;
    for (const auto& [k, v] : values_) {
        if (k.compare(0, prefix.size(), prefix) == 0)
            out.push_back(k);
    }
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto& [k, v] : values_)
        os << k << " = " << v << "\n";
    return os.str();
}

Config
defaultTargetConfig()
{
    Config cfg;
    cfg.parseText(R"cfg(
# ---- Target architecture (paper Table 1) ----
[general]
total_tiles            = 32
num_processes          = 1
clock_frequency_ghz    = 1.0
enable_stats           = true

[perf_model/core]
type                   = in_order
frequency_ghz          = 1.0
load_queue_size        = 8
store_buffer_size      = 8

[perf_model/branch_predictor]
type                   = two_bit      ; none | always_taken | one_bit | two_bit
size                   = 1024
mispredict_penalty     = 14

[perf_model/l1_icache]
enabled                = true
cache_size             = 32768        ; 32 KB
associativity          = 8
line_size              = 64
access_latency         = 1
replacement            = lru

[perf_model/l1_dcache]
enabled                = true
cache_size             = 32768        ; 32 KB
associativity          = 8
line_size              = 64
access_latency         = 1
replacement            = lru

[perf_model/l2_cache]
enabled                = true
cache_size             = 3145728      ; 3 MB
associativity          = 24
line_size              = 64
access_latency         = 9
replacement            = lru

[perf_model/dram]
latency_ns             = 100
total_bandwidth_gbps   = 5.13         ; split evenly across per-tile controllers
queue_model_enabled    = true

[caching_protocol]
type                   = dir_msi      ; dir_msi | dir_mesi
directory_type         = full_map     ; full_map | limited_no_broadcast | limitless
max_sharers            = 4            ; for limited/limitless directories
limitless_software_trap_penalty = 100
directory_access_latency = 10

[mem]
miss_classification    = true

[network]
memory_model           = emesh_contention  ; magic | emesh_hop | emesh_contention
app_model              = emesh_contention
system_model           = magic
hop_latency            = 2
link_bandwidth_bytes   = 8             ; bytes per cycle per link
queue_model_window     = 64
queue_outlier_window   = 100000       ; clamp span around global progress
queue_max_backlog      = 10000        ; finite-buffer back-pressure bound

[sync]
model                  = lax           ; lax | lax_barrier | lax_p2p
quantum                = 1000          ; barrier interval, cycles
slack                  = 100000        ; LaxP2P slack, cycles
check_interval         = 200           ; instructions between sync checks

[transport]
intra_process_latency_us  = 0.5
inter_process_latency_us  = 50        ; one-way, gigabit-class LAN
inter_process_bandwidth_mbps = 1000

[system]
syscall_cost           = 100          ; target cycles per syscall round trip
spawn_cost             = 1000         ; target cycles charged to a new thread

[host]
cores_per_machine      = 8
processes_per_machine  = 1
host_clock_ghz         = 3.16
native_ipc             = 1.0
instruction_model_cost = 90           ; host cycles to model one instruction
memory_event_cost      = 420          ; host cycles per memory access modeled
miss_event_cost        = 2000         ; host cycles per coherence transaction
message_send_cost      = 600          ; host cycles per transported message
inter_process_byte_cost = 2           ; extra host cycles per socket byte
syscall_host_cost      = 3000         ; host cycles per MCP syscall
barrier_base_us        = 5
stall_exposure         = 0.02
init_seconds_per_process = 1.0

[stack]
stack_size_per_thread  = 2097152      ; 2 MB simulated stacks

[rng]
seed                   = 42

[check]
validate_at_shutdown   = true         ; coherence check when run() ends
inject_fault           = none         ; none | drop_invalidation | stale_dram_fill | lost_writeback | skip_release_fence
fault_after            = 4            ; opportunities to spare before firing
fault_addr_below       = 0            ; 0 = no address filter
)cfg");
    return cfg;
}

} // namespace graphite
