/**
 * @file
 * Hierarchical runtime configuration.
 *
 * Graphite is configured entirely through run-time parameters (paper §2):
 * every model is a swappable module selected and parameterized by config
 * keys. Keys are slash-separated paths such as
 * "network/memory_model" or "perf_model/l2_cache/associativity".
 *
 * The text format is INI-like:
 *
 *     [perf_model/l2_cache]
 *     associativity = 24
 *     cache_size    = 3145728    ; bytes
 *
 * with '#' or ';' comments, section headers composing with key names, and
 * later definitions overriding earlier ones (so command-line overrides can
 * simply be appended).
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace graphite
{

/**
 * Key/value configuration store with typed accessors.
 *
 * Every getter calls fatal() when the key is absent: each key the
 * simulator reads has its default in graphite.cfg, which is compiled in
 * as defaultTargetConfig(), so a missing key is a typo or a config that
 * did not start from the defaults.
 */
class Config
{
  public:
    Config() = default;

    /** Parse INI-style text, merging into this config (later wins). */
    void parseText(std::string_view text);

    /** Load and parse a config file. Fatal if unreadable. */
    void parseFile(const std::string& path);

    /**
     * Apply a single "path/key=value" override (command-line style).
     * Fatal on malformed input.
     */
    void setOverride(std::string_view assignment);

    /** Set a key programmatically. */
    void set(const std::string& key, const std::string& value);
    void setInt(const std::string& key, std::int64_t value);
    void setBool(const std::string& key, bool value);
    void setDouble(const std::string& key, double value);

    /** Getters — fatal() when missing or malformed. */
    std::string getString(const std::string& key) const;
    std::int64_t getInt(const std::string& key) const;
    double getDouble(const std::string& key) const;
    bool getBool(const std::string& key) const;

    /** All keys under a prefix (for enumeration in tests/tools). */
    std::vector<std::string> keysWithPrefix(const std::string& prefix) const;

    /** Render the full config as sorted "key = value" lines. */
    std::string toString() const;

  private:
    std::optional<std::string> lookup(const std::string& key) const;

    std::map<std::string, std::string> values_;
};

/**
 * @return a Config holding the repository's graphite.cfg, compiled in:
 * the paper's Table 1 target architecture parameters (1 GHz clock,
 * 32 KB 8-way L1s, 3 MB 24-way L2, 64 B lines, full-map directory MSI,
 * 5.13 GB/s DRAM, mesh interconnect) plus this implementation's model
 * defaults, one entry for every key the simulator reads.
 */
Config defaultTargetConfig();

} // namespace graphite
