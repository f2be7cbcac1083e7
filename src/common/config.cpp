#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "default_config.h"

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
    cfg.parseText(DEFAULT_CONFIG_TEXT);
    return cfg;
}

} // namespace graphite
