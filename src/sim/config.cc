#include "sim/config.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <type_traits>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

bool
parseInt(const std::string &text, std::int64_t &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(text.c_str(), &end, 0);
    return errno == 0 && end != text.c_str() && *end == '\0';
}

bool
parseDouble(const std::string &text, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return errno == 0 && end != text.c_str() && *end == '\0';
}

namespace {

std::int64_t
toInt(const std::string &key, const std::string &text)
{
    std::int64_t v = 0;
    if (!parseInt(text, v))
        fatal("config key '%s' has non-integer value '%s'", key.c_str(),
              text.c_str());
    return v;
}

double
toDouble(const std::string &key, const std::string &text)
{
    double v = 0;
    if (!parseDouble(text, v))
        fatal("config key '%s' has non-numeric value '%s'", key.c_str(),
              text.c_str());
    return v;
}

bool
toBool(const std::string &key, const std::string &v)
{
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '%s' has non-boolean value '%s'", key.c_str(),
          v.c_str());
}

/** fatal() unless @p text is a value of @p t's type in its bound. */
void
checkValue(const Tunable &t, const std::string &text)
{
    if (t.type == TunableType::Bool) {
        toBool(t.key, text);
        return;
    }
    const double v = t.type == TunableType::Int
        ? static_cast<double>(toInt(t.key, text))
        : toDouble(t.key, text);
    const Bound &b = t.bound;
    if (std::isfinite(v) && (b.loOpen ? v > b.lo : v >= b.lo) && v <= b.hi)
        return;
    fatal("config key '%s' is %.17g; it must be in %c%.17g, %.17g%c",
          t.key.c_str(), v, b.loOpen || b.lo == -inf ? '(' : '[', b.lo,
          b.hi, b.hi == inf ? ')' : ']');
}

/** The process-wide declared set. */
struct Declared
{
    std::mutex mutex;
    std::map<std::string, Tunable, std::less<>> keys;
};

Declared &
declared()
{
    static Declared d;
    return d;
}

/** fatal() for @p key, which no declaration names. */
[[noreturn]] void
unknownKey(const std::string &key)
{
    const std::string prefix = key.substr(0, key.find('.') + 1);
    std::vector<std::string> all;
    std::string listed;
    for (const Tunable &t : declaredKeys()) {
        all.push_back(t.key);
        if (!prefix.empty() && t.key.rfind(prefix, 0) == 0)
            listed += (listed.empty() ? "; '" + prefix + "*' declares "
                                      : ", ") + t.key;
    }
    const std::string near = nearestOf(key, all);
    fatal("unknown config key '%s'%s", key.c_str(),
          near.empty() ? listed.c_str()
                       : ("; did you mean '" + near + "'?").c_str());
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<std::size_t> prev(m + 1);
    std::vector<std::size_t> cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

} // namespace

std::string
nearestOf(const std::string &needle,
          const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_dist = 0;
    for (const std::string &c : candidates) {
        std::size_t d = editDistance(needle, c);
        if (best.empty() || d < best_dist) {
            best = c;
            best_dist = d;
        }
    }
    // Only suggest plausible typos; for anything further off the
    // caller should enumerate the valid options instead.
    if (!best.empty() && best_dist > needle.size() / 2)
        best.clear();
    return best;
}

bool
declareKeys(const std::vector<Tunable> &keys)
{
    Declared &d = declared();
    std::lock_guard<std::mutex> lock(d.mutex);
    decltype(d.keys) fresh;
    for (const Tunable &t : keys) {
        if (d.keys.count(t.key) || !fresh.emplace(t.key, t).second)
            fatal("config key '%s' is declared twice", t.key.c_str());
    }
    d.keys.merge(fresh);
    return true;
}

std::vector<Tunable>
declaredKeys()
{
    Declared &d = declared();
    std::lock_guard<std::mutex> lock(d.mutex);
    std::vector<Tunable> out;
    for (const auto &kv : d.keys)
        out.push_back(kv.second);
    return out;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, double value)
{
    values_[key] = strformat("%.17g", value);
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = strformat("%lld", static_cast<long long>(value));
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

bool
Config::parse(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    values_[token.substr(0, eq)] = token.substr(eq + 1);
    return true;
}

const std::string *
Config::find(const std::string &key) const
{
    auto it = values_.find(key);
    Declared &d = declared();
    std::lock_guard<std::mutex> lock(d.mutex);
    auto decl = d.keys.find(key);
    if (it == values_.end()) {
        return decl == d.keys.end() || decl->second.def.empty()
            ? nullptr
            : &decl->second.def; // map nodes never move
    }
    if (decl != d.keys.end())
        checkValue(decl->second, it->second);
    return &it->second;
}

double
Config::getDouble(const std::string &key, double def) const
{
    const std::string *v = find(key);
    return v ? toDouble(key, *v) : def;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    const std::string *v = find(key);
    return v ? toInt(key, *v) : def;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *v = find(key);
    return v ? toBool(key, *v) : def;
}

template <typename T>
T
Config::get(const std::string &key) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        fatal("config key '%s' is not set", key.c_str());
    if constexpr (std::is_same_v<T, bool>)
        return toBool(key, *v);
    else if constexpr (std::is_same_v<T, int>)
        return static_cast<int>(toInt(key, *v));
    else
        return toDouble(key, *v);
}

template bool Config::get<bool>(const std::string &) const;
template int Config::get<int>(const std::string &) const;
template double Config::get<double>(const std::string &) const;

void
Config::validate() const
{
    Declared &d = declared();
    std::unique_lock<std::mutex> lock(d.mutex);
    for (const auto &kv : values_) {
        auto it = d.keys.find(kv.first);
        if (it == d.keys.end()) {
            lock.unlock();
            unknownKey(kv.first);
        }
        checkValue(it->second, kv.second);
    }
}

void
Config::merge(const Config &overrides)
{
    for (const auto &kv : overrides.values_)
        values_[kv.first] = kv.second;
}

std::string
Config::fingerprint() const
{
    // Escape the separators so distinct configs can never render to
    // the same fingerprint (values may contain '=' or ';').
    auto escape = [](const std::string &s, std::string &out) {
        for (char c : s) {
            if (c == '\\' || c == '=' || c == ';')
                out += '\\';
            out += c;
        }
    };
    std::string out;
    for (const auto &kv : values_) {
        escape(kv.first, out);
        out += '=';
        escape(kv.second, out);
        out += ';';
    }
    return out;
}

} // namespace sim
} // namespace gpump
