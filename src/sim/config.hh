/**
 * @file
 * Key-value configuration store.
 *
 * Every tunable in the simulator reads its value through a Config so
 * that benches and examples can override any parameter from the
 * command line as "key=value" tokens without recompiling.  Every key
 * is declared once, process-wide, as a Tunable (name, type, bound,
 * doc): model keys ("gpu.*", ...) next to their reader, scheme keys
 * ("dss.*", ...) in their registry descriptor (core/registry.hh).
 * Config::validate() rejects an undeclared key (a typo), a value of
 * the wrong type and one outside its key's bound, and the typed
 * getters check the bound too, so no reader sees such a value.
 */

#ifndef GPUMP_SIM_CONFIG_HH
#define GPUMP_SIM_CONFIG_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace gpump {
namespace sim {

/** Value type of a declared config key. */
enum class TunableType
{
    Int,
    Double,
    Bool,
};

constexpr double inf = std::numeric_limits<double>::infinity();

/** The range [lo, hi] ((lo, hi] when loOpen) a numeric key's value
 *  must lie in.  NaN and infinities never pass. */
struct Bound
{
    double lo = -inf;
    double hi = inf;
    bool loOpen = false;
};

constexpr Bound
atLeast(double lo, double hi = inf)
{
    return {lo, hi, false};
}

constexpr Bound
above(double lo, double hi = inf)
{
    return {lo, hi, true};
}

/** The largest value of a key read into an int. */
constexpr double maxInt = std::numeric_limits<int>::max();
/** A latency in microseconds: up to 1000 s, far inside SimTime. */
constexpr Bound latencyUs = atLeast(0, 1e9);
/** The largest byte count a key may name (1 PiB), so sums of
 *  footprints and bursts stay far inside int64. */
constexpr double maxBytes = 1125899906842624.0;

/** The one declaration of a config key. */
struct Tunable
{
    /** Full key, e.g. "dss.tokens_per_kernel". */
    std::string key;
    TunableType type;
    /** Scheme keys: the default as config text, which Config's
     *  getters fall back to.  Empty for model keys, whose reader
     *  states the default, and for contextual ones (DSS's budget). */
    std::string def;
    /** One-line description. */
    std::string doc;
    /** {} for Bool keys. */
    Bound bound;
};

/** @p text as one whole integer (any base strtoll takes) or number;
 *  false on trailing text or overflow.  Keys and flags parse here. */
bool parseInt(const std::string &text, std::int64_t &out);
bool parseDouble(const std::string &text, double &out);

/**
 * The candidate closest to @p needle, or empty when none is a
 * plausible typo (closer than half the needle's length) — an
 * arbitrary far-off suggestion would mislead more than it helps.
 */
std::string nearestOf(const std::string &needle,
                      const std::vector<std::string> &candidates);

/** Add @p keys to the process-wide declared set, all or none; a key
 *  declared twice is fatal.  True, for a static initializer. */
bool declareKeys(const std::vector<Tunable> &keys);

/** Every declared key, in key order. */
std::vector<Tunable> declaredKeys();

/** String-keyed configuration with typed, validated accessors. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, double value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, bool value);

    /** True when @p key has been set. */
    bool has(const std::string &key) const;

    /**
     * Parse one "key=value" token.
     * @return false (leaving the config untouched) if the token has
     *         no '=' or an empty key.
     */
    bool parse(const std::string &token);

    /** @name Typed getters with defaults
     *  Return the stored value converted to the requested type or,
     *  when the key is absent, its declared default (Tunable::def) or
     *  else @p def.  A value that does not convert, or lies outside
     *  its declared key's bound, raises fatal() naming the key.
     *  @{
     */
    double getDouble(const std::string &key, double def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    bool getBool(const std::string &key, bool def) const;
    /** @} */

    /** A key that is set or declares a default, as int, double or
     *  bool (how factories read their scheme's tunables); fatal()
     *  when it is neither. */
    template <typename T>
    T get(const std::string &key) const;

    /** fatal() unless every key set here is declared, typed and in
     *  bound; allocates nothing unless it fails.  Call it through
     *  workload::validateConfig(), which links every declaration. */
    void validate() const;

    /**
     * Overlay @p overrides on top of this config: every key set in
     * @p overrides replaces (or adds to) the current value.  Used by
     * the harness to apply per-request overrides to a base config.
     */
    void merge(const Config &overrides);

    /**
     * Canonical one-line "k=v;..." rendering of the full config, in
     * sorted key order.  Equal configs have equal fingerprints, so it
     * can key caches of config-dependent results.
     */
    std::string fingerprint() const;

  private:
    /** @p key's value, checked if the key is declared, else its
     *  declared default; nullptr when there is neither. */
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
};

} // namespace sim
} // namespace gpump

#endif // GPUMP_SIM_CONFIG_HH
