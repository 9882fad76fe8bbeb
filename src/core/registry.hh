/**
 * @file
 * The pluggable scheme registry.
 *
 * The paper's central design claim is the separation of preemption
 * *mechanisms* from scheduling *policies* (Section 3).  This header
 * makes that separation an open API: every policy and mechanism
 * registers a descriptor — name, one-line doc, factory, and the
 * config tunables it understands — in a process-wide registry, and
 * the factories (`makePolicy` / `makeMechanism`) become thin lookups.
 * New schemes plug in from any translation unit, including ones
 * outside src/ entirely (see examples/custom_policy.cpp); nothing in
 * core needs editing.
 *
 * Every declared tunable joins the process-wide set of declared
 * config keys (sim/config.hh), and a key may be declared only once.
 * workload::System validates its config against that set before any
 * scheme is built, so a typo like "dss.tokens_per_kerel" is a hard
 * fatal() naming the nearest declared key instead of a silently
 * ignored no-op, and a value outside a tunable's declared bound never
 * reaches the factory.
 *
 * Static-library caveat: a registrar object in an archive member that
 * no symbol references is dropped by the linker.  Built-in schemes
 * therefore export a link-anchor function that the factory
 * translation unit references (see GPUMP_DEFINE_LINK_ANCHOR and the
 * force-link lists in policy.cc / preemption.cc).  Out-of-tree
 * registrants compiled into the executable itself need no anchor.
 */

#ifndef GPUMP_CORE_REGISTRY_HH
#define GPUMP_CORE_REGISTRY_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

using sim::Tunable;
using sim::TunableType;

/**
 * A registry of named scheme constructors for one product kind
 * (scheduling policies or preemption mechanisms).
 *
 * Registration normally happens from static registrar objects at
 * program start; lookups run concurrently from the batch runner's
 * worker threads, so every accessor takes the registry mutex.
 * Descriptors are never removed, so pointers returned by find()/at()
 * stay valid for the life of the process.
 */
template <typename Base>
class SchemeRegistry
{
  public:
    /** Factory signature.  A factory reads its tunables with
     *  sim::Config::get(), which falls back to the declared default,
     *  so the default a Tunable advertises (--list-schemes) is the
     *  only one.  The config arrives unvalidated: workload::System
     *  validates it once per assembly. */
    using Factory =
        std::function<std::unique_ptr<Base>(const sim::Config &)>;

    /** Everything the registry knows about one scheme. */
    struct Descriptor
    {
        /** Canonical name ("dss", "context_switch"). */
        std::string name;
        /** One-line description for errors and --list-schemes. */
        std::string doc;
        Factory factory;
        /** Declared tunables; add() declares them process-wide. */
        std::vector<Tunable> tunables;
        /** Accepted shorthands ("cs" for "context_switch"). */
        std::vector<std::string> aliases;
        /**
         * Policies only: true when the scheme triggers preemptions,
         * i.e. the mechanism choice affects its behaviour.  Drives
         * harness::Scheme::label() (non-preemptive policies collapse
         * the mechanism column) and Suite::allSchemes().
         */
        bool usesMechanism = true;
        /**
         * Optional assembly hook: fill contextual defaults into the
         * construction config once the machine size is known.  Called
         * by workload::System with the SM count and process count
         * before the factory runs (this is how DSS computes its
         * equal-share token budget without core knowing about DSS).
         */
        std::function<void(sim::Config &cfg, int numSms,
                           int numProcesses)>
            assemblyDefaults;
    };

    /** @param kind human-readable product name for error messages,
     *         e.g. "scheduling policy". */
    explicit SchemeRegistry(std::string kind) : kind_(std::move(kind)) {}

    SchemeRegistry(const SchemeRegistry &) = delete;
    SchemeRegistry &operator=(const SchemeRegistry &) = delete;

    /**
     * Register a scheme.  Fails fast (fatal) on an empty name or
     * factory, a duplicate name/alias, or a tunable key that is
     * already declared.
     */
    void add(Descriptor d)
    {
        if (d.name.empty())
            sim::fatal("cannot register a %s with an empty name",
                       kind_.c_str());
        if (!d.factory)
            sim::fatal("%s '%s' registered without a factory",
                       kind_.c_str(), d.name.c_str());
        std::lock_guard<std::mutex> lock(mutex_);
        if (byName_.count(d.name) || aliases_.count(d.name)) {
            sim::fatal("duplicate %s registration '%s'", kind_.c_str(),
                       d.name.c_str());
        }
        for (std::size_t i = 0; i < d.aliases.size(); ++i) {
            const std::string &a = d.aliases[i];
            bool self_dup = a == d.name ||
                std::find(d.aliases.begin(),
                          d.aliases.begin() +
                              static_cast<std::ptrdiff_t>(i),
                          a) != d.aliases.begin() +
                    static_cast<std::ptrdiff_t>(i);
            if (self_dup || byName_.count(a) || aliases_.count(a)) {
                sim::fatal("duplicate %s alias '%s' (registering '%s')",
                           kind_.c_str(), a.c_str(), d.name.c_str());
            }
        }
        sim::declareKeys(d.tunables);
        auto [it, inserted] = byName_.emplace(d.name, std::move(d));
        GPUMP_ASSERT(inserted, "registry emplace failed");
        for (const std::string &a : it->second.aliases)
            aliases_.emplace(a, &it->second);
    }

    /** Alias-aware lookup; nullptr when unknown. */
    const Descriptor *find(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = byName_.find(name);
        if (it != byName_.end())
            return &it->second;
        auto at = aliases_.find(name);
        return at == aliases_.end() ? nullptr : at->second;
    }

    /**
     * Lookup that raises fatal() for unknown names, listing every
     * registered entry so the caller can see what exists.
     */
    const Descriptor &at(const std::string &name) const
    {
        const Descriptor *d = find(name);
        if (d == nullptr) {
            sim::fatal("unknown %s '%s'; registered: %s", kind_.c_str(),
                       name.c_str(), joinNames().c_str());
        }
        return *d;
    }

    /** Canonical names in sorted order (stable across calls). */
    std::vector<std::string> list() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::string> out;
        out.reserve(byName_.size());
        for (const auto &kv : byName_)
            out.push_back(kv.first);
        return out; // std::map iteration is already sorted
    }

    /** Number of registered schemes (aliases not counted). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return byName_.size();
    }

  private:
    std::string joinNames() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string out;
        for (const auto &kv : byName_) {
            if (!out.empty())
                out += ", ";
            out += kv.first;
        }
        return out.empty() ? "(none)" : out;
    }

    std::string kind_;
    mutable std::mutex mutex_;
    std::map<std::string, Descriptor> byName_;
    std::map<std::string, const Descriptor *> aliases_;
};

/**
 * Define the link anchor for a built-in registrant living in the
 * gpump static library.  Place next to the registrar object; add a
 * matching GPUMP_FORCE_LINK line to the factory TU (policy.cc or
 * preemption.cc) so the archive member is always pulled in.
 */
#define GPUMP_DEFINE_LINK_ANCHOR(token)                                     \
    void gpumpLinkAnchor_##token() {}

/** Declare + call a link anchor from the factory translation unit. */
#define GPUMP_FORCE_LINK(token)                                             \
    do {                                                                    \
        void gpumpLinkAnchor_##token();                                     \
        gpumpLinkAnchor_##token();                                          \
    } while (0)

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_REGISTRY_HH
