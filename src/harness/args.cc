#include "harness/args.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>

#include "core/policy.hh"
#include "core/preemption.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {

namespace {

/** Print one registry section ("Scheduling policies", ...). */
template <typename Base>
void
printRegistry(std::ostream &os, const char *title,
              const core::SchemeRegistry<Base> &registry)
{
    os << title << ":\n";
    for (const std::string &name : registry.list()) {
        const auto &d = registry.at(name);
        os << "  " << name;
        if (!d.aliases.empty()) {
            os << " (";
            for (std::size_t i = 0; i < d.aliases.size(); ++i)
                os << (i ? ", " : "") << d.aliases[i];
            os << ")";
        }
        os << "\n      " << d.doc << "\n";
        for (const core::Tunable &t : d.tunables) {
            os << "      " << t.key << "  ("
               << core::tunableTypeName(t.type) << ", default "
               << (t.def.empty() ? "contextual" : t.def) << ")\n"
               << "          " << t.doc << "\n";
        }
    }
    os << "\n";
}

/**
 * The one integer parse behind every integer flag: @p text as a
 * single integer in [@p lo, @p hi] (any base strtoll accepts).
 * Trailing junk, a value the 64-bit parse cannot hold (ERANGE) and
 * one outside the bounds all fail, so a flag is never silently
 * clamped or truncated.
 */
bool
parseInt(const std::string &text, std::int64_t lo, std::int64_t hi,
         std::int64_t &out)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi) {
        return false;
    }
    out = static_cast<std::int64_t>(v);
    return true;
}

} // namespace

void
printSchemes(std::ostream &os)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    printRegistry(os, "Scheduling policies", core::policyRegistry());
    printRegistry(os, "Preemption mechanisms",
                  core::mechanismRegistry());
    os << "Select with a harness::Scheme{policy, mechanism, "
          "transfer} and tune with bare key=value arguments.\n";
}

Args::Args(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) == 0) {
            auto eq = tok.find('=');
            if (eq == std::string::npos) {
                flags_[tok.substr(2)] = "true";
            } else {
                flags_[tok.substr(2, eq - 2)] = tok.substr(eq + 1);
            }
        } else if (!config_.parse(tok)) {
            sim::fatal("malformed argument '%s' (expected --flag[=v] "
                       "or key=value)",
                       tok.c_str());
        }
    }
    if (hasFlag("list-schemes")) {
        printSchemes(std::cout);
        std::exit(0);
    }
}

bool
Args::hasFlag(const std::string &name) const
{
    return flags_.count(name) != 0;
}

std::string
Args::flag(const std::string &name, const std::string &def) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::int64_t
Args::flagInt(const std::string &name, std::int64_t def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::int64_t v = 0;
    if (!parseInt(it->second, INT64_MIN, INT64_MAX, v))
        sim::fatal("flag --%s expects an integer, got '%s'",
                   name.c_str(), it->second.c_str());
    return v;
}

std::int64_t
Args::flagPositiveInt(const std::string &name, std::int64_t def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::int64_t v = 0;
    if (!parseInt(it->second, 1, INT_MAX, v))
        sim::fatal("flag --%s expects a positive integer no larger "
                   "than %d, got '%s'",
                   name.c_str(), INT_MAX, it->second.c_str());
    return v;
}

std::vector<int>
Args::flagIntList(const std::string &name, std::vector<int> def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::vector<int> out;
    const std::string &v = it->second;
    std::size_t pos = 0;
    while (pos <= v.size()) {
        std::size_t comma = v.find(',', pos);
        std::string item = v.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        std::int64_t n = 0;
        if (!parseInt(item, INT_MIN, INT_MAX, n)) {
            sim::fatal("flag --%s expects a comma-separated integer "
                       "list, got '%s'",
                       name.c_str(), v.c_str());
        }
        out.push_back(static_cast<int>(n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

double
Args::flagDouble(const std::string &name, double def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        sim::fatal("flag --%s expects a number, got '%s'",
                   name.c_str(), it->second.c_str());
    return v;
}

int
guardedMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const sim::FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}

} // namespace harness
} // namespace gpump
