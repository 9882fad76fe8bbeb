/**
 * @file
 * Minimal command-line handling for benches and examples.
 *
 * Every experiment binary accepts:
 *  - "--name=value" flags the binary declares (e.g. --workloads=20);
 *  - bare "key=value" tokens, forwarded into the simulation Config so
 *    any declared key can be overridden without recompiling;
 *  - "--list-schemes", handled right here in the Args constructor:
 *    prints every registered scheduling policy and preemption
 *    mechanism with doc strings and declared tunables, then exits —
 *    so every bench and example answers "what schemes exist?" without
 *    per-binary code.
 */

#ifndef GPUMP_HARNESS_ARGS_HH
#define GPUMP_HARNESS_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace gpump {
namespace harness {

/** Parsed command line. */
class Args
{
  public:
    /** Parse argv, accepting the flags named in @p flags (without
     *  "--"); raises fatal() on malformed tokens, other flags and keys
     *  that fail workload::validateConfig().  A --list-schemes flag
     *  prints the scheme registries and exits 0 before any key is
     *  validated. */
    Args(int argc, char **argv, const std::vector<std::string> &flags = {});

    /** Config overrides collected from bare key=value tokens. */
    const sim::Config &config() const { return config_; }

    /** @name Flag accessors (--name=value), with defaults
     * @{ */
    bool hasFlag(const std::string &name) const;
    std::string flag(const std::string &name,
                     const std::string &def) const;
    /** Integer flags are range-checked, never clamped: a value
     *  outside the result's range (int64 here, int for the two
     *  below) is fatal, like malformed text. */
    std::int64_t flagInt(const std::string &name, std::int64_t def) const;
    /** flagInt restricted to [1, INT_MAX] — the shared validator for
     *  counts (--jobs, --workers, --workloads, --replays, ...), so every
     *  bench fails with the same message. */
    std::int64_t flagPositiveInt(const std::string &name,
                                 std::int64_t def) const;
    double flagDouble(const std::string &name, double def) const;
    /** Comma-separated integer list, e.g. --sizes=2,4,6,8. */
    std::vector<int> flagIntList(const std::string &name,
                                 std::vector<int> def) const;
    /** @} */

  private:
    sim::Config config_;
    std::map<std::string, std::string> flags_;
};

/**
 * Run a bench or example main: @p body's return value is the exit
 * status, and a sim::FatalError (a rejected flag, config key or
 * workload) prints "error: <what>" on stderr and exits 2 instead of
 * aborting through std::terminate.  Every bench and example main is
 * `return harness::guardedMain(argc, argv, run);`.
 */
int guardedMain(int argc, char **argv, int (*body)(int, char **));

} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_ARGS_HH
