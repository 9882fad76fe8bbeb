/**
 * @file
 * The benchmark's own arithmetic: order statistics, the tail-percentile
 * rule, span self time, the output digest and the metric-name charset.
 *
 * Kept apart from the driver so runSelfTests() can check each piece on
 * hand-made inputs before any simulation runs.
 */

#ifndef PERFBENCH_BENCHMATH_HH
#define PERFBENCH_BENCHMATH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace perfbench {

/** Median of @p values (mean of the two middle ones for even sizes);
 *  0 for an empty list. */
double median(std::vector<double> values);

/** Nearest-rank percentile: the smallest sample with at least
 *  @p pct percent of the samples at or below it.  0 when empty. */
double percentile(std::vector<double> values, double pct);

/** A tail percentile picked by the "at least minBeyond samples beyond
 *  it" rule. */
struct Tail
{
    /** Whole-number percentile used (50 when no percentile qualifies,
     *  i.e. with fewer than minBeyond + 1 samples). */
    int pct = 50;
    double value = 0.0;
    /** Samples in the list. */
    std::size_t n = 0;
    /** Samples strictly after the chosen rank. */
    std::size_t beyond = 0;
};

/** The highest whole percentile whose nearest-rank sample still has
 *  @p min_beyond samples ranked after it. */
Tail tailPercentile(std::vector<double> values, std::size_t min_beyond = 10);

/** One timed interval of the traced run. */
struct Span
{
    std::string name;
    /** Host nanoseconds since the trace origin. */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    /** Batch position of the request it belongs to, -1 for none. */
    int request = -1;
};

/** Self time of every span: its duration minus the durations of its
 *  direct children (children nest inside their parent). */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** 64-bit FNV-1a of @p text. */
std::uint64_t fnv1a(const std::string &text);

/** Fixed-width lower-case hex of @p v. */
std::string hex64(std::uint64_t v);

/**
 * The modeled output of one request: its exec::encodeResult line with
 * the two host-side fields blanked — wall_seconds (host telemetry)
 * and events (simulator effort, which a hot-path change may
 * legitimately alter).  Everything else is simulated output.
 */
std::string modeledOutput(const gpump::harness::RunResult &result);

/** Digest of modeledOutput(). */
std::uint64_t outputDigest(const gpump::harness::RunResult &result);

/** True for a metric name the result line accepts: starts with a
 *  letter or digit, then [A-Za-z0-9_.-], at most 64 characters. */
bool validMetricName(const std::string &name);

/** Run the self-tests of this file's arithmetic; returns one message
 *  per failed check (empty = all passed). */
std::vector<std::string> runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_BENCHMATH_HH
