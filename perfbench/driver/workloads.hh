/**
 * @file
 * The benchmark's three workloads, built only through the public
 * harness::Suite / serve::ScenarioSpec API.
 *
 * Each workload is one closed-loop client: a fixed batch submitted at
 * once and waited for.  The workload seed is the only input; the
 * simulator receives just the generated plans and scenarios.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/suite.hh"

namespace perfbench {

/** Default workload seed (the ISCA 2014 date, as the figure benches). */
constexpr std::uint64_t kDefaultSeed = 20140614;

/** One scheme column of a workload. */
struct Column
{
    std::string name;
    gpump::harness::Scheme scheme;
    /** Run with prioritization stripped (Figure 5's BASE column). */
    bool nonprioritized = false;
};

/** A workload definition: static data, independent of the seed. */
struct Workload
{
    std::string name;
    std::vector<Column> columns;
    /** Forked exec workers; 0 keeps the in-process pool.  Workloads on
     *  the exec path also write their results JSONL. */
    int workers = 0;
    /** Config every request of the workload runs under (the figure
     *  benches' tb_time_cv default plus the workload's knobs). */
    gpump::sim::Config config;
    /** Load-factor percent of each serving scenario (serve_open). */
    std::vector<int> loadsPct;
};

/** The workloads, in their fixed order. */
const std::vector<Workload> &workloads();

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Isolated service time source for scenario anchors: (benchmark,
 *  replays) -> microseconds. */
using IsolatedFn = std::function<double(const std::string &, int)>;

/**
 * Expand @p wl under @p seed into its request batch.  closed_prio and
 * mem_contended keep the figure grid's plan composition (closed_prio
 * half of it) and take their simulation seeds from @p seed;
 * serve_open freezes the scenario's arrival timelines the same way.
 * serve_open anchors its arrival rates on three isolated baselines,
 * taken from @p isolated (so the caller decides how they are computed
 * and timed).
 */
gpump::harness::Batch buildBatch(const Workload &wl, std::uint64_t seed,
                                 const IsolatedFn &isolated);

/** "<policy>-<mechanism>" of a scheme (registry-canonical names; the
 *  mechanism is left out for policies that never preempt). */
std::string columnKey(const gpump::harness::Scheme &scheme);

/** Thread blocks one execution of @p benchmark runs (its trace's
 *  kernel launches times their grid sizes). */
std::int64_t tbsPerExecution(const std::string &benchmark);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
