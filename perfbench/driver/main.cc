/**
 * @file
 * The repo benchmark driver.
 *
 *   perfbench_driver --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--work-dir DIR]
 *   perfbench_driver --self-test
 *
 * Runs one workload (closed_prio, mem_contended or serve_open) as
 * repeated untraced sweeps through harness::Runner for --seconds.
 * The first sweep runs on the accounting allocator and gives the
 * memory metric; the timed sweeps that follow run on a plain
 * allocator.  After every sweep the setup alone is timed back to
 * back.  The end-to-end metrics are medians.  With --trace 1 the
 * untraced part gets half the time, then the same requests rerun
 * serially with spans and counters around every layer call
 * (traced.hh), and the result line carries the per-layer metrics
 * instead.  Every sweep's
 * modeled outputs are digested and must agree across sweeps, with the
 * traced run, and (at the default seed) with the digest recorded in
 * expected_digests.json, whose path is compiled in.  The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}; the exit code is non-zero when any check failed.
 *
 * The simulator is not validated against hardware: the digests check
 * that outputs did not change, not that they are right, and no error
 * figure exists.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "benchmath.hh"
#include "harness/exec/coordinator.hh"
#include "harness/exec/wire.hh"
#include "traced.hh"
#include "workloads.hh"

namespace gh = gpump::harness;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** In-process pool size of the untraced sweeps: half of a 4-CPU
 *  host, so other load on the machine does not starve the pool. */
constexpr int kJobs = 2;

/** After every sweep the setup is repeated back to back at least
 *  kMinSetups times and for kSetupSeconds, at most kMaxSetups times.
 *  setup_s is the median over all of them: a closed-loop setup takes
 *  tens of microseconds, and on a shared host one 0.5 s block of them
 *  moved 20-27 % between runs as neighbours came and went. */
constexpr std::size_t kMinSetups = 2;
constexpr double kSetupSeconds = 0.1;
constexpr std::size_t kMaxSetups = 1000;

/** Timed sweeps of a run, at least: the medians need three. */
constexpr std::size_t kMinTimedSweeps = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "| --self-test\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (key != "--self-test") {
            if (i + 1 >= argc)
                usage("missing value for " + key);
            value = argv[++i];
        }
        try {
            if (key == "--workload")
                o.workload = value;
            else if (key == "--seed")
                o.seed = std::stoull(value);
            else if (key == "--seconds")
                o.seconds = std::stod(value);
            else if (key == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (key == "--work-dir")
                o.workDir = value;
            else if (key == "--self-test")
                o.selfTest = true;
            else
                usage("unknown argument " + key);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + key);
        }
    }
    if (!o.selfTest && findWorkload(o.workload) == nullptr)
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    return o;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

/** Failed checks and request accounting for the result line. */
struct Verdict
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;

    void fail(const std::string &what, std::size_t requests = 0)
    {
        problems.push_back(what);
        failed += requests;
    }
};

/** TBs of the completed executions recorded in @p r. */
std::uint64_t
recordTbs(const gh::RunRequest &req, const gh::RunResult &r)
{
    std::uint64_t tbs = 0;
    for (std::size_t p = 0; p < r.sys.runs.size(); ++p) {
        tbs += r.sys.runs[p].size() *
            static_cast<std::uint64_t>(
                   tbsPerExecution(req.plan.benchmarks[p]));
    }
    return tbs;
}

/** Structural sanity of one result; empty when fine. */
std::string
outputProblem(const gh::RunRequest &req, const gh::RunResult &r)
{
    if (r.sys.runs.size() != req.plan.benchmarks.size())
        return "process count differs from the plan";
    if (!(r.metrics.antt > 0.0) || !(r.metrics.stp > 0.0))
        return "ANTT/STP not positive";
    if (req.serving) {
        for (const auto &c : r.serving.classes) {
            if (c.completed + c.dropped != c.requests)
                return "class " + c.name + " lost requests";
        }
    } else {
        for (const auto &runs : r.sys.runs) {
            if (static_cast<int>(runs.size()) < req.minReplays)
                return "a process ended short of its replays";
        }
    }
    return "";
}

/** One untraced sweep, from Runner construction to verified results. */
struct Sweep
{
    /** False for the memory sweep, which runs on the accounting
     *  allocator and stays out of the timing medians. */
    bool timed = true;
    double wall = 0.0;
    double batch = 0.0;
    double runSeconds = 0.0; ///< sum of RunResult::wallSeconds
    std::uint64_t tbs = 0;   ///< records-derived
    /** Largest heap one thread of this process held during the
     *  memory sweep. */
    std::int64_t heapPeak = 0;
    std::vector<std::uint64_t> digests;
    std::unique_ptr<gh::Runner> runner;
    /** The exec path's options; workers == 0 on the in-process pool. */
    gh::exec::ExecOptions exec;
    gh::Batch requests;
};

/** Run @p reqs through the exec coordinator and check that the worker
 *  processes computed, or the cache served, every one of them. */
std::vector<gh::RunResult>
runExec(Sweep &s, const std::vector<gh::RunRequest> &reqs, bool resume,
        Verdict &verdict)
{
    gh::exec::ExecStats stats;
    std::vector<gh::RunResult> results =
        gh::exec::runBatch(*s.runner, reqs, s.exec, &stats);
    const std::size_t served = resume ? stats.cacheHits : stats.computed;
    if (stats.total != reqs.size() || served != reqs.size()) {
        verdict.fail(std::string(resume ? "cache resume" : "exec sweep") +
                     ": " + std::to_string(served) + " of " +
                     std::to_string(reqs.size()) + " requests " +
                     (resume ? "served from the cache"
                             : "computed by worker processes"));
    }
    return results;
}

Sweep
runSweep(const Workload &wl, std::uint64_t seed, const fs::path &dir,
         bool timed, Verdict &verdict)
{
    Sweep s;
    s.timed = timed;
    if (!timed) {
        setTracking(true);
        resetHeapPeak();
    }
    auto t0 = Clock::now();
    s.runner = std::make_unique<gh::Runner>(wl.config, kJobs);
    s.exec.workers = wl.workers;
    if (wl.workers > 0)
        s.exec.cacheDir = (dir / "cache").string();
    s.requests = buildBatch(wl, seed, [&](const std::string &b, int n) {
        return s.runner->isolatedTimeUs(b, n);
    });

    const auto &reqs = s.requests.requests;
    verdict.attempted += reqs.size();
    std::vector<gh::RunResult> results;
    auto tb = Clock::now();
    try {
        results = wl.workers > 0 ? runExec(s, reqs, false, verdict)
                                 : s.runner->run(reqs);
    } catch (const std::exception &e) {
        verdict.fail(std::string("sweep raised: ") + e.what(), reqs.size());
        return s;
    }
    s.batch = secondsSince(tb);
    if (wl.workers > 0)
        gh::writeResultsJsonl((dir / "results.jsonl").string(), s.requests,
                              results);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        std::string problem = outputProblem(reqs[i], results[i]);
        if (!problem.empty())
            verdict.fail(results[i].tag + ": " + problem, 1);
        s.digests.push_back(outputDigest(results[i]));
        s.runSeconds += results[i].wallSeconds;
        s.tbs += recordTbs(reqs[i], results[i]);
    }
    s.wall = secondsSince(t0);
    if (!timed) {
        s.heapPeak = heapPeakBytes();
        setTracking(false);
    }

    // Exercise checks that need no trace: every workload preempts,
    // and the overloaded serving scenario must drop requests.
    std::uint64_t preemptions = 0;
    std::int64_t dropped_at_peak = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        preemptions += results[i].sys.preemptions;
        if (reqs[i].serving && reqs[i].serving->name == "load=120") {
            for (std::int64_t d : results[i].sys.droppedRequests)
                dropped_at_peak += d;
        }
    }
    if (preemptions == 0)
        verdict.fail("core.preemptions is 0: the workload stopped "
                     "exercising preemption");
    if (wl.name == "serve_open" && dropped_at_peak == 0)
        verdict.fail("serve.dropped is 0 at 120% load: admission control "
                     "is no longer exercised");
    return s;
}

/**
 * Time the setup of a sweep (Runner construction and buildBatch, with
 * serve_open's anchor baselines) back to back, kMinSetups times and
 * for kSetupSeconds; appends each time to @p times.
 */
void
timeSetups(const Workload &wl, std::uint64_t seed, std::vector<double> &times)
{
    auto t0 = Clock::now();
    for (std::size_t n = 0;
         n < kMinSetups ||
         (secondsSince(t0) < kSetupSeconds && n < kMaxSetups);
         ++n) {
        auto t = Clock::now();
        gh::Runner runner(wl.config, kJobs);
        gh::Batch batch =
            buildBatch(wl, seed, [&](const std::string &b, int n) {
                return runner.isolatedTimeUs(b, n);
            });
        times.push_back(secondsSince(t));
    }
}

/** Digest of a whole sweep (order-sensitive). */
std::uint64_t
combine(const std::vector<std::uint64_t> &digests)
{
    std::string all;
    for (std::uint64_t d : digests)
        all += hex64(d);
    return fnv1a(all);
}

/** Mark requests whose digest differs from @p ref as failed. */
void
compareDigests(const std::vector<std::uint64_t> &ref,
               const std::vector<std::uint64_t> &got, const char *what,
               Verdict &verdict)
{
    if (got.size() != ref.size()) {
        verdict.fail(std::string(what) + ": result count differs",
                     std::max(got.size(), ref.size()));
        return;
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
        bad += got[i] != ref[i];
    if (bad > 0)
        verdict.fail(std::string(what) + ": " + std::to_string(bad) +
                         " request output(s) differ",
                     bad);
}

/** Recorded digest of @p workload in expected_digests.json, "" when
 *  the file or its entry is missing. */
std::string
recordedDigest(const std::string &workload)
{
    std::ifstream in(PERFBENCH_EXPECTED_DIGESTS);
    if (!in)
        return "";
    std::stringstream text;
    text << in.rdbuf();
    gh::exec::JsonValue doc = gh::exec::parseJson(text.str());
    const gh::exec::JsonValue *v = doc.find(workload);
    return v ? v->asString("recorded digest") : "";
}

/** Peak resident set of this process plus its largest reaped child. */
double
peakRssMiB()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) /
        1024.0;
}

/** Every scheme column key of every workload, for the per-layer set. */
std::vector<std::string>
allColumnKeys()
{
    std::set<std::string> keys;
    for (const Workload &w : workloads()) {
        for (const Column &c : w.columns)
            keys.insert(columnKey(c.scheme));
    }
    return {keys.begin(), keys.end()};
}

double
spanSum(const std::vector<Span> &spans, const std::string &name)
{
    double ns = 0.0;
    for (const Span &s : spans) {
        if (s.name == name)
            ns += static_cast<double>(s.endNs - s.startNs);
    }
    return ns;
}

std::vector<Metric>
layerMetrics(const TracedRun &t,
             const std::vector<Sweep> &sweeps, double cache_resume_s,
             const Verdict &verdict)
{
    const auto &spans = t.recorder.spans();
    const double tbs = static_cast<double>(std::max<std::uint64_t>(t.tbs, 1));
    double run_s = 0.0;
    for (double s : t.runSeconds)
        run_s += s;
    std::uint64_t preemptions = 0;
    std::uint64_t executions = 0;
    double ctx_bytes = 0.0;
    double ptbq_max = 0.0;
    std::int64_t serve_requests = 0;
    std::int64_t serve_dropped = 0;
    for (const gh::RunResult &r : t.results) {
        preemptions += r.sys.preemptions;
        ctx_bytes += r.sys.contextBytesSaved;
        ptbq_max = std::max(ptbq_max, r.sys.maxPtbqDepth);
        for (const auto &runs : r.sys.runs)
            executions += runs.size();
        for (const auto &c : r.serving.classes) {
            serve_requests += c.requests;
            serve_dropped += c.dropped;
        }
    }
    std::vector<double> run_ms;
    for (double s : t.runSeconds)
        run_ms.push_back(s * 1e3);
    Tail tail = tailPercentile(run_ms);
    std::vector<double> batch_s;
    std::vector<double> wall_s;
    for (const Sweep &s : sweeps) {
        if (s.timed && !s.digests.empty()) {
            batch_s.push_back(s.batch);
            wall_s.push_back(s.wall);
        }
    }
    const double mib = 1024.0 * 1024.0;

    std::vector<Metric> m = {
        {"sim.events", double(t.events), "count", ""},
        {"sim.events_per_tb", double(t.events) / tbs, "ratio", ""},
        {"sim.events_per_s", double(t.events) / run_s, "1/s",
         "traced System::run"},
        {"sim.ns_per_tb", run_s * 1e9 / tbs, "ns", "traced System::run"},
        {"sim.queue_slots_peak", double(t.queueSlotsPeak), "count",
         "EventQueue::slotsAllocated, max over requests"},
        {"sim.allocs_per_tb", double(t.allocations) / tbs, "ratio",
         "operator new inside System::run"},
        {"gpu.tbs", double(t.tbs), "count", "CompletionObserver"},
        {"gpu.kernels", double(t.kernels), "count", "CompletionObserver"},
        {"gpu.context_transfers", double(t.contextTransfers), "count",
         "engine.ctx_transfers"},
        {"core.preemptions", double(preemptions), "count", ""},
        {"core.context_mb_saved", ctx_bytes / mib, "MiB", ""},
        {"core.ptbq_depth_max", ptbq_max, "count", ""},
        {"core.preempt_latency_p50_us", percentile(t.preemptLatencyUs, 50),
         "us", "sim time"},
        {"core.preempt_latency_p99_us", percentile(t.preemptLatencyUs, 99),
         "us", "sim time"},
    };
    for (const std::string &key : allColumnKeys()) {
        auto it = t.byColumn.find(key);
        double v = it == t.byColumn.end() || it->second.second == 0
            ? 0.0
            : it->second.first / double(it->second.second);
        m.push_back({"core.ns_per_tb." + key, v, "ns",
                     it == t.byColumn.end() ? "not in this workload" : ""});
    }
    std::vector<Metric> rest = {
        {"memory.swap_ins", double(t.swapIns), "count", ""},
        {"memory.swap_outs", double(t.swapOuts), "count", ""},
        {"memory.swap_mb", t.swapBytes / mib, "MiB", ""},
        {"memory.parked_end", double(t.parkedEnd), "count", ""},
        {"workload.build_ms", spanSum(spans, "workload.build") / 1e6, "ms",
         "System constructor"},
        {"workload.run_s", run_s, "s", "sum of System::run"},
        {"workload.executions", double(executions), "count", ""},
        {"workload.run_ms_p50", percentile(run_ms, 50), "ms", ""},
        {"workload.run_ms_tail", tail.value, "ms",
         "p" + std::to_string(tail.pct) + " of " + std::to_string(tail.n) +
             " requests, " + std::to_string(tail.beyond) + " beyond"},
        {"serve.compile_ms", spanSum(spans, "serve.compile") / 1e6, "ms",
         "serve::toSystemSpec"},
        {"serve.metrics_ms", spanSum(spans, "serve.metrics") / 1e6, "ms",
         "serve::computeServingMetrics"},
        {"serve.requests", double(serve_requests), "count", ""},
        {"serve.dropped", double(serve_dropped), "count", ""},
        {"metrics.compute_us", spanSum(spans, "metrics.compute") / 1e3, "us",
         "metrics::computeMetrics"},
        {"harness.baseline_s", spanSum(spans, "harness.baseline") / 1e9, "s",
         "isolated-baseline lookups"},
        {"harness.baselines", double(t.baselines), "count",
         "isolated replays computed"},
        {"harness.batch_s", median(batch_s), "s",
         "untraced batch run, timed sweeps"},
        {"harness.encode_us", t.encodeUsPerResult, "us", "per result"},
        {"harness.decode_us", t.decodeUsPerResult, "us", "per result"},
        {"harness.record_bytes", t.recordBytes, "B", "per result"},
        {"harness.jsonl_ms", t.jsonlMs, "ms", "writeResultsJsonl"},
        {"harness.cache_resume_s", cache_resume_s, "s",
         "Runner::run on a filled cache"},
        {"bench.trace_overhead", t.wallSeconds / median(wall_s), "ratio",
         "traced wall over untraced wall_s"},
        {"bench.fail_ratio",
         double(verdict.failed) / double(std::max<std::size_t>(
                                      verdict.attempted, 1)),
         "ratio", ""},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/** Checks that only the traced counters can make. */
void
checkTraced(const Workload &wl, const Sweep &ref, const TracedRun &t,
            Verdict &verdict)
{
    std::vector<std::uint64_t> traced;
    for (const gh::RunResult &r : t.results)
        traced.push_back(outputDigest(r));
    verdict.attempted += t.results.size();
    compareDigests(ref.digests, traced, "traced run vs untraced", verdict);
    if (t.codecMismatches > 0)
        verdict.fail("wire codec changed " +
                         std::to_string(t.codecMismatches) + " result(s)",
                     t.codecMismatches);

    // TB cross-check: the records-derived count behind tb_per_s can
    // only miss the executions still unfinished at run end, at most
    // one per process.
    const auto &reqs = ref.requests.requests;
    for (std::size_t i = 0; i < t.results.size() && i < reqs.size(); ++i) {
        std::uint64_t rec = recordTbs(reqs[i], t.results[i]);
        std::uint64_t slack = 0;
        for (const std::string &b : reqs[i].plan.benchmarks)
            slack += static_cast<std::uint64_t>(tbsPerExecution(b));
        if (rec > t.runTbs[i] || t.runTbs[i] > rec + slack)
            verdict.fail(t.results[i].tag + ": observed " +
                             std::to_string(t.runTbs[i]) +
                             " TBs, records imply " + std::to_string(rec) +
                             " (+ at most " + std::to_string(slack) +
                             " unfinished)",
                         1);
    }

    const bool mem = wl.name == "mem_contended";
    if (mem != (t.swapIns > 0))
        verdict.fail(mem ? "memory.swap_ins is 0 on mem_contended"
                         : "memory.swap_ins > 0 outside mem_contended");
    if (mem != (t.contextTransfers > 0))
        verdict.fail(mem ? "gpu.context_transfers is 0 on mem_contended"
                         : "gpu.context_transfers > 0 outside "
                           "mem_contended");
    if (t.codecMeasured != (wl.name == "serve_open"))
        verdict.fail("harness.encode_us must be measured on serve_open "
                     "only");
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::cout << title << "\n";
    for (const Metric &m : ms) {
        std::printf("  %-40s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
    std::fflush(stdout);
}

/** Top spans by summed self time. */
void
printSelfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, std::pair<double, int>> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &e = by_name[spans[i].name];
        e.first += static_cast<double>(self[i]) * 1e-9;
        ++e.second;
    }
    std::cout << "traced self time by span:\n";
    for (const auto &[name, e] : by_name)
        std::printf("  %-24s %10.4f s over %d span(s)\n", name.c_str(),
                    e.first, e.second);
}

std::string
resultLine(const Verdict &v, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += v.problems.empty() && v.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(v.attempted);
    out += ", \"failed\": " + std::to_string(v.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // JSON has no NaN/inf; they arise only when nothing ran, which
        // the checks already fail.
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

int
runWorkload(const Options &opt)
{
    const Workload &wl = *findWorkload(opt.workload);
    Verdict verdict;
    for (const std::string &f : runSelfTests())
        verdict.fail("self-test: " + f);

    const fs::path dir =
        fs::path(opt.workDir) /
        (wl.name + "-" + std::to_string(static_cast<long>(getpid())));
    fs::remove_all(dir);
    fs::create_directories(dir);

    // The memory sweep, then timed sweeps for the whole budget, or
    // half of it before a traced run, each followed by a block of
    // setup repetitions.  The last
    // sweep is kept for the cache-resume probe.
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t min_timed = opt.trace ? 1 : kMinTimedSweeps;
    std::vector<Sweep> sweeps;
    std::vector<double> setups;
    std::size_t timed = 0;
    auto t0 = Clock::now();
    for (;;) {
        fs::path sweep_dir = dir / ("sweep" + std::to_string(sweeps.size()));
        fs::create_directories(sweep_dir);
        if (!sweeps.empty()) {
            sweeps.back().runner.reset();
            fs::remove_all(dir / ("sweep" +
                                  std::to_string(sweeps.size() - 1)));
        }
        sweeps.push_back(
            runSweep(wl, opt.seed, sweep_dir, !sweeps.empty(), verdict));
        if (sweeps.back().digests.empty())
            break;
        compareDigests(sweeps.front().digests, sweeps.back().digests,
                       "sweep vs first sweep", verdict);
        timeSetups(wl, opt.seed, setups);
        if (sweeps.size() > 1)
            ++timed;
        // Stop before a sweep that would overrun the budget.
        if (timed >= min_timed &&
            secondsSince(t0) + sweeps.back().wall > budget)
            break;
    }
    const Sweep &ref = sweeps.front();

    std::string workload_digest = hex64(combine(ref.digests));
    std::string recorded = recordedDigest(wl.name);
    if (recorded.empty())
        verdict.fail("no digest recorded for " + wl.name + " in " +
                     PERFBENCH_EXPECTED_DIGESTS);
    else if (opt.seed == kDefaultSeed && recorded != workload_digest)
        verdict.fail("output digest " + workload_digest +
                         " differs from the recorded " + recorded,
                     ref.digests.size());

    std::vector<double> wall, rate;
    for (const Sweep &s : sweeps) {
        if (!s.timed || s.digests.empty())
            continue;
        wall.push_back(s.wall);
        rate.push_back(s.runSeconds > 0 ? double(s.tbs) / s.runSeconds : 0);
    }
    // Memory of one simulation job.  Exec workers are processes, so
    // their peak RSS is per job already.  In an in-process pool the
    // process peak depends on which two requests happened to overlap
    // (12-18 % apart between otherwise equal runs), so the pool
    // reports the largest heap one of its threads held instead.
    const bool exec_path = wl.workers > 0;
    std::vector<Metric> e2e = {
        {"wall_s", median(wall), "s",
         "median of " + std::to_string(wall.size()) + " timed sweeps"},
        {"setup_s", median(setups), "s",
         "median of " + std::to_string(setups.size()) +
             " setups before the first request"},
        {"tb_per_s", median(rate), "1/s", "records-derived TBs / run s"},
        {"peak_mem_mb",
         exec_path ? peakRssMiB() : double(ref.heapPeak) / (1024.0 * 1024.0),
         "MiB",
         exec_path ? "peak RSS, driver + largest worker"
                   : "largest per-thread heap, memory sweep"},
    };

    std::vector<Metric> layers;
    if (opt.trace && !ref.digests.empty()) {
        TracedRun t = runTraced(wl, opt.seed,
                                (dir / "traced.jsonl").string());
        checkTraced(wl, ref, t, verdict);

        double cache_resume_s = 0.0;
        Sweep &last = sweeps.back();
        if (wl.workers > 0 && last.runner) {
            verdict.attempted += last.requests.requests.size();
            auto tr = Clock::now();
            std::vector<gh::RunResult> again =
                runExec(last, last.requests.requests, true, verdict);
            cache_resume_s = secondsSince(tr);
            std::vector<std::uint64_t> digests;
            for (const gh::RunResult &r : again)
                digests.push_back(outputDigest(r));
            compareDigests(ref.digests, digests, "cache resume", verdict);
        }
        layers = layerMetrics(t, sweeps, cache_resume_s, verdict);
        fs::path trace_path = fs::path(opt.workDir) /
            ("trace-" + wl.name + ".json");
        writeChromeTrace(trace_path.string(), t.recorder.spans(), wl.name);
        printSelfTimes(t.recorder.spans());
        std::cout << "trace: " << trace_path.string() << "\n";
    }
    for (Sweep &s : sweeps)
        s.runner.reset();
    fs::remove_all(dir);

    std::cout << "workload " << wl.name << ", seed " << opt.seed << ", "
              << sweeps.size() << " sweep(s) (1 memory, " << timed
              << " timed) of "
              << ref.requests.requests.size() << " requests; output digest "
              << workload_digest
              << (opt.seed == kDefaultSeed ? " (recorded " + recorded + ")"
                                           : " (held-out seed)")
              << "\nThe model is not validated against hardware; no error "
                 "figure is given.\n";
    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    for (const Metric &m : all) {
        if (!validMetricName(m.name))
            verdict.fail("invalid metric name " + m.name);
    }
    printMetrics("end-to-end (untraced):", e2e);
    if (opt.trace)
        printMetrics("per-layer (traced):", layers);
    for (const std::string &p : verdict.problems)
        std::cout << "CHECK FAILED: " << p << "\n";
    std::cout << resultLine(verdict, opt.trace ? layers : e2e) << std::endl;
    return verdict.problems.empty() && verdict.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.selfTest) {
        std::vector<std::string> fails = runSelfTests();
        for (const std::string &f : fails)
            std::cout << "FAIL: " << f << "\n";
        std::cout << (fails.empty() ? "self-tests passed\n"
                                    : "self-tests FAILED\n");
        return fails.empty() ? 0 : 1;
    }
    try {
        return runWorkload(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
