#include "workloads.hh"

#include "core/policy.hh"
#include "core/preemption.hh"
#include "serve/scenario.hh"
#include "trace/parboil.hh"

namespace perfbench {

namespace gh = gpump::harness;

namespace {

/**
 * Keep only the requests of @p batch's plans at even positions, in
 * every size.  closed_prio submits half the Figure 5 plans this way
 * (position 0 is its heaviest preemption plan): a memory sweep and
 * three timed sweeps then fit one run.  The plan lists shrink with
 * the requests; Batch::indexOf no longer applies to the result.
 */
void
keepEvenPlans(gh::Batch &batch)
{
    std::vector<gh::RunRequest> kept;
    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        std::vector<gpump::workload::WorkloadPlan> plans;
        for (std::size_t pi = 0; pi < batch.numPlans(si); pi += 2) {
            plans.push_back(batch.plansBySize[si][pi]);
            for (std::size_t k = 0; k < batch.schemes.size(); ++k)
                kept.push_back(batch.requests[batch.indexOf(si, pi, k)]);
        }
        batch.plansBySize[si] = std::move(plans);
    }
    for (std::size_t i = 0; i < kept.size(); ++i)
        kept[i].index = i;
    batch.requests = std::move(kept);
}

/** Replays per process.  One, not the figure benches' --quick two:
 *  a closed_prio sweep then fits several times into one run. */
constexpr int kReplays = 1;
/** Device memory of mem_contended: small enough that the 4-process
 *  mixes swap contexts, large enough that the 2-process ones do not. */
constexpr std::int64_t kContendedCapacity = 128ll << 20;

/** serve_open: the serve_slo scenario (latency tenant + two batch
 *  tenants at 40 % load each). */
constexpr const char *kLatencyBench = "mri-q";
constexpr const char *kBatchBenches[] = {"sad", "sgemm"};
constexpr int kServeReplays = 3;
constexpr double kHorizonMult = 120.0;

gpump::sim::Config
figureConfig()
{
    gpump::sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25);
    return cfg;
}

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> out;

    Workload closed;
    closed.name = "closed_prio";
    closed.columns = {
        {"BASE", {"fcfs", "context_switch", "fcfs"}, true},
        {"NPQ", {"npq", "context_switch", "priority"}, false},
        {"PPQ-CS", {"ppq_excl", "context_switch", "priority"}, false},
        {"PPQ-Drain", {"ppq_excl", "draining", "priority"}, false},
    };
    closed.config = figureConfig();
    out.push_back(closed);

    Workload mem;
    mem.name = "mem_contended";
    mem.columns = {
        {"FCFS", {"fcfs", "context_switch", "fcfs"}, false},
        {"DSS-CS", {"dss", "context_switch", "fcfs"}, false},
        {"DSS-Adaptive", {"dss", "adaptive", "fcfs"}, false},
        {"DSS-PredAdaptive", {"dss", "pred_adaptive", "fcfs"}, false},
        {"DSS-Proactive", {"dss", "proactive_mem", "fcfs"}, false},
    };
    mem.config = figureConfig();
    mem.config.set("gmem.contended_switch", true);
    mem.config.set("gmem.capacity", kContendedCapacity);
    out.push_back(mem);

    Workload serve;
    serve.name = "serve_open";
    serve.columns = {
        {"FCFS", {"fcfs", "context_switch", "fcfs"}, false},
        {"PPQ-Aging/CS", {"ppq_aging", "context_switch", "priority"}, false},
        {"DSS-CS", {"dss", "context_switch", "fcfs"}, false},
        {"BORE-Burst/CS", {"bore_burst", "context_switch", "priority"},
         false},
    };
    serve.workers = 2;
    serve.config = figureConfig();
    serve.loadsPct = {30, 60, 90, 120};
    out.push_back(serve);
    return out;
}

/** serve_slo's scenario at one latency-class load factor. */
gpump::serve::ScenarioSpec
scenarioAt(int load_pct, std::uint64_t seed, double latency_iso_us,
           const double batch_iso_us[2])
{
    namespace gs = gpump::serve;
    const double load = load_pct / 100.0;
    gs::ScenarioSpec sc;
    sc.name = "load=" + std::to_string(load_pct);
    sc.horizonUs = kHorizonMult * latency_iso_us;
    sc.seed = seed;

    gs::TenantSpec latency;
    latency.name = "latency";
    latency.benchmark = kLatencyBench;
    latency.className = "latency";
    latency.priority = 1;
    latency.deadlineUs = 3.0 * latency_iso_us;
    latency.arrivals.kind = gs::ArrivalSpec::Kind::Poisson;
    latency.arrivals.ratePerSec = load / (latency_iso_us * 1e-6);
    latency.maxBacklog = 8;
    sc.tenants.push_back(latency);

    for (int i = 0; i < 2; ++i) {
        gs::TenantSpec batch;
        batch.name = std::string("batch-") + kBatchBenches[i];
        batch.benchmark = kBatchBenches[i];
        batch.className = "batch";
        batch.arrivals.kind = gs::ArrivalSpec::Kind::Poisson;
        batch.arrivals.ratePerSec = 0.4 / (batch_iso_us[i] * 1e-6);
        sc.tenants.push_back(batch);
    }
    return sc;
}

/**
 * Freeze @p sc's arrival timelines, drawn under kDefaultSeed, as
 * explicit traces and give the scenario the simulation seed @p seed:
 * like the closed-loop plans, the offered work stays fixed while
 * every TB duration draw follows the seed.
 */
void
freezeArrivals(gpump::serve::ScenarioSpec &sc, std::uint64_t seed)
{
    const auto timelines = gpump::serve::makeTimelines(sc);
    for (std::size_t i = 0; i < sc.tenants.size(); ++i) {
        gpump::serve::ArrivalSpec &a = sc.tenants[i].arrivals;
        a.kind = gpump::serve::ArrivalSpec::Kind::Trace;
        a.traceUs.clear();
        for (gpump::sim::SimTime t : timelines[i])
            a.traceUs.push_back(gpump::sim::toMicroseconds(t));
    }
    sc.seed = seed;
}

/**
 * Move every plan of @p batch onto the simulation seed of @p seed.
 * The plan composition stays the figure grid's (generated from
 * kDefaultSeed), so a run's amount of work does not swing with the
 * seed; every TB duration draw does.  The default seed keeps the
 * generated seeds unchanged.
 */
void
reseed(gh::Batch &batch, std::uint64_t seed)
{
    const std::uint64_t shift = (seed - kDefaultSeed) * 0x9e3779b97f4a7c15ull;
    for (auto &plans : batch.plansBySize) {
        for (auto &plan : plans)
            plan.seed += shift;
    }
    for (gh::RunRequest &req : batch.requests)
        req.plan.seed += shift;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

gh::Batch
buildBatch(const Workload &wl, std::uint64_t seed,
           const IsolatedFn &isolated)
{
    gh::Suite suite(wl.name);
    const bool serving = wl.name == "serve_open";
    // The 4-process plans go first: they hold the few long requests,
    // and the 2-process ones queued behind them even out the two pool
    // threads.  Last in line, the long ones left one thread idle for
    // up to a second, which moved mem_contended's wall time by 12 %.
    if (wl.name == "closed_prio") {
        suite.sizes({4, 2}).prioritized(1, kDefaultSeed).minReplays(kReplays);
    } else if (wl.name == "mem_contended") {
        suite.sizes({4, 2}).uniform(3, kDefaultSeed).minReplays(kReplays);
    } else {
        const double latency_iso = isolated(kLatencyBench, kServeReplays);
        const double batch_iso[2] = {
            isolated(kBatchBenches[0], kServeReplays),
            isolated(kBatchBenches[1], kServeReplays)};
        std::vector<gpump::serve::ScenarioSpec> scenarios;
        for (int pct : wl.loadsPct) {
            scenarios.push_back(
                scenarioAt(pct, kDefaultSeed, latency_iso, batch_iso));
            freezeArrivals(scenarios.back(), seed);
        }
        suite.serving(std::move(scenarios)).minReplays(kServeReplays);
    }
    for (const Column &c : wl.columns) {
        if (c.nonprioritized)
            suite.schemeNonprioritized(c.name, c.scheme);
        else
            suite.scheme(c.name, c.scheme);
    }
    gh::Batch batch = suite.build();
    if (wl.name == "closed_prio")
        keepEvenPlans(batch);
    if (!serving)
        reseed(batch, seed);
    return batch;
}

std::string
columnKey(const gh::Scheme &scheme)
{
    const auto &pd = gpump::core::policyRegistry().at(scheme.policy);
    if (!pd.usesMechanism)
        return pd.name;
    return pd.name + "-" +
        gpump::core::mechanismRegistry().at(scheme.mechanism).name;
}

std::int64_t
tbsPerExecution(const std::string &benchmark)
{
    const gpump::trace::BenchmarkSpec &spec =
        gpump::trace::findBenchmark(benchmark);
    std::int64_t tbs = 0;
    for (const gpump::trace::TraceOp &op : spec.ops) {
        if (op.kind == gpump::trace::TraceOp::Kind::KernelLaunch)
            tbs += spec.kernels[static_cast<std::size_t>(op.kernelIndex)]
                       .numThreadBlocks;
    }
    return tbs;
}

} // namespace perfbench
