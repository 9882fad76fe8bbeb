#include "traced.hh"

#include <algorithm>
#include <fstream>
#include <memory>

#include "alloc_count.hh"
#include "core/framework.hh"
#include "harness/exec/wire.hh"
#include "metrics/metrics.hh"
#include "predict/observe.hh"
#include "serve/scenario.hh"
#include "sim/logging.hh"
#include "workload/system.hh"

namespace perfbench {

namespace gh = gpump::harness;
using Clock = std::chrono::steady_clock;

SpanRecorder::SpanRecorder()
    : origin_(Clock::now())
{
}

int
SpanRecorder::begin(const std::string &name, int request)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
SpanRecorder::end(int idx)
{
    GPUMP_ASSERT(!open_.empty() && open_.back() == idx,
                 "span %d closed out of order", idx);
    open_.pop_back();
    spans_[static_cast<std::size_t>(idx)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
}

double
SpanRecorder::seconds(int idx) const
{
    const Span &s = spans_[static_cast<std::size_t>(idx)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

namespace {

/** Time @p fn as a span named @p name. */
template <typename Fn>
auto
timed(SpanRecorder &rec, const char *name, int request, Fn &&fn)
{
    struct Close
    {
        SpanRecorder &rec;
        int idx;
        ~Close() { rec.end(idx); }
    } close{rec, rec.begin(name, request)};
    return fn();
}

/**
 * Driver-owned observer of one System: counts completed TBs and
 * kernels (CompletionObserver) and measures each preemption's
 * sim-time latency from request to completion, per SM
 * (EngineObserver).  It only observes; the run's outputs must not
 * change, which the digest comparison checks.
 */
class LayerObserver : public gpump::core::EngineObserver,
                      public gpump::predict::CompletionObserver
{
  public:
    explicit LayerObserver(std::vector<double> &latencies_us)
        : latencies_(latencies_us)
    {
    }

    /** Attach to @p system, which must not outlive this observer. */
    void watch(gpump::workload::System &system)
    {
        sim_ = &system.sim();
        system.framework().setObserver(this);
        system.framework().addCompletionObserver(this);
    }

    void preemptionRequested(const gpump::gpu::Sm &sm,
                             const gpump::gpu::KernelExec &,
                             const gpump::gpu::KernelExec &) override
    {
        auto id = static_cast<std::size_t>(sm.id());
        if (requestedAt_.size() <= id)
            requestedAt_.resize(id + 1, -1);
        requestedAt_[id] = sim_->now();
    }

    void preemptionCompleted(const gpump::gpu::Sm &sm) override
    {
        auto id = static_cast<std::size_t>(sm.id());
        if (id < requestedAt_.size() && requestedAt_[id] >= 0) {
            latencies_.push_back(gpump::sim::toMicroseconds(
                sim_->now() - requestedAt_[id]));
            requestedAt_[id] = -1;
        }
    }

    void observeTb(const gpump::gpu::Sm &, const gpump::gpu::KernelExec &,
                   gpump::sim::SimTime, gpump::sim::SimTime) override
    {
        ++tbs;
    }

    void observeKernel(const gpump::gpu::KernelExec &, gpump::sim::SimTime,
                       gpump::sim::SimTime) override
    {
        ++kernels;
    }

    std::uint64_t tbs = 0;
    std::uint64_t kernels = 0;

  private:
    gpump::sim::Simulation *sim_ = nullptr;
    std::vector<double> &latencies_;
    std::vector<gpump::sim::SimTime> requestedAt_;
};

std::uint64_t
statValue(gpump::sim::Simulation &sim, const char *name)
{
    const auto *s = dynamic_cast<const gpump::sim::Scalar *>(
        sim.stats().find(name));
    GPUMP_ASSERT(s != nullptr, "stat %s not registered", name);
    return static_cast<std::uint64_t>(s->value());
}

/** One request, set up as Runner::execute does it, with spans. */
gh::RunResult
executeTraced(gh::Runner &runner, const gh::RunRequest &req, int idx,
              TracedRun &out)
{
    SpanRecorder &rec = out.recorder;
    gpump::sim::Config cfg = runner.baseConfig();
    cfg.merge(req.overrides);

    gpump::workload::SystemSpec spec;
    if (req.serving) {
        spec = timed(rec, "serve.compile", idx, [&] {
            return gpump::serve::toSystemSpec(
                *req.serving, req.scheme.policy, req.scheme.mechanism,
                req.scheme.transferPolicy);
        });
    } else {
        spec.benchmarks = req.plan.benchmarks;
        spec.priorities = req.plan.priorities();
        spec.policy = req.scheme.policy;
        spec.mechanism = req.scheme.mechanism;
        spec.transferPolicy = req.scheme.transferPolicy;
        spec.seed = req.plan.seed;
        spec.minReplays = req.minReplays;
    }

    // Declared before the System it watches, so it outlives it.
    LayerObserver obs(out.preemptLatencyUs);
    int build = rec.begin("workload.build", idx);
    gpump::workload::System system(spec, cfg);
    rec.end(build);
    obs.watch(system);

    gh::RunResult r;
    r.index = req.index;
    r.tag = req.tag;
    r.scheme = req.scheme;
    int run = rec.begin("workload.run", idx);
    beginAllocationCount();
    r.sys = system.run(req.limit);
    out.allocations += endAllocationCount();
    rec.end(run);
    r.wallSeconds = rec.seconds(run);

    out.events += r.sys.eventsExecuted;
    out.tbs += obs.tbs;
    out.kernels += obs.kernels;
    out.contextTransfers += statValue(system.sim(), "engine.ctx_transfers");
    out.queueSlotsPeak = std::max<std::uint64_t>(
        out.queueSlotsPeak, system.sim().events().slotsAllocated());
    out.swapIns += system.residency().swapIns();
    out.swapOuts += system.residency().swapOuts();
    out.swapBytes += system.residency().swapBytes();
    out.parkedEnd += system.residency().parkedRequests();
    out.runSeconds.push_back(r.wallSeconds);
    out.runTbs.push_back(obs.tbs);
    auto &col = out.byColumn[columnKey(req.scheme)];
    col.first += r.wallSeconds * 1e9;
    col.second += obs.tbs;

    for (const std::string &b : spec.benchmarks) {
        r.isolatedUs.push_back(timed(rec, "harness.baseline", idx, [&] {
            return runner.baselines().timeUs(b, cfg, req.minReplays);
        }));
    }
    r.metrics = timed(rec, "metrics.compute", idx, [&] {
        return gpump::metrics::computeMetrics(r.isolatedUs,
                                              r.sys.meanTurnaroundUs);
    });
    if (req.serving) {
        r.servingRun = true;
        r.serving = timed(rec, "serve.metrics", idx, [&] {
            return gpump::serve::computeServingMetrics(*req.serving, r.sys,
                                                       r.isolatedUs);
        });
    }
    return r;
}

} // namespace

TracedRun
runTraced(const Workload &wl, std::uint64_t seed,
          const std::string &jsonl_path)
{
    TracedRun out;
    SpanRecorder &rec = out.recorder;
    // Allocation counts need the accounting allocator; the traced
    // run's own timings do not feed an end-to-end metric.
    setTracking(true);
    int top = rec.begin("bench.traced");

    gh::Runner runner(wl.config, 1);
    int setup = rec.begin("bench.setup");
    gh::Batch batch = buildBatch(wl, seed, [&](const std::string &b, int n) {
        return timed(rec, "harness.baseline", -1,
                     [&] { return runner.isolatedTimeUs(b, n); });
    });
    rec.end(setup);

    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        int idx = static_cast<int>(i);
        int request = rec.begin("request", idx);
        out.results.push_back(
            executeTraced(runner, batch.requests[i], idx, out));
        rec.end(request);
    }
    out.baselines = runner.baselines().computations();

    if (wl.workers > 0) {
        // The exec path's wire codec, once per result.
        out.codecMeasured = true;
        double encode_s = 0.0;
        double decode_s = 0.0;
        double bytes = 0.0;
        for (std::size_t i = 0; i < out.results.size(); ++i) {
            int idx = static_cast<int>(i);
            int e = rec.begin("harness.encode", idx);
            std::string line = gh::exec::encodeResult(out.results[i]);
            rec.end(e);
            int d = rec.begin("harness.decode", idx);
            gh::RunResult back = gh::exec::decodeResult(line);
            rec.end(d);
            encode_s += rec.seconds(e);
            decode_s += rec.seconds(d);
            bytes += static_cast<double>(line.size());
            if (outputDigest(back) != outputDigest(out.results[i]))
                ++out.codecMismatches;
        }
        double n = static_cast<double>(std::max<std::size_t>(
            out.results.size(), 1));
        out.encodeUsPerResult = encode_s * 1e6 / n;
        out.decodeUsPerResult = decode_s * 1e6 / n;
        out.recordBytes = bytes / n;
    }
    if (wl.workers > 0) {
        int j = rec.begin("harness.jsonl");
        gh::writeResultsJsonl(jsonl_path, batch, out.results);
        rec.end(j);
        out.jsonlMs = rec.seconds(j) * 1e3;
    }
    rec.end(top);
    out.wallSeconds = rec.seconds(top);
    setTracking(false);
    return out;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::string &workload)
{
    std::ofstream os(path);
    if (!os)
        gpump::sim::fatal("cannot write trace %s", path.c_str());
    std::vector<std::int64_t> self = selfTimesNs(spans);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
       << workload << "\"},\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << static_cast<double>(s.startNs) / 1e3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request
           << ",\"self_us\":" << static_cast<double>(self[i]) / 1e3 << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
