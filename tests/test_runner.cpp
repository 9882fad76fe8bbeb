/**
 * Tests of the declarative Suite/Runner batch API: grid expansion,
 * request-order preservation, serial-vs-parallel bit-identity, the
 * thread-safe isolated-baseline cache, pinned golden aggregates and
 * per-run pins of every registered scheme (so future perf or
 * refactoring work cannot silently change results).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include <set>
#include <string>

#include "core/policy.hh"
#include "core/preemption.hh"
#include "harness/suite.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

using namespace gpump;
using namespace gpump::harness;

namespace {

/** The small grid shared by the determinism tests. */
Batch
smallGrid()
{
    Suite suite("grid");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    return suite.build();
}

} // namespace

TEST(Suite, BuildsOrderedGridWithTags)
{
    Suite suite("s");
    suite.sizes({2, 4})
        .uniform(2, 7)
        .minReplays(5)
        .scheme("A", {"fcfs", "context_switch", "fcfs"})
        .scheme("B", {"dss", "draining", "fcfs"});
    Batch batch = suite.build();

    // 2 sizes x 2 plans x 2 schemes, size-major then plan then scheme.
    ASSERT_EQ(batch.requests.size(), 8u);
    ASSERT_EQ(batch.sizes.size(), 2u);
    EXPECT_EQ(batch.numPlans(0), 2u);
    for (std::size_t i = 0; i < batch.requests.size(); ++i)
        EXPECT_EQ(batch.requests[i].index, i);
    EXPECT_EQ(batch.requests[0].tag, "s/size=2/plan=0/A");
    EXPECT_EQ(batch.requests[1].tag, "s/size=2/plan=0/B");
    EXPECT_EQ(batch.requests[4].tag, "s/size=4/plan=0/A");
    EXPECT_EQ(batch.indexOf(1, 1, 1), 7u);
    EXPECT_EQ(batch.requests[batch.indexOf(1, 1, 1)].tag,
              "s/size=4/plan=1/B");
    EXPECT_EQ(batch.requests[2].minReplays, 5);

    // Plans of a size bucket are shared across schemes.
    EXPECT_EQ(batch.requests[0].plan.benchmarks,
              batch.requests[1].plan.benchmarks);
    EXPECT_EQ(batch.requests[0].plan.seed, batch.requests[1].plan.seed);
}

TEST(Suite, NonprioritizedSchemeDropsPriorities)
{
    Suite suite("s");
    suite.sizes({2})
        .prioritized(/*per_bench=*/1, /*base_seed=*/1)
        .schemeNonprioritized("BASE", {"fcfs", "context_switch", "fcfs"})
        .scheme("NPQ", {"npq", "context_switch", "priority"});
    Batch batch = suite.build();

    const RunRequest &base = batch.requests[batch.indexOf(0, 0, 0)];
    const RunRequest &npq = batch.requests[batch.indexOf(0, 0, 1)];
    EXPECT_EQ(base.plan.highPriorityIndex, -1);
    EXPECT_TRUE(base.plan.priorities().empty());
    EXPECT_EQ(npq.plan.highPriorityIndex, 0);
    // Same workload otherwise.
    EXPECT_EQ(base.plan.benchmarks, npq.plan.benchmarks);
    EXPECT_EQ(base.plan.seed, npq.plan.seed);
}

TEST(Suite, BuildWithoutPlansOrSchemesPanics)
{
    Suite no_plans("s");
    no_plans.scheme("A", Scheme());
    EXPECT_THROW(no_plans.build(), sim::PanicError);

    Suite no_schemes("s");
    no_schemes.uniform(1, 1);
    EXPECT_THROW(no_schemes.build(), sim::PanicError);
}

TEST(IsolatedBaselineCache, ConcurrentFirstAccessComputesOnce)
{
    IsolatedBaselineCache cache;
    sim::Config cfg;
    constexpr int kThreads = 4;
    std::vector<double> values(kThreads, 0.0);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &cfg, &values, t] {
            values[static_cast<std::size_t>(t)] =
                cache.timeUs("sgemm", cfg, 1);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_GT(values[0], 0.0);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_DOUBLE_EQ(values[0], values[static_cast<std::size_t>(t)]);
    // All four first accesses shared one computation.
    EXPECT_EQ(cache.computations(), 1u);

    // A different config is a different cache entry.
    sim::Config small;
    small.set("gpu.num_sms", static_cast<std::int64_t>(2));
    EXPECT_NE(cache.timeUs("sgemm", small, 1), values[0]);
    EXPECT_EQ(cache.computations(), 2u);
}

TEST(Runner, ParallelBatchBitIdenticalToSerialAndOrdered)
{
    Batch batch = smallGrid();

    Runner serial(sim::Config(), /*jobs=*/1);
    auto expected = serial.run(batch.requests);

    Runner parallel(sim::Config(), /*jobs=*/4);
    std::mutex mu;
    std::vector<std::size_t> done_values;
    parallel.setProgress([&](std::size_t done, std::size_t total,
                             const RunRequest &, const RunResult &res) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_EQ(total, batch.requests.size());
        // Throughput telemetry rides along with every finished run.
        EXPECT_GT(res.sys.eventsExecuted, 0u);
        EXPECT_GE(res.wallSeconds, 0.0);
        done_values.push_back(done);
    });
    auto actual = parallel.run(batch.requests);

    // Request order is preserved regardless of completion order.
    ASSERT_EQ(actual.size(), batch.requests.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].index, i);
        EXPECT_EQ(actual[i].tag, batch.requests[i].tag);
    }

    // Bit-identical results for any job count.
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &e = expected[i];
        const auto &a = actual[i];
        EXPECT_EQ(e.metrics.antt, a.metrics.antt);
        EXPECT_EQ(e.metrics.stp, a.metrics.stp);
        EXPECT_EQ(e.metrics.fairness, a.metrics.fairness);
        EXPECT_EQ(e.metrics.ntt, a.metrics.ntt);
        EXPECT_EQ(e.isolatedUs, a.isolatedUs);
        EXPECT_EQ(e.sys.meanTurnaroundUs, a.sys.meanTurnaroundUs);
        EXPECT_EQ(e.sys.endTime, a.sys.endTime);
        EXPECT_EQ(e.sys.preemptions, a.sys.preemptions);
        EXPECT_EQ(e.sys.kernelsCompleted, a.sys.kernelsCompleted);
        EXPECT_EQ(e.sys.eventsExecuted, a.sys.eventsExecuted);
    }

    // The atomic progress counter hit every value 1..N exactly once.
    std::sort(done_values.begin(), done_values.end());
    ASSERT_EQ(done_values.size(), batch.requests.size());
    for (std::size_t i = 0; i < done_values.size(); ++i)
        EXPECT_EQ(done_values[i], i + 1);
}

TEST(Runner, PerSchemeOverridesReachTheSimulation)
{
    workload::WorkloadPlan plan;
    plan.benchmarks = {"sgemm"};
    plan.seed = 7;

    sim::Config small;
    small.set("gpu.num_sms", static_cast<std::int64_t>(2));

    Suite suite("cfg");
    suite.fixedPlans({plan})
        .minReplays(1)
        .scheme("full", {"fcfs", "context_switch", "fcfs"})
        .scheme("small", {"fcfs", "context_switch", "fcfs"}, small);
    Batch batch = suite.build();

    Runner runner;
    auto results = runner.run(batch.requests);
    // Shrinking the GPU must slow the run down; and each scheme's
    // isolated baseline is computed under its own effective config.
    EXPECT_GT(results[1].sys.meanTurnaroundUs[0],
              results[0].sys.meanTurnaroundUs[0]);
    EXPECT_GT(results[1].isolatedUs[0], results[0].isolatedUs[0]);
    EXPECT_EQ(runner.baselines().computations(), 2u);
}

TEST(Runner, FailingRequestAbortsAndRethrows)
{
    workload::WorkloadPlan plan;
    plan.benchmarks = {"sgemm"};

    RunRequest req;
    req.plan = plan;
    req.minReplays = 1;
    req.limit = 10; // far too short a horizon: the run cannot finish
    Runner runner;
    EXPECT_THROW(runner.run({req}), sim::FatalError);
}

TEST(Runner, GoldenFig5QuickAggregatePinned)
{
    // The AVERAGE-group, 2-process cell of `fig5_ppq_ntt --quick`:
    // mean NTT improvement of PPQ/context-switch over the
    // nonprioritized FCFS baseline across the ten prioritized plans.
    // The simulator is deterministic by construction (portable RNG,
    // per-run seeds), so this value is pinned exactly; a change means
    // the simulation's behavior changed, not just its performance.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    Suite suite("fig5");
    suite.sizes({2})
        .prioritized(/*per_bench=*/1, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .schemeNonprioritized("BASE", {"fcfs", "context_switch", "fcfs"})
        .scheme("PPQ-CS", {"ppq_excl", "context_switch", "priority"});
    Batch batch = suite.build();

    Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double base = results[batch.indexOf(0, pi, 0)].metrics.ntt[0];
        double ppq = results[batch.indexOf(0, pi, 1)].metrics.ntt[0];
        sum += base / ppq;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.4130172243592014;
    EXPECT_NEAR(avg, kGolden, 1e-9) << "pinned fig5 aggregate moved";
}

TEST(Suite, AllSchemesSpansTheRegistryCrossProduct)
{
    // No manual linkBuiltin* calls: allSchemes() itself must make the
    // built-in registrars visible.
    Suite suite("all");
    suite.sizes({2}).uniform(1, 1).allSchemes();
    Batch batch = suite.build();

    // Expected column count: preempting policies x mechanisms, plus
    // one column per non-preemptive policy.
    std::size_t expected = 0;
    for (const std::string &p : core::policyRegistry().list()) {
        expected += core::policyRegistry().at(p).usesMechanism
            ? core::mechanismRegistry().list().size()
            : 1;
    }
    EXPECT_EQ(batch.schemes.size(), expected);
    EXPECT_GE(batch.schemes.size(),
              6u + 2u * (core::mechanismRegistry().size() - 1));

    // Column names are the labels, and they are unique.
    std::set<std::string> names;
    for (const auto &spec : batch.schemes) {
        EXPECT_EQ(spec.name, spec.scheme.label());
        EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
    }
}

TEST(Suite, BuildValidatesSchemeNamesAndCollisions)
{
    // Unknown policy: rejected at build time, before any simulation.
    Suite bad_policy("s");
    bad_policy.uniform(1, 1).scheme(
        "X", {"not_a_policy", "context_switch", "fcfs"});
    EXPECT_THROW(bad_policy.build(), sim::FatalError);

    Suite bad_mech("s");
    bad_mech.uniform(1, 1).scheme("X", {"fcfs", "not_a_mech", "fcfs"});
    EXPECT_THROW(bad_mech.build(), sim::FatalError);

    // Two columns with the same name are indistinguishable in
    // reports.
    Suite dup_name("s");
    dup_name.uniform(1, 1)
        .scheme("X", {"fcfs", "context_switch", "fcfs"})
        .scheme("X", {"dss", "context_switch", "fcfs"});
    EXPECT_THROW(dup_name.build(), sim::FatalError);

    // Two columns that are the same scheme end to end (label +
    // overrides + prioritization) are a bug even under distinct
    // names; alias spellings count as the same scheme.
    Suite dup_scheme("s");
    dup_scheme.uniform(1, 1)
        .scheme("A", {"dss", "context_switch", "fcfs"})
        .scheme("B", {"dss", "cs", "fcfs"});
    EXPECT_THROW(dup_scheme.build(), sim::FatalError);

    // ... but differing overrides make a legitimate ablation pair.
    sim::Config ablate;
    ablate.set("dss.retarget", false);
    Suite ablation("s");
    ablation.sizes({2}).uniform(1, 1)
        .scheme("A", {"dss", "context_switch", "fcfs"})
        .scheme("B", {"dss", "context_switch", "fcfs"}, ablate);
    EXPECT_NO_THROW(ablation.build());
}

TEST(Runner, GoldenFig7QuickAggregatePinned)
{
    // Second pinned figure aggregate (see GoldenFig5QuickAggregate):
    // the 2-process cell of `fig7_dss --quick`, mean ANTT improvement
    // of DSS/context-switch over FCFS across the three uniform plans.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    Suite suite("fig7");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    Batch batch = suite.build();

    Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double base = results[batch.indexOf(0, pi, 0)].metrics.antt;
        double dss = results[batch.indexOf(0, pi, 1)].metrics.antt;
        sum += base / dss;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.0022550475518892;
    EXPECT_NEAR(avg, kGolden, 1e-9) << "pinned fig7 aggregate moved";
}

TEST(Runner, GoldenFig6QuickAggregatePinned)
{
    // Third pinned figure aggregate: the 2-process cell of
    // `fig6_ppq_stp --quick`, mean STP degradation of exclusive-mode
    // PPQ/context-switch over NPQ across the ten prioritized plans.
    // Together with the fig5 (NTT) and fig7 (ANTT) goldens this pins
    // each of the paper's headline aggregates exactly.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    Suite suite("fig6");
    suite.sizes({2})
        .prioritized(/*per_bench=*/1, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .scheme("NPQ", {"npq", "context_switch", "priority"})
        .scheme("excl/CS", {"ppq_excl", "context_switch", "priority"});
    Batch batch = suite.build();

    Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double npq = results[batch.indexOf(0, pi, 0)].metrics.stp;
        double ppq = results[batch.indexOf(0, pi, 1)].metrics.stp;
        sum += npq / ppq;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.0498411090168349;
    EXPECT_NEAR(avg, kGolden, 1e-9) << "pinned fig6 aggregate moved";
}

TEST(Runner, EveryRegisteredSchemePinned)
{
    // Every registered scheme column (Suite::allSchemes(): each
    // policy x mechanism, tmux and ppq_aging included, which no figure
    // golden runs) on three small prioritized plans, pinned by the
    // exact integer outcome of each run: simulated end time, events
    // executed and preemptions.  A refactor of a policy's grant,
    // admission or victim loop that changes any decision moves at
    // least one of these.
    struct Pin
    {
        const char *tag;
        sim::SimTime endTime;
        std::uint64_t events;
        std::uint64_t preemptions;
    };
    static const Pin kPins[] = {
        {"pin/size=2/plan=0/bore_burst/adaptive", 1837414, 41167, 341},
        {"pin/size=2/plan=0/bore_burst/context_switch", 1851290, 41180, 341},
        {"pin/size=2/plan=0/bore_burst/draining", 1473023, 21573, 250},
        {"pin/size=2/plan=0/bore_burst/pred_adaptive", 1504568, 31063, 292},
        {"pin/size=2/plan=0/bore_burst/proactive_mem", 1851290, 41180, 341},
        {"pin/size=2/plan=0/dss/adaptive", 1551392, 29455, 172},
        {"pin/size=2/plan=0/dss/context_switch", 1554324, 29466, 171},
        {"pin/size=2/plan=0/dss/draining", 1548415, 29424, 156},
        {"pin/size=2/plan=0/dss/pred_adaptive", 1608033, 29492, 171},
        {"pin/size=2/plan=0/dss/proactive_mem", 1554324, 29466, 171},
        {"pin/size=2/plan=0/fcfs", 1464501, 21600, 0},
        {"pin/size=2/plan=0/npq", 1464501, 21600, 0},
        {"pin/size=2/plan=0/ppq_aging/adaptive", 1831406, 41164, 311},
        {"pin/size=2/plan=0/ppq_aging/context_switch", 1987365, 41276, 606},
        {"pin/size=2/plan=0/ppq_aging/draining", 1490988, 29530, 213},
        {"pin/size=2/plan=0/ppq_aging/pred_adaptive", 1987365, 41276, 606},
        {"pin/size=2/plan=0/ppq_aging/proactive_mem", 1987365, 41276, 606},
        {"pin/size=2/plan=0/ppq_excl/adaptive", 1885383, 41132, 684},
        {"pin/size=2/plan=0/ppq_excl/context_switch", 1885383, 41132, 684},
        {"pin/size=2/plan=0/ppq_excl/draining", 1874931, 41111, 682},
        {"pin/size=2/plan=0/ppq_excl/pred_adaptive", 1885383, 41132, 684},
        {"pin/size=2/plan=0/ppq_excl/proactive_mem", 1885383, 41132, 684},
        {"pin/size=2/plan=0/ppq_shared/adaptive", 1831406, 41162, 311},
        {"pin/size=2/plan=0/ppq_shared/context_switch", 1987365, 41274, 606},
        {"pin/size=2/plan=0/ppq_shared/draining", 1490988, 29529, 213},
        {"pin/size=2/plan=0/ppq_shared/pred_adaptive", 1987365, 41274, 606},
        {"pin/size=2/plan=0/ppq_shared/proactive_mem", 1987365, 41274, 606},
        {"pin/size=2/plan=0/tmux/adaptive", 1468997, 21671, 39},
        {"pin/size=2/plan=0/tmux/context_switch", 1468997, 21671, 39},
        {"pin/size=2/plan=0/tmux/draining", 1466685, 21617, 39},
        {"pin/size=2/plan=0/tmux/pred_adaptive", 1468843, 21669, 39},
        {"pin/size=2/plan=0/tmux/proactive_mem", 1468997, 21671, 39},
        {"pin/size=2/plan=1/bore_burst/adaptive", 21534073, 31349, 1144},
        {"pin/size=2/plan=1/bore_burst/context_switch", 21534073, 31349, 1144},
        {"pin/size=2/plan=1/bore_burst/draining", 25142056, 35218, 571},
        {"pin/size=2/plan=1/bore_burst/pred_adaptive", 21683815, 31169, 1081},
        {"pin/size=2/plan=1/bore_burst/proactive_mem", 21534073, 31349, 1144},
        {"pin/size=2/plan=1/dss/adaptive", 25127807, 37209, 296},
        {"pin/size=2/plan=1/dss/context_switch", 25445974, 37833, 283},
        {"pin/size=2/plan=1/dss/draining", 26264856, 38109, 260},
        {"pin/size=2/plan=1/dss/pred_adaptive", 25140029, 37199, 284},
        {"pin/size=2/plan=1/dss/proactive_mem", 25445974, 37834, 283},
        {"pin/size=2/plan=1/fcfs", 29124151, 41481, 0},
        {"pin/size=2/plan=1/npq", 29124151, 41481, 0},
        {"pin/size=2/plan=1/ppq_aging/adaptive", 20953037, 30216, 1088},
        {"pin/size=2/plan=1/ppq_aging/context_switch", 20953037, 30216, 1088},
        {"pin/size=2/plan=1/ppq_aging/draining", 25142056, 35258, 571},
        {"pin/size=2/plan=1/ppq_aging/pred_adaptive", 21525403, 31320, 1151},
        {"pin/size=2/plan=1/ppq_aging/proactive_mem", 20953037, 30216, 1088},
        {"pin/size=2/plan=1/ppq_excl/adaptive", 19777200, 28305, 1248},
        {"pin/size=2/plan=1/ppq_excl/context_switch", 19777200, 28305, 1248},
        {"pin/size=2/plan=1/ppq_excl/draining", 19777200, 28305, 1248},
        {"pin/size=2/plan=1/ppq_excl/pred_adaptive", 19777200, 28305, 1248},
        {"pin/size=2/plan=1/ppq_excl/proactive_mem", 19777200, 28305, 1248},
        {"pin/size=2/plan=1/ppq_shared/adaptive", 20953037, 30177, 1088},
        {"pin/size=2/plan=1/ppq_shared/context_switch", 20953037, 30177, 1088},
        {"pin/size=2/plan=1/ppq_shared/draining", 25142056, 35218, 571},
        {"pin/size=2/plan=1/ppq_shared/pred_adaptive", 21525403, 31281, 1151},
        {"pin/size=2/plan=1/ppq_shared/proactive_mem", 20953037, 30177, 1088},
        {"pin/size=2/plan=1/tmux/adaptive", 22854837, 33275, 819},
        {"pin/size=2/plan=1/tmux/context_switch", 22544216, 32855, 877},
        {"pin/size=2/plan=1/tmux/draining", 27901078, 39319, 708},
        {"pin/size=2/plan=1/tmux/pred_adaptive", 25967575, 37960, 655},
        {"pin/size=2/plan=1/tmux/proactive_mem", 22544216, 32858, 877},
        {"pin/size=3/plan=0/bore_burst/adaptive", 1894227, 22393, 523},
        {"pin/size=3/plan=0/bore_burst/context_switch", 1894227, 22393, 523},
        {"pin/size=3/plan=0/bore_burst/draining", 1888298, 22242, 419},
        {"pin/size=3/plan=0/bore_burst/pred_adaptive", 1894227, 22393, 523},
        {"pin/size=3/plan=0/bore_burst/proactive_mem", 1894227, 22393, 523},
        {"pin/size=3/plan=0/dss/adaptive", 1819647, 21995, 281},
        {"pin/size=3/plan=0/dss/context_switch", 1784174, 22032, 286},
        {"pin/size=3/plan=0/dss/draining", 1943656, 23200, 285},
        {"pin/size=3/plan=0/dss/pred_adaptive", 1819647, 21995, 281},
        {"pin/size=3/plan=0/dss/proactive_mem", 1784174, 22032, 286},
        {"pin/size=3/plan=0/fcfs", 2266383, 22869, 0},
        {"pin/size=3/plan=0/npq", 2266383, 22869, 0},
        {"pin/size=3/plan=0/ppq_aging/adaptive", 2358649, 41984, 1158},
        {"pin/size=3/plan=0/ppq_aging/context_switch", 2358649, 41984, 1158},
        {"pin/size=3/plan=0/ppq_aging/draining", 1990425, 23382, 228},
        {"pin/size=3/plan=0/ppq_aging/pred_adaptive", 2358649, 41984, 1158},
        {"pin/size=3/plan=0/ppq_aging/proactive_mem", 2358649, 41984, 1158},
        {"pin/size=3/plan=0/ppq_excl/adaptive", 2268022, 41915, 1300},
        {"pin/size=3/plan=0/ppq_excl/context_switch", 2268748, 41916, 1300},
        {"pin/size=3/plan=0/ppq_excl/draining", 2286609, 41862, 1277},
        {"pin/size=3/plan=0/ppq_excl/pred_adaptive", 2268022, 41915, 1300},
        {"pin/size=3/plan=0/ppq_excl/proactive_mem", 2268748, 41916, 1300},
        {"pin/size=3/plan=0/ppq_shared/adaptive", 2358649, 41981, 1158},
        {"pin/size=3/plan=0/ppq_shared/context_switch", 2358649, 41981, 1158},
        {"pin/size=3/plan=0/ppq_shared/draining", 1990425, 23380, 228},
        {"pin/size=3/plan=0/ppq_shared/pred_adaptive", 2358649, 41981, 1158},
        {"pin/size=3/plan=0/ppq_shared/proactive_mem", 2358649, 41981, 1158},
        {"pin/size=3/plan=0/tmux/adaptive", 2268240, 22924, 77},
        {"pin/size=3/plan=0/tmux/context_switch", 2268240, 22924, 77},
        {"pin/size=3/plan=0/tmux/draining", 2336701, 23072, 81},
        {"pin/size=3/plan=0/tmux/pred_adaptive", 2260047, 22911, 77},
        {"pin/size=3/plan=0/tmux/proactive_mem", 2268240, 22924, 77},
    };

    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default
    auto two = workload::makePrioritizedPlans(2, 1, 20140614 + 2);
    auto three = workload::makePrioritizedPlans(3, 1, 20140614 + 3);
    Runner runner(cfg, /*jobs=*/4);

    std::size_t pin = 0;
    for (const auto &plans : {std::vector<workload::WorkloadPlan>{two[3],
                                                                  two[7]},
                              std::vector<workload::WorkloadPlan>{
                                  three[3]}}) {
        Suite suite("pin");
        suite.fixedPlans(plans).minReplays(1).allSchemes();
        Batch batch = suite.build();
        auto results = runner.run(batch.requests);
        for (std::size_t i = 0; i < results.size(); ++i, ++pin) {
            ASSERT_LT(pin, std::size(kPins)) << "unpinned scheme column";
            const Pin &p = kPins[pin];
            const workload::SystemResult &sys = results[i].sys;
            EXPECT_EQ(batch.requests[i].tag, p.tag);
            EXPECT_EQ(sys.endTime, p.endTime) << p.tag;
            EXPECT_EQ(sys.eventsExecuted, p.events) << p.tag;
            EXPECT_EQ(sys.preemptions, p.preemptions) << p.tag;
        }
    }
    EXPECT_EQ(pin, std::size(kPins)) << "a pinned column disappeared";
}
