/**
 * Tests of the predict/ subsystem: the online runtime predictor, the
 * BORE-style burst estimator, and the measurement-fed registrants
 * built on the completion-observation hook (pred_adaptive, the
 * adaptive mechanism's predicted estimator, and bore_burst).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/adaptive.hh"
#include "core/framework.hh"
#include "harness/runner.hh"
#include "harness/suite.hh"
#include "predict/bore_burst.hh"
#include "predict/burst.hh"
#include "predict/predictor.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

/** Fatal-message helper: run @p fn, return the FatalError text. */
template <typename Fn>
std::string
fatalMessageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected sim::FatalError";
    return "";
}

/** A synthetic (Sm, KernelExec) pair for driving observeTb directly. */
struct ObservationRig
{
    trace::KernelProfile profile;
    gpu::GpuParams params;
    gpu::CommandPtr cmd;
    gpu::KernelExec kernel;
    gpu::Sm sm;

    explicit ObservationRig(double declared_tb_us, int num_tbs = 64)
        : profile(test::makeProfile("synthetic", num_tbs,
                                    declared_tb_us)),
          cmd(gpu::Command::makeKernel(0, 0, &profile)),
          kernel(0, cmd, params, 64), sm(0)
    {
        sm.kernel = &kernel;
    }

    /** Feed @p n completions of @p service_us each, back to back. */
    void feed(predict::RuntimePredictor &pred, int n, double service_us,
              sim::SimTime start = 0)
    {
        sim::SimTime t = start;
        for (int i = 0; i < n; ++i) {
            sim::SimTime begin = t;
            t += sim::microseconds(service_us);
            pred.observeTb(sm, kernel, begin, t);
        }
    }
};

/** pred_adaptive's tunables, spelled out (the registry defaults). */
sim::Config
predConfig()
{
    sim::Config cfg;
    cfg.set("pred.ewma_alpha", 0.25);
    cfg.set("pred.confidence_min", 0.5);
    cfg.set("pred.bias", 1.0);
    return cfg;
}

} // namespace

TEST(Predictor, ColdStartAnswersDeclaredPriorAtZeroConfidence)
{
    ObservationRig rig(250.0);
    predict::RuntimePredictor pred(0.25);
    predict::Estimate e = pred.tbEstimate(0, &rig.profile);
    EXPECT_DOUBLE_EQ(e.tbUs, 250.0);
    EXPECT_DOUBLE_EQ(e.confidence, 0.0);
    EXPECT_EQ(e.samples, 0u);
}

TEST(Predictor, ConvergesToObservedServiceTime)
{
    // Declared 100 us/TB, observed 40 us/TB: the EWMA must leave the
    // prior behind, and confidence must follow 1 - (1-alpha)^n
    // exactly (the prior's remaining mass).
    const double alpha = 0.25;
    ObservationRig rig(100.0);
    predict::RuntimePredictor pred(alpha);

    double expect_ewma = 100.0;
    for (int n = 1; n <= 40; ++n) {
        rig.feed(pred, 1, 40.0,
                 sim::microseconds(40.0) * (n - 1));
        expect_ewma = alpha * 40.0 + (1.0 - alpha) * expect_ewma;
        predict::Estimate e = pred.tbEstimate(0, &rig.profile);
        EXPECT_DOUBLE_EQ(e.tbUs, expect_ewma) << "after " << n;
        EXPECT_DOUBLE_EQ(e.confidence,
                         1.0 - std::pow(1.0 - alpha, n))
            << "after " << n;
        EXPECT_EQ(e.samples, static_cast<std::uint64_t>(n));
    }
    predict::Estimate e = pred.tbEstimate(0, &rig.profile);
    EXPECT_NEAR(e.tbUs, 40.0, 1e-3)
        << "40 samples must dominate the prior";
    EXPECT_GT(e.confidence, 0.99);
    EXPECT_EQ(pred.observations(), 40u);

    // Models are per (context, kernel): context 1 is still cold.
    EXPECT_DOUBLE_EQ(pred.tbEstimate(1, &rig.profile).confidence, 0.0);
}

TEST(Predictor, DrainEstimateUsesElapsedTimeNotTheOracle)
{
    // Two resident blocks, one fresh and one 30 us in.  The drain
    // estimate must be per-TB estimate minus elapsed, maximised over
    // the blocks — computed from startedAt alone.  endAt is set to a
    // nonsense value to prove the oracle field is never read.
    ObservationRig rig(40.0);
    predict::RuntimePredictor pred(0.5);
    rig.feed(pred, 8, 40.0); // warm the model at exactly 40 us
    const sim::SimTime now = sim::microseconds(1000.0);
    rig.sm.resident.clear();
    rig.sm.insertResident(
        {0, now - sim::microseconds(30.0), /*endAt=*/1, /*seq=*/0});
    rig.sm.insertResident({1, now, /*endAt=*/2, /*seq=*/1});

    EXPECT_NEAR(pred.estimatedDrainTimeUs(rig.sm, now), 40.0, 1e-6)
        << "the fresh block dominates: its full estimate remains";

    // Overrunning blocks clamp at zero instead of going negative.
    rig.sm.resident.clear();
    rig.sm.insertResident(
        {0, now - sim::microseconds(500.0), /*endAt=*/1, /*seq=*/0});
    EXPECT_DOUBLE_EQ(pred.estimatedDrainTimeUs(rig.sm, now), 0.0);
}

TEST(Burst, BinaryShiftSmoothingAndLog2Bucketing)
{
    // smoothness 0: the average tracks the last burst exactly, and
    // the raw score is floor(log2(1 + avg_us)).
    predict::BurstEstimator b(/*smoothness=*/0, /*max_score=*/30,
                              /*decay_us=*/1000.0);
    ObservationRig rig(10.0);
    EXPECT_EQ(b.burstScore(0, 0), 0) << "unobserved contexts score 0";

    b.observeKernel(rig.kernel, 0, sim::microseconds(1000.0));
    EXPECT_DOUBLE_EQ(b.avgBurstUs(0), 1000.0);
    EXPECT_EQ(b.burstScore(0, sim::microseconds(1000.0)),
              static_cast<int>(std::floor(std::log2(1001.0))));

    // smoothness 2: each observation moves the average by 1/4 of the
    // error (bore.c's shift smoothing).
    predict::BurstEstimator s2(2, 30, 1000.0);
    s2.observeKernel(rig.kernel, 0, sim::microseconds(100.0));
    s2.observeKernel(rig.kernel, sim::microseconds(100.0),
                     sim::microseconds(300.0));
    EXPECT_DOUBLE_EQ(s2.avgBurstUs(0), 100.0 + (200.0 - 100.0) / 4.0);
    EXPECT_EQ(s2.observations(), 2u);
}

TEST(Burst, ScoreDecaysWhileIdleAndIsCapped)
{
    predict::BurstEstimator b(/*smoothness=*/0, /*max_score=*/30,
                              /*decay_us=*/100.0);
    ObservationRig rig(10.0);
    // A 1000 us burst: raw bucket floor(log2(1001)) = 9, then one
    // bucket back per 100 us of idleness, down to zero.
    const sim::SimTime done = sim::microseconds(1000.0);
    b.observeKernel(rig.kernel, 0, done);
    EXPECT_EQ(b.burstScore(0, done), 9);
    EXPECT_EQ(b.burstScore(0, done + sim::microseconds(100.0)), 8);
    EXPECT_EQ(b.burstScore(0, done + sim::microseconds(250.0)), 7);
    EXPECT_EQ(b.burstScore(0, done + sim::microseconds(10000.0)), 0);

    // The cap bounds the demotion of a runaway burst: a ~1 s burst
    // (raw bucket 19) scores max_score, not 19.
    predict::BurstEstimator capped(0, /*max_score=*/5, 100.0);
    capped.observeKernel(rig.kernel, 0, sim::microseconds(1e6));
    EXPECT_EQ(capped.burstScore(0, sim::microseconds(1e6)), 5);
}

TEST(PredAdaptive, ColdModelFallsBackToContextSwitch)
{
    // Long TBs (1000 us): nothing completes before the preemption, so
    // the model is cold (confidence 0 < 0.5) and the mechanism must
    // take the bounded-cost context switch, counting the cold start.
    DeviceRig rig("ppq_excl", "pred_adaptive", predConfig());
    auto &mech = rig.mechanismAs<core::AdaptiveMechanism>();

    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    EXPECT_GT(mech.switchesChosen(), 0u);
    EXPECT_EQ(mech.coldStarts(), mech.switchesChosen())
        << "every switch here must be a cold-start fallback";
    EXPECT_EQ(mech.drainsChosen(), 0u);
    EXPECT_GT(rig.framework.contextBytesSaved(), 0.0);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(PredAdaptive, WarmModelDrainsWhenPredictedDrainIsCheap)
{
    // Short TBs (2 us) with a fat context (save ~16.5 us): by the
    // time the high-priority kernel arrives the model has plenty of
    // observations, the predicted drain (~2 us) undercuts the save,
    // and the drains must all land within the misprediction audit.
    DeviceRig rig("ppq_excl", "pred_adaptive", predConfig());
    auto &mech = rig.mechanismAs<core::AdaptiveMechanism>();

    auto lo = test::makeProfile("lo", 2000, 2.0, 4096, 0, 128);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(10.0));
    ASSERT_NE(mech.predictor(), nullptr);
    EXPECT_GT(mech.predictor()->observations(), 0u);
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    EXPECT_GT(mech.drainsChosen(), 0u);
    EXPECT_EQ(mech.switchesChosen(), 0u);
    EXPECT_EQ(mech.coldStarts(), 0u);
    EXPECT_EQ(mech.mispredictions(), 0u)
        << "constant-duration TBs must predict within 2x";
    EXPECT_DOUBLE_EQ(rig.framework.contextBytesSaved(), 0.0)
        << "predicted-cheap drains must not move context bytes";
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(PredAdaptive, ObservationHookDoesNotPerturbTheSchedule)
{
    // The completion-observer dispatch sits on the TB fast path; a
    // run with a registered no-op observer (and one with the full
    // predictor attached to a mechanism that is never asked to
    // preempt) must be cycle-identical to the unobserved run.
    auto timeline = [](bool with_observer) {
        DeviceRig rig("fcfs", "context_switch");
        predict::CompletionObserver noop;
        predict::RuntimePredictor pred(0.25);
        if (with_observer) {
            rig.framework.addCompletionObserver(&noop);
            rig.framework.addCompletionObserver(&pred);
        }
        auto a = test::makeProfile("a", 64, 7.0);
        auto b = test::makeProfile("b", 64, 3.0);
        rig.launch(rig.queueFor(0), &a, 0);
        rig.launch(rig.queueFor(1), &b, 0);
        sim::SimTime end = rig.run();
        return std::make_pair(end, rig.framework.tbsCompleted());
    };
    EXPECT_EQ(timeline(false), timeline(true));
}

TEST(PredAdaptive, DecisionsAreDeterministicAcrossJobs)
{
    // The predictor feeds on the completion stream, which is
    // deterministic per run; the whole pred_adaptive sweep must be
    // bit-identical for any --jobs partitioning.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25);

    auto sweep = [&](int jobs) {
        harness::Suite suite("pred");
        suite.sizes({2, 4})
            .uniform(/*count=*/2, /*base_seed=*/20140614)
            .minReplays(1)
            .scheme("DSS-Pred", {"dss", "pred_adaptive", "fcfs"});
        harness::Batch batch = suite.build();
        harness::Runner runner(cfg, jobs);
        return runner.run(batch.requests);
    };

    auto base = sweep(1);
    for (int jobs : {2, 4}) {
        auto other = sweep(jobs);
        ASSERT_EQ(base.size(), other.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(base[i].metrics.antt, other[i].metrics.antt)
                << jobs;
            EXPECT_EQ(base[i].metrics.stp, other[i].metrics.stp);
            EXPECT_EQ(base[i].metrics.ntt, other[i].metrics.ntt);
            EXPECT_EQ(base[i].sys.eventsExecuted,
                      other[i].sys.eventsExecuted);
            EXPECT_EQ(base[i].sys.endTime, other[i].sys.endTime);
        }
    }
}

TEST(BoreBurst, LongKernelsDemoteTheirContext)
{
    sim::Config cfg;
    cfg.set("bore.smoothness", static_cast<std::int64_t>(0));
    cfg.set("bore.decay_us", 1e9); // no decay inside this test
    DeviceRig rig("bore_burst", "context_switch", cfg);
    auto *policy = dynamic_cast<predict::BoreBurstPolicy *>(
        &rig.framework.policy());
    ASSERT_NE(policy, nullptr);

    // Context 0 runs a long kernel (~1538 us of engine time); context
    // 1 a short one.  Afterwards context 0 must carry the bigger
    // burst score.
    auto big = test::makeProfile("big", 2000, 10.0);
    auto small = test::makeProfile("small", 13, 1.0);
    rig.launch(rig.queueFor(0), &big, 0);
    rig.run();
    rig.launch(rig.queueFor(1), &small, 0);
    rig.run();

    EXPECT_EQ(policy->burst().observations(), 2u);
    int big_score =
        policy->burst().burstScore(0, rig.sim.now());
    int small_score =
        policy->burst().burstScore(1, rig.sim.now());
    EXPECT_GT(big_score, small_score);
    EXPECT_GT(policy->burst().avgBurstUs(0),
              policy->burst().avgBurstUs(1));
}

TEST(Registry, PredictTunablesValidatedWithDidYouMean)
{
    // Typo'd keys are fatal with a suggestion, like every other
    // declared key.
    sim::Config cfg;
    cfg.set("pred.ewma_alpa", 0.5);
    std::string msg =
        fatalMessageOf([&] { workload::validateConfig(cfg); });
    EXPECT_NE(msg.find("pred.ewma_alpa"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pred.ewma_alpha"), std::string::npos) << msg;

    sim::Config bore;
    bore.set("bore.smoothnes", static_cast<std::int64_t>(1));
    std::string bmsg =
        fatalMessageOf([&] { workload::validateConfig(bore); });
    EXPECT_NE(bmsg.find("bore.smoothness"), std::string::npos) << bmsg;

    // The declared bounds.
    sim::Config bad;
    bad.set("pred.ewma_alpha", 0.0);
    EXPECT_THROW(workload::validateConfig(bad), sim::FatalError);
    sim::Config badc;
    badc.set("pred.confidence_min", 1.5);
    EXPECT_THROW(workload::validateConfig(badc), sim::FatalError);
    sim::Config badd;
    badd.set("bore.decay_us", 0.0);
    EXPECT_THROW(workload::validateConfig(badd), sim::FatalError);
}

TEST(Registry, MeasurementSchemesAssembleThroughSystemSpec)
{
    // End to end through the workload layer: both registrants must
    // assemble by name and complete a small mixed run.
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm", "mri-q"};
    spec.priorities = {0, 5};
    spec.policy = "bore_burst";
    spec.mechanism = "pred_adaptive";
    spec.minReplays = 1;
    workload::System system(spec, sim::Config());
    auto result = system.run();
    EXPECT_GT(result.eventsExecuted, 0u);
    EXPECT_EQ(result.meanTurnaroundUs.size(), 2u);
}
