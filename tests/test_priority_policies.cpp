/** Tests of the NPQ and PPQ policies (Sections 2.4, 4.2, 4.3). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aging.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

struct OrderProbe : core::EngineObserver
{
    sim::Simulation *sim = nullptr;
    std::vector<std::pair<std::string, sim::SimTime>> starts;
    std::vector<std::pair<std::string, sim::SimTime>> finishes;

    void kernelStarted(const gpu::KernelExec &k) override
    {
        starts.emplace_back(k.profile().kernel, sim->now());
    }
    void kernelFinished(const gpu::KernelExec &k) override
    {
        finishes.emplace_back(k.profile().kernel, sim->now());
    }
    sim::SimTime startOf(const std::string &name) const
    {
        for (const auto &s : starts) {
            if (s.first == name)
                return s.second;
        }
        return -1;
    }
    sim::SimTime finishOf(const std::string &name) const
    {
        for (const auto &f : finishes) {
            if (f.first == name)
                return f.second;
        }
        return -1;
    }
};

} // namespace

TEST(Npq, ReordersByPriorityWithoutPreempting)
{
    // Figure 2b: K1 runs; K2 (low) and K3 (high) queued behind it.
    // NPQ runs K3 right after K1, before K2 -- but never cuts K1 short.
    DeviceRig rig("npq", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);

    auto k1 = test::makeProfile("K1", 260, 50.0);
    auto k2 = test::makeProfile("K2", 130, 20.0);
    auto k3 = test::makeProfile("K3", 26, 10.0);
    rig.launch(rig.queueFor(0), &k1, 0);
    rig.launch(rig.queueFor(1), &k2, 0);
    rig.launch(rig.queueFor(2), &k3, 5);
    rig.run();

    EXPECT_EQ(rig.framework.preemptions(), 0u);
    ASSERT_EQ(probe.starts.size(), 3u);
    EXPECT_EQ(probe.starts[0].first, "K1");
    EXPECT_EQ(probe.starts[1].first, "K3") << "priority order after K1";
    EXPECT_EQ(probe.starts[2].first, "K2");
    EXPECT_GE(probe.startOf("K3"), probe.finishOf("K1"))
        << "nonpreemptive: K3 waits for the running kernel";
}

TEST(Npq, TwoProcessCaseDegeneratesToFcfs)
{
    // With 2 processes the NPQ scheduler "never has any choice"
    // (Section 4.2): one pending kernel at a time.
    DeviceRig rig("npq", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);
    auto k1 = test::makeProfile("K1", 130, 50.0);
    auto k3 = test::makeProfile("K3", 26, 10.0);
    rig.launch(rig.queueFor(0), &k1, 0);
    rig.launch(rig.queueFor(1), &k3, 5);
    rig.run();
    EXPECT_GE(probe.startOf("K3"), probe.finishOf("K1"));
}

TEST(Ppq, PreemptsRunningLowPriorityKernel)
{
    // Figure 2c: K3's latency shrinks below the NPQ case because K1
    // is preempted rather than drained to completion.
    auto latency_under = [](const std::string &policy) {
        DeviceRig rig(policy, "context_switch");
        OrderProbe probe;
        probe.sim = &rig.sim;
        rig.framework.setObserver(&probe);
        auto k1 = test::makeProfile("K1", 520, 50.0);
        auto k3 = test::makeProfile("K3", 26, 10.0);
        rig.launch(rig.queueFor(0), &k1, 0);
        rig.run(sim::microseconds(20.0));
        sim::SimTime submit = rig.sim.now();
        rig.launch(rig.queueFor(1), &k3, 5);
        rig.run();
        return probe.finishOf("K3") - submit;
    };

    sim::SimTime npq = latency_under("npq");
    sim::SimTime ppq = latency_under("ppq_excl");
    EXPECT_LT(ppq, npq)
        << "preemption must cut the high-priority turnaround";
}

TEST(Ppq, ExclusiveModeBlocksBackfilling)
{
    // While the high-priority kernel is active, idle SMs must NOT be
    // given to low-priority kernels in exclusive mode.
    DeviceRig rig("ppq_excl", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);

    // hi uses only 1 SM (16 TBs, occupancy 16) and runs long.
    auto hi = test::makeProfile("hi", 16, 500.0);
    auto lo = test::makeProfile("lo", 16, 10.0);
    rig.launch(rig.queueFor(0), &hi, 5);
    rig.run(sim::microseconds(1.0));
    rig.launch(rig.queueFor(1), &lo, 0);
    rig.run();

    EXPECT_GE(probe.startOf("lo"), probe.finishOf("hi"))
        << "exclusive access: low priority waits while high is active";
}

TEST(Ppq, SharedModeBackfillsIdleSms)
{
    DeviceRig rig("ppq_shared", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);

    auto hi = test::makeProfile("hi", 16, 500.0);
    auto lo = test::makeProfile("lo", 16, 10.0);
    rig.launch(rig.queueFor(0), &hi, 5);
    rig.run(sim::microseconds(1.0));
    rig.launch(rig.queueFor(1), &lo, 0);
    rig.run();

    EXPECT_LT(probe.startOf("lo"), probe.finishOf("hi"))
        << "shared access: low priority back-fills free SMs";
}

TEST(Ppq, SharedModeReclaimsBackfilledSms)
{
    // After backfilling, a new high-priority kernel must reclaim the
    // SMs by preemption.
    DeviceRig rig("ppq_shared", "context_switch");
    auto lo = test::makeProfile("lo", 26 * 16, 100.0);
    auto hi = test::makeProfile("hi", 130, 20.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(5.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();
    EXPECT_GT(rig.framework.preemptions(), 0u);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(Ppq, EqualPrioritiesDoNotPreemptEachOther)
{
    DeviceRig rig("ppq_excl", "context_switch");
    auto k1 = test::makeProfile("k1", 130, 20.0);
    auto k2 = test::makeProfile("k2", 130, 20.0);
    rig.launch(rig.queueFor(0), &k1, 3);
    rig.run(sim::microseconds(5.0));
    rig.launch(rig.queueFor(1), &k2, 3);
    rig.run();
    EXPECT_EQ(rig.framework.preemptions(), 0u)
        << "preemption requires strictly higher priority";
}

TEST(Ppq, PreemptsOnlyWhatItNeeds)
{
    // hi needs 2 SMs (32 TBs, occupancy 16); only 2 of lo's 13 SMs
    // should be preempted.
    DeviceRig rig("ppq_excl", "context_switch");
    auto lo = test::makeProfile("lo", 26 * 16, 200.0);
    auto hi = test::makeProfile("hi", 32, 10.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(5.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();
    EXPECT_EQ(rig.framework.preemptions(), 2u);
}

TEST(Ppq, WorksWithDrainingMechanism)
{
    DeviceRig rig("ppq_excl", "draining");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);
    auto lo = test::makeProfile("lo", 520, 50.0);
    auto hi = test::makeProfile("hi", 26, 10.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(20.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();
    EXPECT_GT(rig.framework.preemptions(), 0u);
    EXPECT_DOUBLE_EQ(rig.framework.contextBytesSaved(), 0.0);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    // hi starts before lo fully finishes (it got drained SMs early).
    EXPECT_LT(probe.startOf("hi"), probe.finishOf("lo"));
}

TEST(Ppq, ThreePriorityLevelsStack)
{
    DeviceRig rig("ppq_excl", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);
    auto low = test::makeProfile("low", 260, 50.0);
    auto mid = test::makeProfile("mid", 130, 20.0);
    auto top = test::makeProfile("top", 26, 5.0);
    rig.launch(rig.queueFor(0), &low, 0);
    rig.run(sim::microseconds(10.0));
    rig.launch(rig.queueFor(1), &mid, 3);
    rig.run(sim::microseconds(30.0));
    rig.launch(rig.queueFor(2), &top, 9);
    rig.run();
    // Completion order follows priority: top, then mid, then low.
    ASSERT_EQ(probe.finishes.size(), 3u);
    EXPECT_EQ(probe.finishes[0].first, "top");
    EXPECT_EQ(probe.finishes[1].first, "mid");
    EXPECT_EQ(probe.finishes[2].first, "low");
}

// ------------------------------------------------------- PPQ + aging

TEST(PpqAging, BoundsLowPriorityStarvation)
{
    // A long high-priority kernel hogs every SM.  Plain PPQ (shared
    // mode) never preempts on behalf of the low-priority kernel, so
    // it waits for the tail of the high-priority grid; with aging the
    // waiting kernel's effective priority climbs past the hog and the
    // ordinary PPQ preemption path schedules it long before that.
    auto turnaround_of_lo = [](const std::string &policy,
                               sim::Config cfg, std::uint64_t *preempts) {
        DeviceRig rig(policy, "context_switch", std::move(cfg));
        OrderProbe probe;
        probe.sim = &rig.sim;
        rig.framework.setObserver(&probe);
        auto hog = test::makeProfile("hog", 2000, 50.0);
        auto lo = test::makeProfile("lo", 13, 10.0);
        rig.launch(rig.queueFor(0), &hog, 9);
        rig.run(sim::microseconds(20.0));
        rig.launch(rig.queueFor(1), &lo, 0);
        rig.run();
        *preempts = rig.framework.preemptions();
        return probe.finishOf("lo");
    };

    std::uint64_t ppq_preempts = 0;
    sim::SimTime ppq_done =
        turnaround_of_lo("ppq_shared", sim::Config(), &ppq_preempts);
    // Shared-mode PPQ only back-fills: no preemption ever favours the
    // low-priority kernel.
    EXPECT_EQ(ppq_preempts, 0u);

    sim::Config aging;
    aging.set("ppq_aging.interval_us", 100.0);
    aging.set("ppq_aging.step", static_cast<std::int64_t>(5));
    aging.set("ppq_aging.max_boost", static_cast<std::int64_t>(50));
    std::uint64_t aging_preempts = 0;
    sim::SimTime aging_done =
        turnaround_of_lo("ppq_aging", aging, &aging_preempts);

    EXPECT_GT(aging_preempts, 0u)
        << "aging must eventually preempt the hog";
    EXPECT_LT(aging_done, ppq_done)
        << "aged low-priority kernel must finish well before the "
           "plain-PPQ tail";
}

TEST(PpqAging, ServedKernelsCarryNoBoost)
{
    // While a kernel holds SMs its effective priority is its launch
    // priority: a freshly boosted-and-served kernel must not invert
    // the order permanently.
    sim::Config cfg;
    cfg.set("ppq_aging.interval_us", 100.0);
    cfg.set("ppq_aging.step", static_cast<std::int64_t>(5));
    DeviceRig rig("ppq_aging", "context_switch", cfg);
    auto *policy =
        dynamic_cast<core::PpqAgingPolicy *>(&rig.framework.policy());
    ASSERT_NE(policy, nullptr);

    auto hog = test::makeProfile("hog", 2000, 50.0);
    rig.launch(rig.queueFor(0), &hog, 9);
    rig.run(sim::microseconds(20.0));
    // The only active kernel holds SMs: zero boost.
    ASSERT_EQ(rig.framework.activeKernels().size(), 1u);
    EXPECT_EQ(policy->boostOf(rig.framework.activeKernels()[0]), 0);

    auto lo = test::makeProfile("lo", 13, 10.0);
    rig.launch(rig.queueFor(1), &lo, 0);
    // One aging interval in (boost 5), below the hog's priority 9:
    // lo is still waiting, hog is still served boost-free.
    rig.run(sim::microseconds(180.0));
    ASSERT_EQ(rig.framework.activeKernels().size(), 2u);
    const gpu::KernelExec *hog_k = rig.framework.activeKernels()[0];
    const gpu::KernelExec *lo_k = rig.framework.activeKernels()[1];
    EXPECT_EQ(policy->boostOf(hog_k), 0);
    EXPECT_EQ(policy->boostOf(lo_k), 5);
    EXPECT_GT(policy->ticks(), 0u);
    rig.run();
}

TEST(PpqAging, ValidatorChecksTunables)
{
    sim::Config bad_interval;
    bad_interval.set("ppq_aging.interval_us", -1.0);
    EXPECT_THROW(workload::validateConfig(bad_interval), sim::FatalError);

    sim::Config bad_step;
    bad_step.set("ppq_aging.step", static_cast<std::int64_t>(-2));
    EXPECT_THROW(workload::validateConfig(bad_step), sim::FatalError);

    // Typo'd tunable: rejected with the nearest declared key named.
    sim::Config typo;
    typo.set("ppq_aging.intervalus", 10.0);
    try {
        workload::validateConfig(typo);
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("ppq_aging.interval_us"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PpqAging, EndToEndWorkload)
{
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm", "spmv", "mri-q"};
    spec.priorities = {0, 0, 9};
    spec.policy = "ppq_aging";
    spec.mechanism = "adaptive";
    spec.minReplays = 2;
    workload::System system(spec);
    auto result = system.run(sim::seconds(120.0));
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u);
}
