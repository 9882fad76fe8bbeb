/**
 * Tests of the framework's extension policies: round-robin time
 * multiplexing and priority-weighted DSS token grants.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/dss.hh"
#include "core/timemux.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

std::map<sim::ContextId, int>
smShares(core::SchedulingFramework &fw)
{
    std::map<sim::ContextId, int> shares;
    for (const auto &sm : fw.sms()) {
        if (sm->kernel != nullptr)
            ++shares[sm->kernel->ctx()];
    }
    return shares;
}

} // namespace

TEST(TimeMux, RotatesOwnershipBetweenKernels)
{
    sim::Config cfg;
    cfg.set("tmux.quantum_us", 100.0);
    DeviceRig rig("tmux", "context_switch", cfg);

    auto ka = test::makeProfile("a", 40000, 20.0);
    auto kb = test::makeProfile("b", 40000, 20.0);
    rig.launch(rig.queueFor(0), &ka);
    rig.launch(rig.queueFor(1), &kb);

    // Slice 1: kernel a owns the engine.
    rig.run(sim::microseconds(50.0));
    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 13);
    EXPECT_EQ(shares[1], 0);

    // After one quantum + preemption round-trip (and before the next
    // rotation at ~217 us): kernel b owns the engine.
    rig.run(sim::microseconds(150.0));
    shares = smShares(rig.framework);
    EXPECT_EQ(shares[1], 13)
        << "quantum expiry must hand the engine to the next kernel";
    EXPECT_EQ(shares[0], 0);

    auto *tmux =
        dynamic_cast<core::TimeMuxPolicy *>(&rig.framework.policy());
    ASSERT_NE(tmux, nullptr);
    EXPECT_GE(tmux->rotations(), 1u);
}

TEST(TimeMux, LoneKernelKeepsEngineWithoutRotation)
{
    sim::Config cfg;
    cfg.set("tmux.quantum_us", 50.0);
    DeviceRig rig("tmux", "context_switch", cfg);
    auto k = test::makeProfile("k", 40000, 20.0);
    rig.launch(rig.queueFor(0), &k);
    rig.run(sim::microseconds(500.0));
    EXPECT_EQ(rig.framework.preemptions(), 0u)
        << "no contention, no preemption";
    EXPECT_EQ(smShares(rig.framework)[0], 13);
    rig.run();
}

TEST(TimeMux, BackfillsWhenOwnerLacksWork)
{
    sim::Config cfg;
    cfg.set("tmux.quantum_us", 1000.0);
    DeviceRig rig("tmux", "context_switch", cfg);
    // Owner only fills 3 SMs; the other kernel back-fills the rest.
    auto small = test::makeProfile("small", 3 * 16, 500.0);
    auto big = test::makeProfile("big", 4000, 20.0);
    rig.launch(rig.queueFor(0), &small);
    rig.launch(rig.queueFor(1), &big);
    rig.run(sim::microseconds(100.0));
    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 3);
    EXPECT_EQ(shares[1], 10) << "idle SMs must be back-filled";
}

TEST(TimeMux, WorksWithDrainingAndFinishesEverything)
{
    sim::Config cfg;
    cfg.set("tmux.quantum_us", 100.0);
    DeviceRig rig("tmux", "draining", cfg);
    auto ka = test::makeProfile("a", 2000, 20.0);
    auto kb = test::makeProfile("b", 2000, 20.0);
    rig.launch(rig.queueFor(0), &ka);
    rig.launch(rig.queueFor(1), &kb);
    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    EXPECT_EQ(rig.framework.tbsCompleted(), 4000u);
}

TEST(TimeMux, EndToEndWorkload)
{
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm", "histo", "spmv"};
    spec.policy = "tmux";
    spec.minReplays = 2;
    workload::System system(spec);
    auto result = system.run(sim::seconds(60.0));
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u);
}

TEST(TimeMux, ValidatorChecksQuantum)
{
    sim::Config cfg;
    cfg.set("tmux.quantum_us", -5.0);
    EXPECT_THROW(workload::validateConfig(cfg), sim::FatalError);
}

TEST(WeightedDss, SharesProportionalToPriority)
{
    sim::Config cfg;
    cfg.set("dss.tokens_per_kernel", static_cast<std::int64_t>(4));
    cfg.set("dss.bonus_tokens", static_cast<std::int64_t>(0));
    cfg.set("dss.weight_by_priority", true);
    DeviceRig rig("dss", "context_switch", cfg);

    // Priority 0 -> 4 tokens; priority 1 -> 8 tokens.
    auto lo = test::makeProfile("lo", 40000, 50.0);
    auto hi = test::makeProfile("hi", 40000, 50.0);
    rig.launch(rig.queueFor(0), &lo, /*priority=*/0);
    rig.run(sim::microseconds(300.0));
    rig.launch(rig.queueFor(1), &hi, /*priority=*/1);
    rig.run(rig.sim.now() + sim::milliseconds(2.0));

    auto shares = smShares(rig.framework);
    // Steady state follows the grants: 13 SMs split ~ 4 : 8.
    EXPECT_EQ(shares[0] + shares[1], 13);
    EXPECT_GE(shares[1], 8);
    EXPECT_LE(shares[1], 9);
}

TEST(WeightedDss, UnweightedIgnoresPriority)
{
    sim::Config cfg;
    cfg.set("dss.tokens_per_kernel", static_cast<std::int64_t>(6));
    cfg.set("dss.bonus_tokens", static_cast<std::int64_t>(1));
    DeviceRig rig("dss", "context_switch", cfg);
    auto lo = test::makeProfile("lo", 40000, 50.0);
    auto hi = test::makeProfile("hi", 40000, 50.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(300.0));
    rig.launch(rig.queueFor(1), &hi, 7);
    rig.run(rig.sim.now() + sim::milliseconds(2.0));
    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 7);
    EXPECT_EQ(shares[1], 6)
        << "equal sharing must ignore process priorities";
}
