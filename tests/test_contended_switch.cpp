/**
 * Tests of the contended-switch model (gmem.contended_switch):
 * context save/restore bytes ride the transfer engine as driver-
 * originated commands, so preemption latency includes PCIe queueing;
 * plus the proactive_mem mechanism built on top of it, the per-SM
 * context-load contract, and the byte-identity guard for the default
 * (off) configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/proactive_mem.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

sim::Config
contendedConfig()
{
    sim::Config cfg;
    cfg.set("gmem.contended_switch", true);
    return cfg;
}

/** Records the first preemption request time and per-SM latencies. */
struct PreemptionProbe : core::EngineObserver
{
    sim::Simulation *sim = nullptr;
    sim::SimTime requestAt = -1;
    std::vector<sim::SimTime> latencies;

    void preemptionRequested(const gpu::Sm &, const gpu::KernelExec &,
                             const gpu::KernelExec &) override
    {
        if (requestAt < 0)
            requestAt = sim->now();
    }
    void preemptionCompleted(const gpu::Sm &) override
    {
        latencies.push_back(sim->now() - requestAt);
    }
};

} // namespace

TEST(ContendedSwitch, SavesSerializeOnTheTransferEngine)
{
    // Under the share model every SM saves in parallel at its
    // bandwidth share (SaveLatencyMatchesContextSize).  Under the
    // contended model each SM's save is one transfer command on an
    // engine that moves one transfer at a time, so thirteen
    // simultaneous preemptions complete in a staircase: SM i waits
    // for i earlier saves.
    DeviceRig rig("ppq_excl", "context_switch", contendedConfig());
    PreemptionProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);

    // Occupancy 4 (512 threads/TB), 16 KiB of regs per TB ->
    // 64 KiB of context per SM.
    // Occupancy 4 (512 threads/TB), 16 KiB of regs per TB ->
    // 64 KiB of context per SM; hi at occupancy 1 (2048 threads/TB)
    // with 13 TBs needs every SM.
    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    const std::int64_t bytes = 4 * 4096 * 4;
    const sim::SimTime drain = rig.params.pipelineDrainLatency;
    const sim::SimTime per_save = rig.pcie.transferDuration(bytes);
    ASSERT_EQ(probe.latencies.size(),
              static_cast<std::size_t>(rig.params.numSms));
    EXPECT_TRUE(std::is_sorted(probe.latencies.begin(),
                               probe.latencies.end()));
    for (std::size_t i = 0; i < probe.latencies.size(); ++i)
        EXPECT_EQ(probe.latencies[i],
                  drain + static_cast<sim::SimTime>(i + 1) * per_save)
            << "save " << i << " must queue behind the earlier saves";
}

TEST(ContendedSwitch, SaveQueuesBehindWorkloadCopy)
{
    // A big application memcpy in flight when the preemption lands
    // must delay the save: that queueing is the whole point of the
    // contended model (the share model would ignore it entirely).
    DeviceRig rig("ppq_excl", "context_switch", contendedConfig());
    PreemptionProbe probe;
    probe.sim = &rig.sim;
    rig.framework.setObserver(&probe);

    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));

    const std::int64_t copy_bytes = 8ll << 20;
    auto copy = gpu::Command::makeMemcpy(
        2, 0, gpu::Command::Kind::MemcpyH2D, copy_bytes);
    rig.dispatcher.enqueue(rig.queueFor(2), copy);
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    // The copy starts the instant it is enqueued (idle engine) and
    // the preemption is requested at the same instant, so the first
    // save begins exactly when the copy finishes.
    const std::int64_t bytes = 4 * 4096 * 4;
    const sim::SimTime copy_time = rig.pcie.transferDuration(copy_bytes);
    const sim::SimTime per_save = rig.pcie.transferDuration(bytes);
    ASSERT_EQ(probe.latencies.size(),
              static_cast<std::size_t>(rig.params.numSms));
    for (std::size_t i = 0; i < probe.latencies.size(); ++i)
        EXPECT_EQ(probe.latencies[i],
                  copy_time +
                      static_cast<sim::SimTime>(i + 1) * per_save);
}

TEST(ContendedSwitch, PreemptedWorkResumesViaRestoreFetches)
{
    DeviceRig rig("ppq_excl", "context_switch", contendedConfig());
    auto lo = test::makeProfile("lo", 100, 200.0);
    auto hi = test::makeProfile("hi", 26, 50.0);
    bool lo_done = false;
    auto lo_cmd = gpu::Command::makeKernel(0, 0, &lo);
    lo_cmd->onComplete = [&] { lo_done = true; };
    rig.dispatcher.enqueue(rig.queueFor(0), lo_cmd);
    rig.run(sim::microseconds(50.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();

    EXPECT_TRUE(lo_done);
    EXPECT_EQ(rig.framework.tbsCompleted(), 126u)
        << "every preempted TB must complete exactly once under the "
           "contended model too";
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    EXPECT_GT(rig.framework.tbsPrefetched(), 0u)
        << "preempted TBs re-issue only after their restore fetch "
           "lands";
    // Saves + restore fetches all ride the engine as driver commands.
    EXPECT_GT(rig.framework.contextTransfers(),
              rig.framework.preemptions())
        << "expected one save per preemption plus restore fetches";
}

TEST(ProactiveMem, StagesRestoresForTheReservationTarget)
{
    // Round-robin time slicing between two long kernels: from the
    // second rotation on, the reservation target has a non-empty
    // PTBQ, so the mechanism must stage restore fetches ahead of the
    // switch (share model here; the contended variant is below).
    DeviceRig rig("tmux", "proactive_mem");
    auto a = test::makeProfile("a", 2000, 50.0);
    auto b = test::makeProfile("b", 2000, 50.0);
    rig.launch(rig.queueFor(0), &a, 0);
    rig.launch(rig.queueFor(1), &b, 0);
    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    auto &mech = dynamic_cast<core::ProactiveMemMechanism &>(
        rig.framework.mechanism());
    EXPECT_GT(mech.prefetchesIssued(), 0u)
        << "rotations after the first must find preempted TBs to "
           "stage";
    EXPECT_GT(mech.tbsStaged(), 0u);
    EXPECT_LE(mech.prefetchesIssued() + mech.prefetchesSkipped(),
              rig.framework.preemptions())
        << "each preemption takes at most one staging decision";
    EXPECT_GT(rig.framework.tbsPrefetched(), 0u);
}

TEST(ProactiveMem, WorksUnderTheContendedModel)
{
    DeviceRig rig("tmux", "proactive_mem", contendedConfig());
    auto a = test::makeProfile("a", 2000, 50.0);
    auto b = test::makeProfile("b", 2000, 50.0);
    rig.launch(rig.queueFor(0), &a, 0);
    rig.launch(rig.queueFor(1), &b, 0);
    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    auto &mech = dynamic_cast<core::ProactiveMemMechanism &>(
        rig.framework.mechanism());
    EXPECT_GT(mech.prefetchesIssued(), 0u);
    EXPECT_GT(rig.framework.contextTransfers(), 0u)
        << "prefetches must be real transfer commands when contended";
}

TEST(ProactiveMem, UnknownTunableIsRejectedWithSuggestion)
{
    sim::Config cfg;
    cfg.set("proactive_mem.lookahed", static_cast<std::int64_t>(8));
    std::string msg;
    try {
        workload::validateConfig(cfg);
        ADD_FAILURE() << "expected sim::FatalError";
    } catch (const sim::FatalError &e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("proactive_mem.lookahed"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("proactive_mem.lookahead"), std::string::npos)
        << "the near-miss key should be suggested: " << msg;
}

TEST(ProactiveMem, NonPositiveLookaheadIsFatal)
{
    sim::Config cfg;
    cfg.set("proactive_mem.lookahead", static_cast<std::int64_t>(0));
    EXPECT_THROW(workload::validateConfig(cfg), sim::FatalError);
}

namespace {

/** Counts context loads — changes of Sm::loadedContext seen across
 *  the framework's smAssigned notifications, per SM — and times the
 *  setup of the last kernel to start (its last SM assignment to its
 *  first issued TB), which is where a load is charged. */
struct ContextLoadProbe : core::EngineObserver
{
    const sim::Simulation &sim;
    std::vector<sim::ContextId> loaded;
    std::vector<std::uint64_t> loads;
    sim::SimTime assignedAt = -1;
    sim::SimTime lastSetup = -1;

    ContextLoadProbe(const sim::Simulation &s, int sms)
        : sim(s),
          loaded(static_cast<std::size_t>(sms), sim::invalidContext),
          loads(static_cast<std::size_t>(sms), 0)
    {
    }

    void smAssigned(const gpu::Sm &sm, const gpu::KernelExec &k) override
    {
        EXPECT_EQ(sm.loadedContext, k.ctx())
            << "an assigned SM holds its kernel's context";
        auto i = static_cast<std::size_t>(sm.id());
        if (sm.loadedContext != loaded[i]) {
            loaded[i] = sm.loadedContext;
            ++loads[i];
        }
        assignedAt = sim.now();
    }

    void kernelStarted(const gpu::KernelExec &) override
    {
        lastSetup = sim.now() - assignedAt;
    }

    std::uint64_t total() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t l : loads)
            n += l;
        return n;
    }
};

} // namespace

TEST(ContextLoad, EveryContextChangingAssignmentLoadsOnce)
{
    // Two SMs (the KSRT holds one kernel per SM, so one SM could
    // never admit the preemptor) and a fully deterministic sequence:
    // ctx0 takes both SMs, ctx1 preempts SM 0, finishes, ctx0 gets
    // SM 0 back.  That is four context-changing assignments in total
    // — SM 0 loads a context three times, SM 1 once — and nothing
    // else may reload.
    sim::Config cfg;
    cfg.set("gpu.num_sms", static_cast<std::int64_t>(2));
    DeviceRig rig("ppq_excl", "context_switch", std::move(cfg));
    ContextLoadProbe probe(rig.sim, 2);
    const sim::SimTime with_load =
        rig.params.smSetupLatency + rig.params.contextLoadLatency;
    rig.framework.setObserver(&probe);
    EXPECT_EQ(probe.total(), 0u);

    auto lo = test::makeProfile("lo", 40, 10.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 4, 1.0, 4096, 0, 512);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(50.0));
    EXPECT_EQ(probe.total(), 2u)
        << "first assignment of each SM loads ctx 0";
    EXPECT_EQ(probe.lastSetup, with_load);

    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    EXPECT_EQ(rig.framework.preemptions(), 1u)
        << "hi needs one SM, so exactly one preemption";
    EXPECT_EQ(probe.loads[0], 3u)
        << "SM 0: assign ctx0, preempt->assign ctx1, re-assign ctx0";
    EXPECT_EQ(probe.loads[1], 1u)
        << "SM 1 keeps running ctx0 throughout";
    EXPECT_EQ(probe.lastSetup, with_load) << "hi loads ctx 1";

    // Both SMs last ran ctx 0 and keep it loaded: launching another
    // ctx-0 kernel must not reload.
    auto lo2 = test::makeProfile("lo2", 8, 1.0, 4096, 0, 512);
    rig.launch(rig.queueFor(0), &lo2, 0);
    rig.run();
    EXPECT_EQ(probe.total(), 4u)
        << "same-context relaunch must reuse the loaded context";
    EXPECT_EQ(probe.lastSetup, rig.params.smSetupLatency)
        << "and pay only the SM setup";
    rig.framework.setObserver(nullptr);
}

TEST(ContendedSwitch, DefaultOffIsIdenticalToExplicitOff)
{
    // The tunable defaults to off and off must be indistinguishable
    // from the seed model: same schedule, same event count, same
    // metrics.  This is the in-tree tripwire for the golden-file
    // byte-identity requirement.
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm", "histo", "spmv"};
    spec.priorities = {2, 0, 1};
    spec.policy = "ppq_excl";
    spec.minReplays = 2;

    auto a = workload::System(spec).run();
    sim::Config off;
    off.set("gmem.contended_switch", false);
    auto b = workload::System(spec, off).run();

    EXPECT_EQ(a.endTime, b.endTime);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.preemptions, b.preemptions);
    ASSERT_EQ(a.meanTurnaroundUs.size(), b.meanTurnaroundUs.size());
    for (std::size_t i = 0; i < a.meanTurnaroundUs.size(); ++i)
        EXPECT_EQ(a.meanTurnaroundUs[i], b.meanTurnaroundUs[i])
            << "process " << i;

    ASSERT_GT(a.preemptions, 0u)
        << "the workload must actually preempt, or this guard "
           "proves nothing";
    // And the contended model must actually change the schedule —
    // otherwise the tunable is dead code.
    sim::Config on;
    on.set("gmem.contended_switch", true);
    auto c = workload::System(spec, on).run();
    EXPECT_TRUE(c.endTime != a.endTime ||
                c.eventsExecuted != a.eventsExecuted)
        << "gmem.contended_switch=1 changed nothing";
}
