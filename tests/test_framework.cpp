/**
 * Tests of the scheduling framework: command buffers, active queue /
 * KSRT bookkeeping, the SM driver's issue logic and the SRAM cost
 * model of Section 3.3.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/adaptive.hh"
#include "core/tables.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"

using namespace gpump;
using test::DeviceRig;

TEST(FrameworkTables, SramCostsMatchPaperClaims)
{
    gpu::GpuParams p; // GK110: 13 SMs, 16 TB slots
    core::FrameworkSramCosts c = core::frameworkSramCosts(p);

    // Section 3.3: command buffers + KSRT + SMST + active queue take
    // less than 0.5 KB of on-chip SRAM...
    EXPECT_LT(c.coreBytes(), 512);
    EXPECT_GT(c.coreBytes(), 256) << "suspiciously small: check widths";

    // ...and the PTBQs take 21 KB (13 queues x 13*16 entries x 8 B).
    EXPECT_EQ(c.ptbqBytes, 13 * 13 * 16 * 8);
    EXPECT_NEAR(static_cast<double>(c.ptbqBytes) / 1024.0, 21.0, 0.2);
}

TEST(FrameworkTables, GeometryScalesWithSms)
{
    gpu::GpuParams p;
    p.numSms = 1; // mobile GPU with one SM (Section 3.3 discussion)
    EXPECT_EQ(core::maxActiveKernels(p), 1);
    EXPECT_EQ(core::ptbqCapacityPerKernel(p), 16);
}

TEST(Framework, CommandBufferHoldsOneCommandPerContext)
{
    DeviceRig rig;
    auto k = test::makeProfile("k", 2000, 50.0);
    // Fill the active queue (13 kernels from 13 contexts) plus one
    // buffered command each for two more contexts.
    std::vector<gpu::CommandQueue *> queues;
    for (int c = 0; c < 15; ++c)
        queues.push_back(rig.queueFor(c));
    for (int c = 0; c < 15; ++c)
        rig.launch(queues[static_cast<size_t>(c)], &k);

    EXPECT_EQ(rig.framework.numActiveKernels(), 13);
    EXPECT_TRUE(rig.framework.activeQueueFull());
    auto waiting = rig.framework.waitingBuffers();
    ASSERT_EQ(waiting.size(), 2u);
    EXPECT_EQ(waiting[0], 13);
    EXPECT_EQ(waiting[1], 14);
    EXPECT_TRUE(rig.framework.hasBufferedCommand(13));

    // A second command from context 13's queue must stay in the
    // hardware queue: its buffer is occupied.
    rig.launch(queues[13], &k);
    EXPECT_EQ(rig.dispatcher.pendingCommands(), 1u);
}

TEST(Framework, AdmitBeyondCapacityPanics)
{
    DeviceRig rig;
    auto k = test::makeProfile("k", 2000, 50.0);
    for (int c = 0; c < 14; ++c)
        rig.launch(rig.queueFor(c), &k);
    ASSERT_TRUE(rig.framework.activeQueueFull());
    EXPECT_THROW(rig.framework.admit(13), sim::PanicError);
}

TEST(Framework, SchemesInstallOnce)
{
    // Replacing a scheme would destroy it while the completion
    // observers its bind() registered stay on the completion path, so
    // a second install panics and leaves the first scheme in place.
    DeviceRig rig("bore_burst", "pred_adaptive");
    EXPECT_THROW(rig.framework.setMechanism(
                     core::makeMechanism("context_switch")),
                 sim::PanicError);
    EXPECT_THROW(rig.framework.setPolicy(
                     core::makePolicy("fcfs", rig.sim.config())),
                 sim::PanicError);
    auto &mech = rig.mechanismAs<core::AdaptiveMechanism>();
    ASSERT_NE(mech.predictor(), nullptr);

    // The installed schemes still observe a full run.
    auto k = test::makeProfile("k", 64, 5.0);
    rig.launch(rig.queueFor(0), &k, 0);
    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 1u);
    EXPECT_EQ(mech.predictor()->observations(), 64u);
}

TEST(Framework, UnallocatedTbsAccountsGrantedCapacity)
{
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    // Occupancy 16, 40 TBs: needs ceil(40/16) = 3 SMs.
    auto k = test::makeProfile("k", 40, 100.0);
    rig.launch(q, &k);
    const auto &active = rig.framework.activeKernels();
    ASSERT_EQ(active.size(), 1u);
    // FCFS assigned 3 SMs synchronously; the remaining TBs are covered.
    EXPECT_EQ(active[0]->smsHeld, 3);
    EXPECT_EQ(rig.framework.unallocatedTbs(active[0]), 0);
    rig.run();
}

TEST(Framework, PreemptedTbsIssueBeforeFreshOnes)
{
    // Two-context scenario under PPQ/context switch: the low-priority
    // kernel is preempted, then resumes; its PTBQ blocks must be
    // re-issued before fresh blocks.
    DeviceRig rig("ppq_excl", "context_switch");
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);

    // occupancy 16 -> 13 SMs busy with 208 resident TBs, 292 fresh left.
    auto lo = test::makeProfile("lo", 500, 100.0);
    auto hi = test::makeProfile("hi", 13, 20.0);

    rig.launch(q0, &lo, /*priority=*/0);
    rig.run(sim::microseconds(10.0));
    const auto *lo_exec = rig.framework.activeKernels().at(0);
    int fresh_before = lo_exec->issuedFresh();

    rig.launch(q1, &hi, /*priority=*/5);
    rig.run(sim::microseconds(40.0)); // hi done; lo resumes

    // After resumption the kernel must drain its PTBQ first: no new
    // fresh TBs may be taken while preempted ones remain.
    const auto &active = rig.framework.activeKernels();
    ASSERT_FALSE(active.empty());
    const auto *lo_after = active.front();
    if (lo_after->hasPreemptedTbs()) {
        EXPECT_EQ(lo_after->issuedFresh(), fresh_before)
            << "fresh TBs issued while the PTBQ was non-empty";
    }
    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(Framework, KernelExecTbAccounting)
{
    gpu::GpuParams params;
    auto prof = test::makeProfile("k", 4, 1.0);
    auto cmd = gpu::Command::makeKernel(0, 0, &prof);
    gpu::KernelExec k(0, cmd, params, 8);

    EXPECT_EQ(k.totalTbs(), 4);
    EXPECT_TRUE(k.hasFreshTbs());
    EXPECT_FALSE(k.hasPreemptedTbs());

    EXPECT_EQ(k.takeFreshTb(), 0);
    EXPECT_EQ(k.takeFreshTb(), 1);
    k.tbStarted();
    k.tbStarted();
    k.tbEnded(true);
    k.tbEnded(false); // preempted, not completed
    EXPECT_EQ(k.completed(), 1);

    k.pushPreemptedTb({1, sim::microseconds(0.5)});
    EXPECT_TRUE(k.hasPreemptedTbs());
    auto pt = k.takePreemptedTb();
    EXPECT_EQ(pt.tbIndex, 1);
    EXPECT_FALSE(k.finished());
}

TEST(Framework, PtbqOverflowPanics)
{
    gpu::GpuParams params;
    auto prof = test::makeProfile("k", 100, 1.0);
    auto cmd = gpu::Command::makeKernel(0, 0, &prof);
    gpu::KernelExec k(0, cmd, params, 2);
    k.pushPreemptedTb({0, 1});
    k.pushPreemptedTb({1, 1});
    EXPECT_THROW(k.pushPreemptedTb({2, 1}), sim::PanicError);
}

TEST(Framework, ObserverSeesLifecycle)
{
    struct Obs : core::EngineObserver
    {
        int admitted = 0, started = 0, finished = 0, assigned = 0;
        void kernelAdmitted(const gpu::KernelExec &) override
        {
            ++admitted;
        }
        void kernelStarted(const gpu::KernelExec &) override
        {
            ++started;
        }
        void kernelFinished(const gpu::KernelExec &) override
        {
            ++finished;
        }
        void smAssigned(const gpu::Sm &, const gpu::KernelExec &) override
        {
            ++assigned;
        }
    } obs;

    DeviceRig rig;
    rig.framework.setObserver(&obs);
    auto k = test::makeProfile("k", 40, 10.0);
    rig.launch(rig.queueFor(0), &k);
    rig.run();
    EXPECT_EQ(obs.admitted, 1);
    EXPECT_EQ(obs.started, 1);
    EXPECT_EQ(obs.finished, 1);
    EXPECT_EQ(obs.assigned, 3);
}

TEST(Framework, SetupLatencySkippedForSameContext)
{
    // Back-to-back kernels of one context must not pay the context
    // load again: only the base SM setup.
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    auto k1 = test::makeProfile("k1", 13, 10.0);
    auto k2 = test::makeProfile("k2", 13, 10.0);
    sim::SimTime end1 = -1, end2 = -1;
    auto c1 = gpu::Command::makeKernel(0, 0, &k1);
    c1->onComplete = [&] { end1 = rig.sim.now(); };
    auto c2 = gpu::Command::makeKernel(0, 0, &k2);
    c2->onComplete = [&] { end2 = rig.sim.now(); };
    rig.dispatcher.enqueue(q, c1);
    rig.dispatcher.enqueue(q, c2);
    rig.run();
    // k1: setup + ctx load + 10 us.  k2: setup only + 10 us.
    sim::SimTime k1_time = rig.params.smSetupLatency +
        rig.params.contextLoadLatency + sim::microseconds(10.0);
    sim::SimTime k2_time =
        rig.params.smSetupLatency + sim::microseconds(10.0);
    EXPECT_EQ(end1, k1_time);
    EXPECT_EQ(end2, k1_time + k2_time);
}

TEST(Framework, CompletionTimelineKeepsQueuePressureBounded)
{
    // Each SM's completion timeline rides one lane of the event
    // queue, so thread-block completions never enter the general
    // queue: its heap holds O(1) entries (setup events, the probe)
    // while the lanes carry the completions — with 13 SMs at
    // occupancy 16 a one-event-per-TB design kept ~208 completion
    // events pending.
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    auto k = test::makeProfile("big", 2000, 50.0);
    rig.launch(q, &k);

    sim::EventQueue &events = rig.sim.events();
    std::size_t peak = 0;
    std::size_t heap_peak = 0;
    std::size_t busy_samples = 0;
    std::function<void()> sample = [&] {
        std::size_t p = events.pending();
        peak = std::max(peak, p);
        std::size_t armed = 0;
        for (const auto &sm : rig.framework.sms())
            armed += events.laneArmed(sm->completionLane) ? 1 : 0;
        if (armed > 0) {
            // Once the SMs run (setup events all fired), only the
            // probe and stray driver events may occupy the heap.
            heap_peak = std::max(heap_peak, events.heapEntries());
            ++busy_samples;
        }
        if (p > 0)
            events.scheduleIn(sim::microseconds(25.0), [&] { sample(); });
    };
    sample();
    std::uint64_t before = events.executed();
    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(), 1u);
    std::size_t sms =
        static_cast<std::size_t>(rig.framework.numSms());
    EXPECT_LE(peak, sms + 4u)
        << "queue pressure is not O(SMs): completion events are not "
           "being coalesced per SM";
    EXPECT_GT(peak, 2u) << "probe never saw the engine busy";
    EXPECT_GT(busy_samples, 10u);
    EXPECT_LE(heap_peak, 4u)
        << "the general queue is carrying thread-block completions";
    EXPECT_GE(events.executed() - before, 2000u)
        << "every completion must count as an executed event";
}

TEST(KernelExec, ReassignRefreshesTbDurationDistribution)
{
    // The framework pools retired KernelExecs; the fresh-TB duration
    // lognormal is solved once per kernel, so a reassigned entry must
    // re-solve it for its new profile or every later kernel would
    // draw from the first one's mean.
    gpu::GpuParams params;
    params.tbTimeCv = 0.25;
    auto short_tb = test::makeProfile("short", 64, 10.0);
    auto long_tb = test::makeProfile("long", 64, 400.0);
    gpu::KernelExec k(0, gpu::Command::makeKernel(0, 0, &short_tb),
                      params, 64);
    EXPECT_EQ(k.tbDurationParams().mean, 10.0);
    k.releaseCommand();
    k.assign(1, gpu::Command::makeKernel(1, 0, &long_tb), params, 64);
    EXPECT_EQ(k.tbDurationParams().mean, 400.0);

    sim::Rng pooled(43), fresh(43);
    double sum = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        double x = pooled.lognormal(k.tbDurationParams());
        EXPECT_EQ(x, fresh.lognormal(400.0, 0.25));
        sum += x;
    }
    EXPECT_NEAR(sum / n, 400.0, 10.0);

    // Without duration variability nothing is solved and nothing drawn.
    params.tbTimeCv = 0.0;
    k.releaseCommand();
    k.assign(2, gpu::Command::makeKernel(2, 0, &short_tb), params, 64);
    EXPECT_TRUE(k.tbDurationParams().fixed);
}
