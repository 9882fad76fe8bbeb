/**
 * Tests of device-memory residency (memory/residency.hh): per-context
 * admission, the byte ledger of what is on the device, LRU eviction
 * with pinning, swap-in completion plumbing, and the end-to-end
 * oversubscribed run where swap traffic is charged on the PCIe
 * transfer path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "memory/residency.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/app_model.hh"
#include "workload/system.hh"

using namespace gpump;
using namespace gpump::memory;

namespace {

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

/** One recorded swap submission. */
struct SwapRec
{
    sim::ContextId ctx;
    std::int64_t bytes;
    bool toDevice;
    std::function<void()> done;
};

/** A manager whose swap transfers are recorded instead of simulated;
 *  tests complete them by hand. */
struct ResidencyRig
{
    sim::StatRegistry reg;
    std::vector<SwapRec> swaps;
    ResidencyManager rm;

    explicit ResidencyRig(std::int64_t capacity)
        : rm(reg, capacity,
             [this](sim::ContextId ctx, int, std::int64_t bytes,
                    bool to_device, std::function<void()> done) {
                 swaps.push_back(
                     {ctx, bytes, to_device, std::move(done)});
             })
    {
    }

    /** Run every pending swap-completion callback, in order. */
    void completeSwaps()
    {
        // Callbacks can submit follow-up swaps; drain by index.
        for (std::size_t i = 0; i < swaps.size(); ++i) {
            if (swaps[i].done) {
                auto done = std::move(swaps[i].done);
                swaps[i].done = nullptr;
                done();
            }
        }
    }
};

} // namespace

TEST(Residency, FootprintBeyondCapacityIsFatal)
{
    ResidencyRig rig(8 * kMiB);
    EXPECT_THROW(rig.rm.registerContext(0, 0, 8 * kMiB + 1),
                 sim::FatalError)
        << "a footprint no eviction can ever make room for must be "
           "rejected at admission";
}

TEST(Residency, OversubscribedContextIsAdmittedSwappedOut)
{
    // The seed refused workloads whose combined footprints exceed
    // capacity.  Now only the per-context bound is fatal: the second
    // context is admitted without device memory.
    ResidencyRig rig(8 * kMiB);
    rig.rm.registerContext(0, 0, 5 * kMiB);
    rig.rm.registerContext(1, 0, 5 * kMiB);

    EXPECT_TRUE(rig.rm.resident(0));
    EXPECT_FALSE(rig.rm.resident(1));
    EXPECT_EQ(rig.rm.onDevice(), 5 * kMiB)
        << "only the resident context holds device memory";
    EXPECT_TRUE(rig.swaps.empty()) << "admission moves no data";

    bool ready = false;
    rig.rm.ensureResident(0, [&] { ready = true; });
    EXPECT_TRUE(ready) << "resident contexts are ready synchronously";
    EXPECT_TRUE(rig.swaps.empty());
}

TEST(Residency, SwapInEvictsLruAndRunsWaitersOnCompletion)
{
    ResidencyRig rig(8 * kMiB);
    rig.rm.registerContext(0, 0, 5 * kMiB);
    rig.rm.registerContext(1, 0, 5 * kMiB);

    int ready = 0;
    rig.rm.ensureResident(1, [&] { ++ready; });
    // Both directions submitted: write back the victim, fetch the
    // incoming context.
    ASSERT_EQ(rig.swaps.size(), 2u);
    EXPECT_EQ(rig.swaps[0].ctx, 0);
    EXPECT_FALSE(rig.swaps[0].toDevice);
    EXPECT_EQ(rig.swaps[0].bytes, 5 * kMiB);
    EXPECT_EQ(rig.swaps[1].ctx, 1);
    EXPECT_TRUE(rig.swaps[1].toDevice);
    EXPECT_EQ(rig.swaps[1].bytes, 5 * kMiB);

    // Eviction is immediate (the memory is reused for the incoming
    // context); readiness is not.
    EXPECT_FALSE(rig.rm.resident(0));
    EXPECT_FALSE(rig.rm.resident(1));
    EXPECT_EQ(rig.rm.onDevice(), 5 * kMiB)
        << "the victim's bytes left the ledger and the swapping-in "
           "context's bytes entered it";
    EXPECT_EQ(ready, 0) << "not ready until the swap-in lands";

    // A second request while the swap-in is in flight just waits;
    // it must not submit another transfer.
    rig.rm.ensureResident(1, [&] { ++ready; });
    EXPECT_EQ(rig.swaps.size(), 2u);

    rig.completeSwaps();
    EXPECT_TRUE(rig.rm.resident(1));
    EXPECT_EQ(ready, 2) << "every waiter runs exactly once";
    EXPECT_EQ(rig.rm.swapIns(), 1u);
    EXPECT_EQ(rig.rm.swapOuts(), 1u);
    EXPECT_DOUBLE_EQ(rig.rm.swapBytes(),
                     static_cast<double>(10 * kMiB));
    EXPECT_EQ(rig.rm.onDevice(), 5 * kMiB);
}

TEST(Residency, PinnedResidentsParkTheRequestUntilRelease)
{
    ResidencyRig rig(8 * kMiB);
    bool pinned = true;
    rig.rm.setPinQuery(
        [&](sim::ContextId ctx) { return ctx == 0 && pinned; });
    rig.rm.registerContext(0, 0, 5 * kMiB);
    rig.rm.registerContext(1, 0, 5 * kMiB);

    bool ready = false;
    rig.rm.ensureResident(1, [&] { ready = true; });
    EXPECT_EQ(rig.rm.parkedRequests(), 1u)
        << "the only victim is pinned: the request must park, not "
           "evict";
    EXPECT_TRUE(rig.swaps.empty());
    EXPECT_TRUE(rig.rm.resident(0));

    // Releasing the pin retries the parked request.
    pinned = false;
    rig.rm.onPinsReleased();
    EXPECT_EQ(rig.rm.parkedRequests(), 0u);
    ASSERT_EQ(rig.swaps.size(), 2u);
    rig.completeSwaps();
    EXPECT_TRUE(ready);
    EXPECT_TRUE(rig.rm.resident(1));
    EXPECT_FALSE(rig.rm.resident(0));
}

TEST(Residency, RemapNotifierFiresWhenAVictimLosesItsDeviceState)
{
    ResidencyRig rig(8 * kMiB);
    std::vector<sim::ContextId> remapped;
    rig.rm.setRemapNotifier(
        [&](sim::ContextId ctx) { remapped.push_back(ctx); });
    rig.rm.registerContext(0, 0, 5 * kMiB);
    rig.rm.registerContext(1, 0, 5 * kMiB);

    rig.rm.ensureResident(1, [] {});
    ASSERT_EQ(remapped.size(), 1u)
        << "exactly the evicted context is remapped";
    EXPECT_EQ(remapped[0], 0);
}

TEST(Residency, CapacityBoundaryIsExact)
{
    // The ledger is byte-granular: footprints that sum to exactly the
    // capacity are co-resident, one byte more is not.
    {
        ResidencyRig rig(1000);
        rig.rm.registerContext(0, 0, 999);
        rig.rm.registerContext(1, 0, 1);
        EXPECT_TRUE(rig.rm.resident(0));
        EXPECT_TRUE(rig.rm.resident(1)) << "exactly full is legal";
        EXPECT_EQ(rig.rm.onDevice(), 1000);
    }
    {
        ResidencyRig rig(1000);
        rig.rm.registerContext(0, 0, 999);
        rig.rm.registerContext(1, 0, 2);
        EXPECT_TRUE(rig.rm.resident(0));
        EXPECT_FALSE(rig.rm.resident(1))
            << "one byte past capacity is admitted swapped out";
        EXPECT_EQ(rig.rm.onDevice(), 999);
        EXPECT_TRUE(rig.swaps.empty());
    }
}

TEST(Residency, CapacityCheckDoesNotOverflow)
{
    // The room check is `bytes > capacity - onDevice`, not
    // `onDevice + bytes > capacity`: the sum form overflows
    // std::int64_t for adversarial capacity/footprint pairs (signed
    // overflow is UB, and with wrapping semantics the oversized
    // context would be admitted resident because the sum goes
    // negative).
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    ResidencyRig rig(kMax - 10);
    rig.rm.registerContext(0, 0, 1000);
    rig.rm.registerContext(1, 0, kMax - 500);
    EXPECT_TRUE(rig.rm.resident(0));
    EXPECT_FALSE(rig.rm.resident(1))
        << "a near-INT64_MAX footprint must not wrap into room";
    EXPECT_EQ(rig.rm.onDevice(), 1000);

    // Evicting the small context makes room without wrapping either.
    rig.rm.ensureResident(1, [] {});
    EXPECT_FALSE(rig.rm.resident(0));
    EXPECT_EQ(rig.rm.onDevice(), kMax - 500);
    rig.completeSwaps();
    EXPECT_TRUE(rig.rm.resident(1));
    EXPECT_EQ(rig.rm.onDevice(), kMax - 500);
}

TEST(Residency, LedgerTracksEveryEvictionAndSwapIn)
{
    // onDevice() must equal the summed footprint of the contexts that
    // hold device memory (resident, or with a swap-in in flight) after
    // every eviction and every swap-in, checked here at each step of
    // a three-context rotation on a device that fits two of them.
    const std::vector<std::int64_t> footprint = {4 * kMiB, 5 * kMiB,
                                                 3 * kMiB};
    ResidencyRig rig(10 * kMiB);
    auto held = [&] {
        std::int64_t sum = 0;
        for (std::size_t c = 0; c < footprint.size(); ++c) {
            const auto ctx = static_cast<sim::ContextId>(c);
            bool swapping_in = false;
            for (const SwapRec &s : rig.swaps)
                swapping_in |= s.ctx == ctx && s.toDevice && s.done;
            if (rig.rm.resident(ctx) || swapping_in)
                sum += footprint[c];
        }
        return sum;
    };
    int evictions = 0;
    rig.rm.setRemapNotifier([&](sim::ContextId) {
        ++evictions;
        EXPECT_EQ(rig.rm.onDevice(), held()) << "inside an eviction";
    });
    for (std::size_t c = 0; c < footprint.size(); ++c)
        rig.rm.registerContext(static_cast<sim::ContextId>(c), 0,
                               footprint[c]);
    EXPECT_EQ(rig.rm.onDevice(), 9 * kMiB) << "contexts 0 and 1 fit";
    EXPECT_EQ(rig.rm.onDevice(), held());

    // Each request evicts the least-recently-used resident context,
    // then swaps the requested one in.
    const std::vector<std::pair<sim::ContextId, std::int64_t>> steps = {
        {2, 8 * kMiB}, // evict 0 (4), bring 2 (3) in next to 1 (5)
        {0, 7 * kMiB}, // evict 1 (5), bring 0 (4) in next to 2 (3)
        {1, 9 * kMiB}, // evict 2 (3), bring 1 (5) in next to 0 (4)
    };
    for (const auto &[ctx, expected] : steps) {
        rig.rm.ensureResident(ctx, [] {});
        EXPECT_EQ(rig.rm.onDevice(), expected) << "swap-in of " << ctx;
        EXPECT_EQ(rig.rm.onDevice(), held()) << "swap-in of " << ctx;
        rig.completeSwaps();
        EXPECT_TRUE(rig.rm.resident(ctx));
        EXPECT_EQ(rig.rm.onDevice(), expected) << "after " << ctx;
        EXPECT_EQ(rig.rm.onDevice(), held()) << "after " << ctx;
    }
    EXPECT_EQ(evictions, 3);
    EXPECT_EQ(rig.rm.swapIns(), 3u);
    EXPECT_EQ(rig.rm.swapOuts(), 3u);
}

TEST(Residency, UnregisteredContextsAreAlwaysResident)
{
    // Contexts without a footprint (tests, driver-internal work)
    // never swap.
    ResidencyRig rig(8 * kMiB);
    EXPECT_TRUE(rig.rm.resident(42));
    bool ready = false;
    rig.rm.ensureResident(42, [&] { ready = true; });
    EXPECT_TRUE(ready);
    EXPECT_TRUE(rig.swaps.empty());
}

namespace {

/** A synthetic app with a large device footprint: 96 MiB of inputs,
 *  32 MiB of outputs, one 52-TB kernel in between. */
const trace::BenchmarkSpec &
bigFootprintSpec()
{
    static const trace::BenchmarkSpec spec = [] {
        trace::BenchmarkSpec s;
        s.name = "swapper";
        s.dataset = "synthetic";
        trace::KernelProfile k;
        k.benchmark = s.name;
        k.kernel = "crunch";
        k.launches = 1;
        k.numThreadBlocks = 52;
        k.timePerTbUs = 20.0;
        k.regsPerTb = 4096;
        k.threadsPerTb = 512;
        s.kernels.push_back(k);
        using Kind = trace::TraceOp::Kind;
        s.ops.push_back({Kind::MemcpyH2D, 0, 96ll << 20, -1, true});
        s.ops.push_back({Kind::KernelLaunch, 0, 0, 0, true});
        s.ops.push_back({Kind::DeviceSync, 0, 0, -1, true});
        s.ops.push_back({Kind::MemcpyD2H, 0, 32ll << 20, -1, true});
        s.validate();
        return s;
    }();
    return spec;
}

} // namespace

TEST(ResidencySystem, OversubscribedProcessesCompleteWithSwaps)
{
    // Two 128 MiB-footprint processes on a 192 MiB device: the seed
    // would have refused this workload outright.  Now exactly one
    // context fits at a time, so every hand-over of the engine swaps
    // the other context in over the PCIe path — and the run still
    // completes.
    sim::Config cfg;
    cfg.set("gmem.capacity", static_cast<std::int64_t>(192) << 20);
    cfg.set("process.scratch_bytes", static_cast<std::int64_t>(0));
    workload::SystemSpec spec;
    spec.customSpecs = {&bigFootprintSpec(), &bigFootprintSpec()};
    spec.minReplays = 2;
    workload::System system(spec, cfg);
    auto result = system.run(sim::seconds(30.0));

    ASSERT_EQ(result.runs.size(), 2u);
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u)
            << "both processes must finish their replays";
    EXPECT_GE(system.residency().swapIns(), 1u);
    EXPECT_GE(system.residency().swapOuts(), 1u);
    EXPECT_EQ(system.residency().parkedRequests(), 0u)
        << "nothing may end the run still waiting for memory";
    // Swap traffic is charged on the transfer path as driver
    // commands, one per swap direction.
    EXPECT_GE(system.framework().contextTransfers(),
              system.residency().swapIns() +
                  system.residency().swapOuts());
}

TEST(ResidencySystem, ResidentWorkloadsNeverSwap)
{
    // The same workload with the default (ample) capacity must not
    // touch the swap path at all.
    sim::Config cfg;
    cfg.set("process.scratch_bytes", static_cast<std::int64_t>(0));
    workload::SystemSpec spec;
    spec.customSpecs = {&bigFootprintSpec(), &bigFootprintSpec()};
    spec.minReplays = 2;
    workload::System system(spec, cfg);
    auto result = system.run(sim::seconds(30.0));

    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(system.residency().swapIns(), 0u);
    EXPECT_EQ(system.residency().swapOuts(), 0u);
    EXPECT_EQ(system.framework().contextTransfers(), 0u)
        << "no driver-originated transfers at defaults";
}

TEST(ResidencySystem, FootprintThatFitsByBytesRuns)
{
    // tpacf's footprint with this scratch size fits the device by
    // bytes but not when rounded up to 64 KiB pages.  Capacity is
    // byte-granular, so the context is admitted resident and the run
    // completes; a page-granular ledger would refuse it.
    sim::Config cfg;
    cfg.set("process.scratch_bytes", static_cast<std::int64_t>(33554433));
    cfg.set("gmem.capacity", static_cast<std::int64_t>(34734081));
    workload::SystemSpec spec;
    spec.benchmarks = {"tpacf"};
    spec.policy = "fcfs";
    spec.minReplays = 1;
    workload::System system(spec, cfg);
    EXPECT_TRUE(system.residency().resident(0));
    auto result = system.run(sim::seconds(30.0));

    ASSERT_EQ(result.runs.size(), 1u);
    EXPECT_EQ(result.runs[0].size(), 1u);
    EXPECT_EQ(result.endTime, 5757588);
    EXPECT_EQ(system.residency().swapIns(), 0u);
}
