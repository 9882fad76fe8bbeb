/**
 * Queue memory is O(live events), and the event core's hot path
 * performs no heap allocation.
 *
 * This binary replaces the global operator new with a counting one
 * that counts only inside an explicit window, so gtest's own
 * allocations stay out of the tally.  The workload is the
 * simulator's steady state in miniature: self-rescheduling general
 * events (setup/driver chains) and self-re-arming lanes (per-SM
 * completion timelines), optionally leaving a cancelled timer behind
 * per firing.  After a warm-up that reaches every container's peak,
 * a million more events must not allocate at all.  A queue whose
 * memory grew with the number of events fired (a consumed prefix
 * that is never released) keeps reallocating and fails here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/event.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace gpump;
using sim::EventQueue;

namespace {

constexpr int kChains = 13;

/** Allocations made while @p body runs. */
template <typename F>
std::uint64_t
allocationsDuring(F &&body)
{
    allocations.store(0);
    counting.store(true);
    body();
    counting.store(false);
    return allocations.load();
}

/** A general event that reschedules itself with a fixed period; a
 *  negative period also leaves one cancelled far-future timer behind
 *  per firing. */
struct Chain
{
    EventQueue *q;
    std::int64_t period;

    void operator()() const
    {
        std::int64_t delay = period < 0 ? -period : period;
        q->scheduleIn(delay, Chain{q, period}, sim::prioDriver);
        if (period < 0)
            q->scheduleIn(1000 * delay, [] {}).cancel();
    }
};

/** Steady-state allocations of 13 general chains (periods scaled by
 *  @p sign) and 13 self-re-arming lanes over a million events. */
void
expectAllocationFree(std::int64_t sign)
{
    EventQueue q;
    for (int i = 0; i < kChains; ++i) {
        // Lane i re-arms itself every 7 + i ticks, like an SM whose
        // next resident block completes.
        auto period = static_cast<std::int64_t>(7 + i);
        auto lane = static_cast<EventQueue::LaneId>(i);
        EXPECT_EQ(q.addLane([&q, lane, period] {
            q.armLane(lane, q.now() + period, q.reserveSeq(),
                      sim::prioCompletion);
        }), lane);
    }
    for (int i = 0; i < kChains; ++i) {
        q.armLane(static_cast<EventQueue::LaneId>(i), i, q.reserveSeq(),
                  sim::prioCompletion);
        q.schedule(i, Chain{&q, sign * (5 + 2 * i)}, sim::prioDriver);
    }

    // Warm-up: every container reaches its steady-state peak.
    for (int i = 0; i < 200000; ++i)
        ASSERT_TRUE(q.step());
    const std::size_t slots = q.slotsAllocated();
    const std::uint64_t before = q.executed();

    std::uint64_t n = allocationsDuring([&q] {
        for (int i = 0; i < 1000000; ++i)
            q.step();
    });
    EXPECT_EQ(q.executed() - before, 1000000u);
    EXPECT_EQ(n, 0u) << "the event core allocated on its hot path";
    EXPECT_EQ(q.slotsAllocated(), slots);
    EXPECT_EQ(q.pending(), static_cast<std::size_t>(2 * kChains));
    // Dead timers are swept in bounded batches.
    EXPECT_LE(q.heapEntries(), 128u);
}

} // namespace

TEST(QueueMemory, CountingAllocatorSeesAllocations)
{
    // Guard against a vacuous pass: the window must see a real
    // allocation.
    std::uint64_t n = allocationsDuring([] {
        auto *v = new std::vector<int>(16);
        delete v;
    });
    EXPECT_GE(n, 2u);
}

TEST(QueueMemory, SteadyStateIsAllocationFree)
{
    expectAllocationFree(1);
}

TEST(QueueMemory, CancelledTimersAreSweptWithoutAllocating)
{
    expectAllocationFree(-1);
}
