/** Unit tests for the discrete-event core. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"

using namespace gpump;
using sim::EventQueue;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTimeOrderedByPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(3); }, sim::prioDefault);
    q.schedule(5, [&] { order.push_back(1); }, sim::prioCompletion);
    q.schedule(5, [&] { order.push_back(4); }, sim::prioDefault);
    q.schedule(5, [&] { order.push_back(2); }, sim::prioDriver);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, NowAdvancesDuringExecution)
{
    EventQueue q;
    sim::SimTime seen = -1;
    q.schedule(42, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_THROW(q.schedule(5, [] {}), sim::PanicError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(h.pending());
    EXPECT_TRUE(h.cancel());
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel()) << "double cancel must report failure";
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelMaintainsPendingCount)
{
    EventQueue q;
    auto h1 = q.schedule(10, [] {});
    auto h2 = q.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    h1.cancel();
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    (void)h2;
}

TEST(EventQueue, CancelledHeadDoesNotAdvanceTime)
{
    EventQueue q;
    auto h = q.schedule(10, [] {});
    q.schedule(20, [] {});
    h.cancel();
    q.run();
    EXPECT_EQ(q.now(), 20);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    q.run(20);
    EXPECT_EQ(count, 2) << "events at the limit must run";
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<sim::SimTime> times;
    q.schedule(10, [&] {
        times.push_back(q.now());
        q.scheduleIn(5, [&] { times.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<sim::SimTime>{10, 15}));
}

TEST(EventQueue, ScheduleInUsesCurrentTime)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    sim::SimTime fired = 0;
    q.scheduleIn(7, [&] { fired = q.now(); });
    q.run();
    EXPECT_EQ(fired, 107);
}

TEST(EventQueue, HandleOutlivesExecution)
{
    EventQueue q;
    auto h = q.schedule(1, [] {});
    q.run();
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    sim::SimTime last = -1;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        // Deterministic scattered times with collisions.
        sim::SimTime t = (i * 7919) % 1000;
        q.schedule(t, [&, t] {
            if (q.now() < last)
                monotone = false;
            last = q.now();
        });
    }
    q.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(q.executed(), 10000u);
}

TEST(EventQueue, NullCallbackPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventQueue::Callback()), sim::PanicError);
}

TEST(EventQueue, NegativeDelayPanics)
{
    EventQueue q;
    EXPECT_THROW(q.scheduleIn(-1, [] {}), sim::PanicError);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    EventQueue q;
    auto h1 = q.schedule(10, [] {});
    q.run(); // h1's slot is recycled
    bool ran = false;
    auto h2 = q.schedule(20, [&] { ran = true; });
    // h1 now points at a reused slot; the generation counter must
    // keep it from observing or cancelling h2's event.
    EXPECT_FALSE(h1.pending());
    EXPECT_FALSE(h1.cancel());
    EXPECT_TRUE(h2.pending());
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelledSlotReuseKeepsOldHandleInert)
{
    EventQueue q;
    auto h1 = q.schedule(10, [] {});
    h1.cancel();
    int fired = 0;
    // Schedule/cancel/run enough times that h1's slot is certainly
    // recycled several times over.
    for (int i = 0; i < 20; ++i) {
        q.schedule(10 + i, [&] { ++fired; });
        EXPECT_FALSE(h1.pending());
        EXPECT_FALSE(h1.cancel());
    }
    q.run();
    EXPECT_EQ(fired, 20);
}

TEST(EventQueue, SlotsAreRecycledInSteadyState)
{
    EventQueue q;
    // Never more than one event in flight: the slab must not grow
    // beyond its peak concurrency no matter how many events run.
    for (int i = 0; i < 1000; ++i)
        q.schedule(i, [] {});
    q.run();
    std::size_t peak = q.slotsAllocated();
    for (int i = 0; i < 1000; ++i) {
        q.scheduleIn(1, [] {});
        q.run();
    }
    EXPECT_EQ(q.slotsAllocated(), peak)
        << "slots leaked instead of recycling through the free list";
}

TEST(EventQueue, MassCancellationCompactsTheHeap)
{
    EventQueue q;
    std::vector<EventQueue::Handle> handles;
    const std::size_t n = 1000;
    for (std::size_t i = 0; i < n; ++i) {
        handles.push_back(
            q.schedule(static_cast<sim::SimTime>(1000000 + i), [] {}));
    }
    EXPECT_EQ(q.heapEntries(), n);
    // Cancel all but the last: dead entries must not accumulate until
    // popped (they used to sit in the heap until their far-future
    // timestamps came up).
    for (std::size_t i = 0; i + 1 < n; ++i)
        handles[i].cancel();
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_LT(q.heapEntries(), 64u)
        << "cancelled far-future entries were not compacted away";
    bool ran = false;
    q.schedule(2000000, [&] { ran = true; }); // behind every cancelled one
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, LargeCapturesFallBackTransparently)
{
    EventQueue q;
    // A capture bigger than the inline buffer must still work (heap
    // fallback path of EventCallback).
    struct Big
    {
        char bytes[128];
    } big = {};
    big.bytes[0] = 42;
    char seen = 0;
    q.schedule(1, [big, &seen] { seen = big.bytes[0]; });
    static_assert(sizeof(Big) > sim::EventCallback::inlineBytes,
                  "capture intended to exceed the inline buffer");
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ReservedSequencesBreakTiesInReservationOrder)
{
    EventQueue q;
    std::vector<int> order;
    // Reserve two sequence numbers, then arm lanes with them in
    // reverse order: ties at equal (time, priority) must fire in
    // reservation order, not arming order, and ahead of a general
    // event scheduled afterwards.
    EventQueue::LaneId l1 = q.addLane([&] { order.push_back(1); });
    EventQueue::LaneId l2 = q.addLane([&] { order.push_back(2); });
    std::uint64_t s1 = q.reserveSeq();
    std::uint64_t s2 = q.reserveSeq();
    q.armLane(l2, 5, s2, sim::prioCompletion);
    q.armLane(l1, 5, s1, sim::prioCompletion);
    q.schedule(5, [&] { order.push_back(3); }, sim::prioCompletion);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, GeneralEventBeatsLaneWithLaterSequence)
{
    EventQueue q;
    std::vector<int> order;
    EventQueue::LaneId lane = q.addLane([&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(0); }, sim::prioCompletion);
    q.armLane(lane, 5, q.reserveSeq(), sim::prioCompletion);
    // A lower priority value wins over an earlier sequence.
    q.schedule(5, [&] { order.push_back(-1); }, -1);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(EventQueue, LaneFiresOnceAndReadsDisarmedInItsCallback)
{
    EventQueue q;
    int fired = 0;
    bool armed_inside = true;
    EventQueue::LaneId lane = 0;
    lane = q.addLane([&] {
        ++fired;
        armed_inside = q.laneArmed(lane);
    });
    EXPECT_FALSE(q.laneArmed(lane));
    EXPECT_TRUE(q.empty());
    q.armLane(lane, 7, q.reserveSeq());
    EXPECT_TRUE(q.laneArmed(lane));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.heapEntries(), 0u) << "a lane must not use the heap";
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(armed_inside);
    EXPECT_FALSE(q.laneArmed(lane));
    EXPECT_EQ(q.now(), 7);
    EXPECT_EQ(q.executed(), 1u) << "lane firings count as events";
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, LaneReArmedInsideItsCallbackKeepsFiring)
{
    EventQueue q;
    std::vector<sim::SimTime> times;
    EventQueue::LaneId lane = 0;
    lane = q.addLane([&] {
        times.push_back(q.now());
        if (times.size() < 4) {
            q.armLane(lane, q.now() + 10, q.reserveSeq());
            EXPECT_TRUE(q.laneArmed(lane));
        }
    });
    q.armLane(lane, 10, q.reserveSeq());
    q.run();
    EXPECT_EQ(times, (std::vector<sim::SimTime>{10, 20, 30, 40}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DisarmedAndReKeyedLanes)
{
    EventQueue q;
    std::vector<int> order;
    EventQueue::LaneId a = q.addLane([&] { order.push_back(0); });
    EventQueue::LaneId b = q.addLane([&] { order.push_back(1); });
    q.armLane(a, 10, q.reserveSeq());
    q.armLane(b, 20, q.reserveSeq());
    q.disarmLane(a);
    q.disarmLane(a); // disarming a disarmed lane is a no-op
    EXPECT_EQ(q.pending(), 1u);
    q.armLane(b, 5, q.reserveSeq()); // re-key an armed lane earlier
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 5);
}

TEST(EventQueue, RunHonoursLaneLimit)
{
    EventQueue q;
    int fired = 0;
    EventQueue::LaneId lane = q.addLane([&] { ++fired; });
    q.armLane(lane, 30, q.reserveSeq());
    q.schedule(10, [] {});
    EXPECT_EQ(q.run(29), 10);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.laneArmed(lane));
    EXPECT_EQ(q.run(30), 30) << "a lane exactly at the limit must run";
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, LaneMisusePanics)
{
    EventQueue q;
    EventQueue::LaneId lane = q.addLane([] {});
    EXPECT_THROW(q.addLane(EventQueue::Callback()), sim::PanicError);
    EXPECT_THROW(q.armLane(lane, 5, 0), sim::PanicError)
        << "sequence 0 was never reserved";
    q.schedule(10, [] {});
    q.run();
    EXPECT_THROW(q.armLane(lane, 5, q.reserveSeq()), sim::PanicError)
        << "armed in the past";
    EXPECT_THROW(q.armLane(lane + 1, 20, q.reserveSeq()), sim::PanicError);
}

namespace {

/**
 * Naive reference model of the queue: every live general event and
 * armed lane in a flat list, the next one found by a linear scan for
 * the smallest (time, priority, seq).  Callbacks check at fire time
 * that they are the model's next event, then mutate the queue and
 * the model in lockstep, so step() and run() are checked alike.
 */
class ReferenceModel
{
  public:
    ReferenceModel(std::size_t num_lanes, std::uint64_t seed)
        : lcg_(seed)
    {
        for (std::size_t l = 0; l < num_lanes; ++l) {
            auto lane = static_cast<EventQueue::LaneId>(l);
            EXPECT_EQ(q_.addLane([this, lane] { onLane(lane); }), lane);
            lanes_.push_back({false, 0, 0, 0});
        }
    }

    /** Random top-level operations interleaved with steps and runs. */
    void play(int ops)
    {
        for (int op = 0; op < ops && !::testing::Test::HasFailure();
             ++op) {
            std::uint64_t what = rnd(20);
            if (what < 6) {
                scheduleGeneral(static_cast<sim::SimTime>(rnd(50)));
            } else if (what < 9 && !lanes_.empty()) {
                armLane(pickLane(), static_cast<sim::SimTime>(rnd(50)));
            } else if (what < 10 && !lanes_.empty()) {
                disarmLane(pickLane());
            } else if (what < 12) {
                cancelGeneral();
            } else if (what < 18) {
                std::size_t before = fired_;
                bool due = !idle();
                EXPECT_EQ(q_.step(), due);
                EXPECT_EQ(fired_, before + (due ? 1 : 0));
            } else {
                sim::SimTime limit =
                    q_.now() + static_cast<sim::SimTime>(rnd(30));
                sim::SimTime reached = q_.run(limit);
                EXPECT_EQ(reached, q_.now());
                EXPECT_LE(reached, limit);
                const Key *next = modelNext();
                EXPECT_TRUE(next == nullptr || next->when > limit)
                    << "run(limit) stopped before a due event";
            }
            ASSERT_EQ(q_.pending(), alive());
            ASSERT_EQ(q_.empty(), alive() == 0);
            for (std::size_t l = 0; l < lanes_.size(); ++l) {
                ASSERT_EQ(q_.laneArmed(static_cast<EventQueue::LaneId>(l)),
                          lanes_[l].armed);
            }
        }
        // Drain; the tail must also fire in model order.
        while (!idle() && !::testing::Test::HasFailure())
            ASSERT_TRUE(q_.step());
        EXPECT_FALSE(q_.step());
        EXPECT_TRUE(q_.empty());
        EXPECT_EQ(q_.executed(), fired_);
    }

    std::size_t lanesFired() const { return lanesFired_; }
    std::size_t laneTiesWithGeneral() const { return laneTies_; }

  private:
    /** A model event's firing key; armed == liveness. */
    struct Key
    {
        bool armed;
        sim::SimTime when;
        int priority;
        std::uint64_t seq;
    };

    static bool before(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    std::uint64_t rnd(std::uint64_t mod)
    {
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg_ >> 33) % mod;
    }

    int pickPriority()
    {
        const int prios[] = {sim::prioCompletion, sim::prioDriver,
                             sim::prioPolicy, sim::prioDefault};
        return prios[rnd(sizeof(prios) / sizeof(prios[0]))];
    }

    EventQueue::LaneId pickLane()
    {
        return static_cast<EventQueue::LaneId>(rnd(lanes_.size()));
    }

    const Key *modelNext() const
    {
        const Key *best = nullptr;
        for (const Key &k : general_)
            if (k.armed && (best == nullptr || before(k, *best)))
                best = &k;
        for (const Key &k : lanes_)
            if (k.armed && (best == nullptr || before(k, *best)))
                best = &k;
        return best;
    }

    std::size_t alive() const
    {
        std::size_t n = 0;
        for (const Key &k : general_)
            n += k.armed ? 1 : 0;
        for (const Key &k : lanes_)
            n += k.armed ? 1 : 0;
        return n;
    }

    bool idle() const { return modelNext() == nullptr; }

    void scheduleGeneral(sim::SimTime delay)
    {
        int priority = pickPriority();
        std::size_t id = general_.size();
        sim::SimTime when = q_.now() + delay;
        handles_.push_back(
            q_.schedule(when, [this, id] { onGeneral(id); }, priority));
        general_.push_back({true, when, priority, seq_++});
    }

    void armLane(EventQueue::LaneId lane, sim::SimTime delay)
    {
        Key k{true, q_.now() + delay, pickPriority(), q_.reserveSeq()};
        ASSERT_EQ(k.seq, seq_++);
        q_.armLane(lane, k.when, k.seq, k.priority);
        lanes_[lane] = k;
    }

    void disarmLane(EventQueue::LaneId lane)
    {
        q_.disarmLane(lane);
        lanes_[lane].armed = false;
    }

    void cancelGeneral()
    {
        if (general_.empty())
            return;
        std::size_t pick = rnd(general_.size());
        EXPECT_EQ(handles_[pick].cancel(), general_[pick].armed);
        EXPECT_FALSE(handles_[pick].pending());
        general_[pick].armed = false;
    }

    /** Check that @p self is the model's next event and consume it. */
    void fire(Key &self)
    {
        const Key *next = modelNext();
        ASSERT_EQ(next, &self) << "fired out of (time, priority, seq) order";
        EXPECT_EQ(q_.now(), self.when);
        self.armed = false;
        ++fired_;
        EXPECT_EQ(q_.pending(), alive());
    }

    /** What a callback does besides recording itself: the cascades a
     *  completion triggers in the simulator. */
    void react()
    {
        std::uint64_t what = rnd(10);
        if (what < 2) {
            scheduleGeneral(static_cast<sim::SimTime>(rnd(3)));
        } else if (what < 4 && !lanes_.empty()) {
            armLane(pickLane(), static_cast<sim::SimTime>(rnd(5)));
        } else if (what < 5 && !lanes_.empty()) {
            disarmLane(pickLane());
        } else if (what < 6) {
            cancelGeneral();
        }
    }

    void onGeneral(std::size_t id)
    {
        fire(general_[id]);
        react();
    }

    void onLane(EventQueue::LaneId lane)
    {
        fire(lanes_[lane]);
        ++lanesFired_;
        // A general event still due at this instant ties the lane on
        // time, the case the merge must get exactly right; count them
        // so the test can prove it exercised them.
        for (const Key &k : general_)
            laneTies_ += (k.armed && k.when == q_.now()) ? 1 : 0;
        EXPECT_FALSE(q_.laneArmed(lane))
            << "a lane must read disarmed inside its own callback";
        if (rnd(2) == 0) {
            armLane(lane, static_cast<sim::SimTime>(rnd(20)));
            EXPECT_TRUE(q_.laneArmed(lane));
        }
        react();
    }

    EventQueue q_;
    std::uint64_t lcg_;
    std::uint64_t seq_ = 0; // mirrors the queue's counter
    std::vector<Key> general_;
    std::vector<EventQueue::Handle> handles_;
    std::vector<Key> lanes_;
    std::size_t fired_ = 0;
    std::size_t lanesFired_ = 0;
    std::size_t laneTies_ = 0;
};

} // namespace

/**
 * Randomized property test: arbitrary schedule/cancel/step/run
 * interleavings must fire exactly the events a naive reference model
 * predicts, in exactly the model's (time, priority, seq) order.
 */
TEST(EventQueueProperty, RandomInterleavingsMatchReferenceModel)
{
    for (std::uint64_t round = 0; round < 25; ++round) {
        ReferenceModel model(0, 0x9e3779b97f4a7c15ull + round);
        model.play(400);
    }
}

/** The same with lanes, at tree sizes that are a power of two (1, and
 *  2: a single match), padded (3: one disarmed pad leaf beside a lane;
 *  13 SMs of the paper's GPU) and large (132, H100-class).  The small
 *  shapes are where the leaf-to-root walk's tie rule (a tie keeps the
 *  walking path's key) meets disarmed and pad leaves. */
TEST(EventQueueProperty, LanesMatchReferenceModel)
{
    for (std::size_t lanes : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{13},
                              std::size_t{132}}) {
        std::size_t fired = 0, ties = 0;
        for (std::uint64_t round = 0; round < 10; ++round) {
            ReferenceModel model(lanes, 0x2545f4914f6cdd1dull * (round + 1));
            model.play(1000);
            fired += model.lanesFired();
            ties += model.laneTiesWithGeneral();
        }
        EXPECT_GT(fired, 500u) << lanes << " lanes";
        EXPECT_GT(ties, 0u) << lanes << " lanes never tied a general event";
    }
}
