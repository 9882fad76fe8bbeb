#include "sim/event.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

namespace {

/** Compaction only pays off once the queue is big enough to matter. */
constexpr std::size_t compactionMinEntries = 64;

/** Initial capacity of the slab and the heap: growing a vector of
 *  live slots relocates every callback, so start big enough that
 *  typical runs never pay it. */
constexpr std::size_t initialCapacity = 128;

} // namespace

EventQueue::EventQueue()
{
    slots_.reserve(initialCapacity);
    heap_.reserve(initialCapacity);
    tree_.assign(2, LaneNode{disarmedKey, disarmedKey, noLane});
}

std::uint32_t
EventQueue::acquireSlot(Callback &&cb)
{
    std::uint32_t slot;
    if (freeHead_ != noSlot) {
        slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
    } else {
        GPUMP_ASSERT(slots_.size() < noSlot, "event slot slab exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].callback = std::move(cb);
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    // Slab-generation sanity: a released slot must be a real slab cell
    // and must not still hold a callback (cancel/step clear it first,
    // so a live callback here means a double release).
    GPUMP_AUDIT(slot < slots_.size(),
                "slot %u released beyond the %zu-cell slab",
                slot, slots_.size());
    GPUMP_AUDIT(slots_[slot].callback == nullptr,
                "slot %u released while its callback is still armed "
                "(double release or missed cancel)", slot);
    slots_[slot].nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::cancelSlot(std::uint32_t slot)
{
    // Invalidate the entry (and all handles) by bumping the
    // generation, and release the captures right away.  The slot is
    // recycled when its dead entry is popped over or compacted out.
    GPUMP_AUDIT(slot < slots_.size(),
                "cancel of slot %u beyond the %zu-cell slab", slot,
                slots_.size());
    GPUMP_AUDIT(slots_[slot].gen != ~0u,
                "slot %u generation counter about to wrap "
                "(stale handles would revalidate)", slot);
    ++slots_[slot].gen;
    slots_[slot].callback = nullptr;
    ++deadEntries_;
    compactIfWorthIt();
}

void
EventQueue::compactIfWorthIt()
{
    // Sweep dead entries once they outnumber the live ones; otherwise
    // a cancelled far-future event would occupy the heap until its
    // timestamp came up, which for workloads that cancel most of what
    // they schedule (preemption-heavy runs) means unbounded growth.
    if (heap_.size() < compactionMinEntries ||
        deadEntries_ * 2 <= heap_.size())
        return;
    auto live_end = std::remove_if(
        heap_.begin(), heap_.end(), [this](const Entry &e) {
            if (!entryDead(e))
                return false;
            releaseSlot(e.slot);
            return true;
        });
    heap_.erase(live_end, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), FiresAfter());
    deadEntries_ = 0;
}

const EventQueue::Entry *
EventQueue::peekFront()
{
    while (!heap_.empty()) {
        const Entry &e = heap_.front();
        if (!entryDead(e))
            return &e;
        releaseSlot(e.slot);
        std::pop_heap(heap_.begin(), heap_.end(), FiresAfter());
        heap_.pop_back();
        --deadEntries_;
    }
    return nullptr;
}

std::uint64_t
EventQueue::packKeyLo(int priority, std::uint64_t seq)
{
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(priority + priorityBias))
            << 48) |
        seq;
}

void
EventQueue::checkKey(SimTime when, std::uint64_t seq, int priority) const
{
    GPUMP_ASSERT(when >= now_,
                 "event scheduled in the past (when=%lld now=%lld)",
                 static_cast<long long>(when), static_cast<long long>(now_));
    GPUMP_ASSERT(priority >= -priorityBias && priority < priorityBias,
                 "event priority %d outside the 16-bit key range",
                 priority);
    GPUMP_ASSERT(seq <= maxSeq, "sequence space exhausted");
}

EventQueue::Handle
EventQueue::schedule(SimTime when, Callback cb, int priority)
{
    std::uint64_t seq = seq_++;
    checkKey(when, seq, priority);
    GPUMP_ASSERT(cb != nullptr, "event scheduled with null callback");

    std::uint32_t slot = acquireSlot(std::move(cb));
    std::uint32_t gen = slots_[slot].gen;
    heap_.push_back(Entry{static_cast<std::uint64_t>(when),
                          packKeyLo(priority, seq), slot, gen});
    std::push_heap(heap_.begin(), heap_.end(), FiresAfter());
    GPUMP_AUDIT(std::is_heap(heap_.begin(), heap_.end(), FiresAfter()),
                "heap property violated after scheduling (when=%lld)",
                static_cast<long long>(when));
    return Handle(this, slot, gen);
}

EventQueue::Handle
EventQueue::scheduleIn(SimTime delay, Callback cb, int priority)
{
    GPUMP_ASSERT(delay >= 0, "negative event delay %lld",
                 static_cast<long long>(delay));
    return schedule(now_ + delay, std::move(cb), priority);
}

EventQueue::LaneId
EventQueue::addLane(Callback cb)
{
    GPUMP_ASSERT(cb != nullptr, "lane registered with null callback");
    GPUMP_ASSERT(laneCallbacks_ == 0,
                 "lane registered from inside a lane callback");
    GPUMP_ASSERT(lanes_.size() < noLane, "lane ids exhausted");
    auto lane = static_cast<LaneId>(lanes_.size());
    lanes_.push_back(Lane{std::move(cb), false});
    if (lanes_.size() > leafBase_) {
        // Double the leaf level, carry the leaves over and rebuild
        // the winners bottom-up.  Registration happens once per lane
        // at setup, so this never runs on the hot path.
        std::size_t base = leafBase_ * 2;
        std::vector<LaneNode> tree(2 * base,
                                   LaneNode{disarmedKey, disarmedKey,
                                            noLane});
        std::copy(tree_.begin() + static_cast<std::ptrdiff_t>(leafBase_),
                  tree_.end(),
                  tree.begin() + static_cast<std::ptrdiff_t>(base));
        tree_ = std::move(tree);
        leafBase_ = base;
        for (std::size_t i = leafBase_ - 1; i >= 1; --i)
            playMatch(i);
    }
    tree_[leafBase_ + lane].lane = lane;
    return lane;
}

void
EventQueue::playMatch(std::size_t node)
{
    const LaneNode &a = tree_[2 * node];
    const LaneNode &b = tree_[2 * node + 1];
    tree_[node] = keyBefore(b.keyHi, b.keyLo, a.keyHi, a.keyLo) ? b : a;
}

void
EventQueue::setLeaf(LaneId lane, std::uint64_t key_hi, std::uint64_t key_lo)
{
    // Carry the path's winner up in registers: each level loads only
    // the sibling (off the dependency chain), keeps the earlier key by
    // a mask rather than a branch, and writes the parent.  Unlike
    // playMatch, a tie keeps the path's own key; only disarmed
    // all-ones keys can tie (armed keys carry unique reserved seqs),
    // and fireNext never reads a disarmed root's lane.
    std::size_t i = leafBase_ + lane;
    LaneNode win{key_hi, key_lo, lane};
    tree_[i] = win;
    for (; i > 1; i >>= 1) {
        const LaneNode &sib = tree_[i ^ 1];
        const std::uint64_t take = 0 -
            std::uint64_t(keyBefore(sib.keyHi, sib.keyLo, win.keyHi,
                                    win.keyLo));
        win.keyHi ^= (win.keyHi ^ sib.keyHi) & take;
        win.keyLo ^= (win.keyLo ^ sib.keyLo) & take;
        win.lane ^= (win.lane ^ sib.lane) & static_cast<LaneId>(take);
        tree_[i >> 1] = win;
    }
}

void
EventQueue::armLane(LaneId lane, SimTime when, std::uint64_t seq,
                    int priority)
{
    GPUMP_ASSERT(lane < lanes_.size(), "arm of unregistered lane %u", lane);
    GPUMP_ASSERT(seq < seq_, "sequence %llu was never reserved",
                 static_cast<unsigned long long>(seq));
    checkKey(when, seq, priority);
    if (!lanes_[lane].armed) {
        lanes_[lane].armed = true;
        ++armedLanes_;
    }
    // Re-arming the lane that just fired overwrites its stale leaf,
    // so this walk is the only one the firing costs.
    if (firedLane_ == lane)
        firedLane_ = noLane;
    setLeaf(lane, static_cast<std::uint64_t>(when), packKeyLo(priority, seq));
}

void
EventQueue::disarmLane(LaneId lane)
{
    GPUMP_ASSERT(lane < lanes_.size(), "disarm of unregistered lane %u",
                 lane);
    // A lane that fired reads as disarmed here; its stale leaf is
    // settled by the next fireNext.
    if (!lanes_[lane].armed)
        return;
    lanes_[lane].armed = false;
    --armedLanes_;
    setLeaf(lane, disarmedKey, disarmedKey);
}

#if GPUMP_AUDIT_ENABLED
void
EventQueue::auditLaneTree() const
{
    // Tournament invariant: the root carries the minimum key over the
    // armed lanes (or the disarmed key when none is), and every
    // disarmed leaf is settled.  O(lanes) per event — audit builds
    // trade throughput for machine-checked structure.
    std::uint64_t hi = disarmedKey;
    std::uint64_t lo = disarmedKey;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        const LaneNode &leaf = tree_[leafBase_ + l];
        if (!lanes_[l].armed) {
            GPUMP_AUDIT(leaf.keyHi == disarmedKey,
                        "disarmed lane %zu still keyed in the lane tree", l);
            continue;
        }
        if (keyBefore(leaf.keyHi, leaf.keyLo, hi, lo)) {
            hi = leaf.keyHi;
            lo = leaf.keyLo;
        }
    }
    GPUMP_AUDIT(tree_[1].keyHi == hi && tree_[1].keyLo == lo,
                "lane tree root (when=%llu) is not the minimum over armed "
                "lanes (when=%llu): tournament corrupt",
                static_cast<unsigned long long>(tree_[1].keyHi),
                static_cast<unsigned long long>(hi));
}
#endif

bool
EventQueue::fireNext(SimTime limit)
{
    // A lane whose callback left it disarmed (or is still running it,
    // for a step nested in a lane callback) still holds the fired key
    // in its leaf; settle it so the root is exact again.
    if (firedLane_ != noLane) {
        setLeaf(firedLane_, disarmedKey, disarmedKey);
        firedLane_ = noLane;
    }
#if GPUMP_AUDIT_ENABLED
    auditLaneTree();
#endif
    const Entry *front = peekFront();
    const LaneNode &root = tree_[1];
    if (front != nullptr &&
        !keyBefore(root.keyHi, root.keyLo, front->keyHi, front->keyLo)) {
        if (front->when() > limit)
            return false;
        const Entry top = *front;
        // The queue's headline guarantee, checked at the moment it
        // could break: events fire in nondecreasing time order.
        GPUMP_AUDIT(top.when() >= now_,
                    "event fires at %lld but time already reached %lld "
                    "(heap order violated)",
                    static_cast<long long>(top.when()),
                    static_cast<long long>(now_));
        GPUMP_AUDIT(slots_[top.slot].callback != nullptr,
                    "front entry's slot %u has no callback "
                    "(generation bookkeeping corrupt)", top.slot);
        // Consume before the callback can mutate the queue.
        std::pop_heap(heap_.begin(), heap_.end(), FiresAfter());
        heap_.pop_back();
        GPUMP_AUDIT(std::is_heap(heap_.begin(), heap_.end(), FiresAfter()),
                    "heap property violated after a pop (%zu entries)",
                    heap_.size());
        now_ = top.when();
        ++slots_[top.slot].gen; // the event is no longer pending
        Callback cb = std::move(slots_[top.slot].callback);
        releaseSlot(top.slot);
        ++executed_;
        cb();
        return true;
    }
    if (root.keyHi == disarmedKey ||
        static_cast<SimTime>(root.keyHi) > limit)
        return false;
    const LaneId lane = root.lane;
    GPUMP_AUDIT(static_cast<SimTime>(root.keyHi) >= now_,
                "lane %u fires at %lld but time already reached %lld",
                lane, static_cast<long long>(root.keyHi),
                static_cast<long long>(now_));
    now_ = static_cast<SimTime>(root.keyHi);
    // Disarm without touching the tree: a callback that re-arms the
    // lane (the common case, one per thread block) repairs the path
    // in its own walk, so the fired lane costs one walk either way.
    lanes_[lane].armed = false;
    --armedLanes_;
    firedLane_ = lane;
    ++executed_;
    ++laneCallbacks_;
    lanes_[lane].callback();
    --laneCallbacks_;
    return true;
}

SimTime
EventQueue::run(SimTime limit)
{
    while (fireNext(limit)) {
    }
    return now_;
}

#if GPUMP_AUDIT_ENABLED
void
EventQueue::auditCorruptFrontKeyForTest()
{
    const Entry *front = peekFront();
    GPUMP_ASSERT(front != nullptr,
                 "no pending entry to corrupt for the audit test");
    // Zeroing the front's key keeps the heap property (it only moves
    // earlier) but puts an event "before" the current time, so the
    // next step() trips the time-order audit.
    heap_.front().keyHi = 0;
}

void
EventQueue::auditCorruptLaneTreeForTest()
{
    GPUMP_ASSERT(armedLanes_ > 0,
                 "no armed lane to corrupt for the audit test");
    // Settle a fired lane now, as the next fireNext would, so the
    // corrupted root survives into the tournament audit.
    if (firedLane_ != noLane) {
        setLeaf(firedLane_, disarmedKey, disarmedKey);
        firedLane_ = noLane;
    }
    tree_[1].keyHi = 0;
}
#endif

} // namespace sim
} // namespace gpump
