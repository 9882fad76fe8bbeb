/**
 * @file
 * The driver's global operator new: allocation counts for the traced
 * run and per-thread heap high-water marks for the memory metric.
 *
 * The driver replaces ::operator new so both can be measured without
 * touching the library.  All accounting is off by default, and then
 * operator new and delete are malloc and free behind one relaxed
 * load, so the timed sweeps run on a plain allocator.  setTracking()
 * turns it on for the memory sweep and the traced run:
 *  - counting is per thread: only code between beginAllocationCount()
 *    and endAllocationCount() on the calling thread is counted, which
 *    the traced run wraps around System::run alone;
 *  - every thread tracks the bytes it allocated minus the bytes it
 *    freed, and the highest value any thread reached since
 *    resetHeapPeak() is kept.  A pool thread builds, runs and destroys
 *    each System itself, so that high-water mark is the footprint of
 *    the largest request, whichever requests the pool happened to run
 *    side by side.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

/** Turn allocation counting and heap accounting on or off for every
 *  thread. */
void setTracking(bool on);

/** Start counting this thread's allocations from zero. */
void beginAllocationCount();

/** Stop counting and return the allocations made since
 *  beginAllocationCount() on this thread. */
std::uint64_t endAllocationCount();

/** Restart the heap high-water mark from the calling thread's current
 *  live bytes (threads started later begin at zero). */
void resetHeapPeak();

/** Highest live heap bytes one thread held since resetHeapPeak(). */
std::int64_t heapPeakBytes();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
