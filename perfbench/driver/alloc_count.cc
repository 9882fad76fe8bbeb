#include "alloc_count.hh"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> gTracking{false};
thread_local bool tCounting = false;
thread_local std::uint64_t tCount = 0;
/** Bytes this thread allocated minus bytes it freed (negative when it
 *  frees blocks another thread allocated). */
thread_local std::int64_t tLive = 0;
thread_local std::int64_t tPeak = 0;
std::atomic<std::int64_t> gPeak{0};

void *
allocate(std::size_t n)
{
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    if (!gTracking.load(std::memory_order_relaxed))
        return p;
    if (tCounting)
        ++tCount;
    tLive += static_cast<std::int64_t>(malloc_usable_size(p));
    if (tLive > tPeak) {
        tPeak = tLive;
        std::int64_t seen = gPeak.load(std::memory_order_relaxed);
        while (tPeak > seen &&
               !gPeak.compare_exchange_weak(seen, tPeak,
                                            std::memory_order_relaxed)) {
        }
    }
    return p;
}

void
release(void *p) noexcept
{
    if (p == nullptr)
        return;
    if (gTracking.load(std::memory_order_relaxed))
        tLive -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}

} // namespace

namespace perfbench {

void
setTracking(bool on)
{
    gTracking.store(on, std::memory_order_relaxed);
}

void
beginAllocationCount()
{
    tCount = 0;
    tCounting = true;
}

std::uint64_t
endAllocationCount()
{
    tCounting = false;
    return tCount;
}

void
resetHeapPeak()
{
    tPeak = tLive;
    gPeak.store(tLive, std::memory_order_relaxed);
}

std::int64_t
heapPeakBytes()
{
    return gPeak.load(std::memory_order_relaxed);
}

} // namespace perfbench

void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
