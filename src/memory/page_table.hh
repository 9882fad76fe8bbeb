/**
 * @file
 * Per-context page tables.
 *
 * Section 3.1 of the paper extends each SM with a base page table
 * register so that SMs running kernels from different contexts can
 * translate through different address spaces (the baseline shared one
 * page table across the whole engine).  The memory hierarchy below
 * the private levels uses physical addresses, so no further changes
 * are needed.
 *
 * The functional model here provides a frame allocator and a
 * per-context page table (map/translate).
 */

#ifndef GPUMP_MEMORY_PAGE_TABLE_HH
#define GPUMP_MEMORY_PAGE_TABLE_HH

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "sim/types.hh"

namespace gpump {
namespace memory {

/** Virtual / physical addresses in the GPU address spaces. */
using VirtAddr = std::uint64_t;
using PhysAddr = std::uint64_t;

/** Page size used by the GPU MMU (64 KB, typical for GPUs). */
constexpr std::uint64_t gpuPageBytes = 64 * 1024;

/** Hands out physical frames; shared by all contexts on one device. */
class FrameAllocator
{
  public:
    /** @param frames total number of physical frames. */
    explicit FrameAllocator(std::uint64_t frames);

    /** Allocate one frame; std::nullopt when physical memory is full. */
    std::optional<PhysAddr> allocate();

    /** Return a frame to the pool.  Panics on an unaligned address, a
     *  frame this allocator never handed out, or a double free — all
     *  of which would silently corrupt the free pool. */
    void release(PhysAddr frame_base);

    std::uint64_t freeFrames() const;
    std::uint64_t totalFrames() const { return totalFrames_; }

  private:
    std::uint64_t totalFrames_;
    std::uint64_t nextNever_ = 0;       ///< frames never handed out yet
    std::list<PhysAddr> freeList_;      ///< recycled frames (FIFO)
    /** Membership mirror of freeList_: release() must reject frames
     *  already free in O(1) without disturbing the FIFO recycling
     *  order allocate() hands frames back in. */
    std::unordered_set<PhysAddr> freeSet_;
};

/** One context's page table.  Walks are functional. */
class PageTable
{
  public:
    explicit PageTable(FrameAllocator &frames) : frames_(&frames) {}
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Map @p bytes of virtual space starting at @p base.
     * @return false when physical frames are exhausted (no swap-out
     *         exists on this hardware), in which case nothing is
     *         mapped.
     */
    bool map(VirtAddr base, std::uint64_t bytes);

    /** Unmap a previously mapped range (page granular). */
    void unmap(VirtAddr base, std::uint64_t bytes);

    /** Translate; std::nullopt on unmapped access. */
    std::optional<PhysAddr> translate(VirtAddr va) const;

    std::size_t mappedPages() const { return entries_.size(); }

  private:
    FrameAllocator *frames_;
    std::unordered_map<std::uint64_t, PhysAddr> entries_; ///< vpage -> frame
};

} // namespace memory
} // namespace gpump

#endif // GPUMP_MEMORY_PAGE_TABLE_HH
