#include "memory/page_table.hh"

#include <vector>

#include "sim/logging.hh"

namespace gpump {
namespace memory {

FrameAllocator::FrameAllocator(std::uint64_t frames)
    : totalFrames_(frames)
{
    GPUMP_ASSERT(frames > 0, "frame allocator with zero frames");
}

std::optional<PhysAddr>
FrameAllocator::allocate()
{
    if (!freeList_.empty()) {
        PhysAddr f = freeList_.front();
        freeList_.pop_front();
        freeSet_.erase(f);
        return f;
    }
    if (nextNever_ < totalFrames_)
        return (nextNever_++) * gpuPageBytes;
    return std::nullopt;
}

void
FrameAllocator::release(PhysAddr frame_base)
{
    GPUMP_ASSERT(frame_base % gpuPageBytes == 0,
                 "release of unaligned frame");
    GPUMP_ASSERT(frame_base / gpuPageBytes < nextNever_,
                 "release of frame %llu never allocated",
                 static_cast<unsigned long long>(frame_base));
    bool newly_freed = freeSet_.insert(frame_base).second;
    GPUMP_ASSERT(newly_freed, "double release of frame %llu",
                 static_cast<unsigned long long>(frame_base));
    freeList_.push_back(frame_base);
}

std::uint64_t
FrameAllocator::freeFrames() const
{
    return (totalFrames_ - nextNever_) + freeList_.size();
}

PageTable::~PageTable()
{
    for (const auto &kv : entries_)
        frames_->release(kv.second);
}

bool
PageTable::map(VirtAddr base, std::uint64_t bytes)
{
    if (bytes == 0)
        return true;
    std::uint64_t first = base / gpuPageBytes;
    std::uint64_t last = (base + bytes - 1) / gpuPageBytes;

    std::vector<std::pair<std::uint64_t, PhysAddr>> staged;
    staged.reserve(static_cast<std::size_t>(last - first + 1));
    for (std::uint64_t vp = first; vp <= last; ++vp) {
        if (entries_.count(vp))
            continue; // already mapped; keep existing frame
        auto frame = frames_->allocate();
        if (!frame) {
            // Roll back so a failed map leaves no partial state.
            for (const auto &kv : staged)
                frames_->release(kv.second);
            return false;
        }
        staged.emplace_back(vp, *frame);
    }
    for (const auto &kv : staged)
        entries_.emplace(kv.first, kv.second);
    return true;
}

void
PageTable::unmap(VirtAddr base, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    std::uint64_t first = base / gpuPageBytes;
    std::uint64_t last = (base + bytes - 1) / gpuPageBytes;
    for (std::uint64_t vp = first; vp <= last; ++vp) {
        auto it = entries_.find(vp);
        if (it == entries_.end())
            continue;
        frames_->release(it->second);
        entries_.erase(it);
    }
}

std::optional<PhysAddr>
PageTable::translate(VirtAddr va) const
{
    auto it = entries_.find(va / gpuPageBytes);
    if (it == entries_.end())
        return std::nullopt;
    return it->second + va % gpuPageBytes;
}

} // namespace memory
} // namespace gpump
