/**
 * @file
 * GPU device-memory bandwidth model.
 *
 * This model provides the bandwidth-share arithmetic the
 * context-switch preemption mechanism relies on (Section 3.2 /
 * Table 1: an SM saving its context gets 1/NSMs of the 208 GB/s of
 * global memory bandwidth).  Capacity is enforced elsewhere:
 * memory::ResidencyManager keeps the one ledger of bytes on the
 * device.
 */

#ifndef GPUMP_MEMORY_GPU_MEMORY_HH
#define GPUMP_MEMORY_GPU_MEMORY_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/types.hh"

namespace gpump {
namespace memory {

/** Device-memory parameters (Table 2 / K20c defaults). */
struct GpuMemoryParams
{
    /** Global memory bandwidth in bytes/second (Table 2: 208 GB/s). */
    double bandwidth = 208e9;
    /** Physical capacity in bytes (K20c: 5 GB). */
    std::int64_t capacity = 5ll * 1000 * 1000 * 1000;
    /** When set, context save/restore bytes travel as first-class
     *  transfer commands on the transfer engine (contending with the
     *  workload's own DMA traffic) instead of being charged the
     *  contention-free bandwidth-share time below.  Off by default:
     *  the share model is what Table 1 validates. */
    bool contendedSwitch = false;

    /** Build from config keys "gmem.*". */
    static GpuMemoryParams fromConfig(const sim::Config &cfg);
};

/** Answers bandwidth-share timing queries. */
class GpuMemory
{
  public:
    explicit GpuMemory(const GpuMemoryParams &params) : params_(params) {}

    const GpuMemoryParams &params() const { return params_; }

    /**
     * The bandwidth one of @p shares equal consumers observes.
     * Used for context save/restore: an SM gets BW / NSMs.
     * @pre shares > 0
     */
    double bandwidthShare(int shares) const;

    /**
     * Time to move @p bytes at a 1/@p shares bandwidth share.
     * This is exactly the "Save Time" model validated against Table 1.
     * @pre bytes >= 0 (zero-byte moves take zero time, matching the
     *      zero-burst case of the PCIe path less its setup latency)
     */
    sim::SimTime moveTime(std::int64_t bytes, int shares) const;

  private:
    GpuMemoryParams params_;
};

} // namespace memory
} // namespace gpump

#endif // GPUMP_MEMORY_GPU_MEMORY_HH
