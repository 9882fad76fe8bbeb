#include "memory/gpu_memory.hh"

#include "sim/logging.hh"

namespace gpump {
namespace memory {

GpuMemoryParams
GpuMemoryParams::fromConfig(const sim::Config &cfg)
{
    GpuMemoryParams p;
    p.bandwidth = cfg.getDouble("gmem.bandwidth", p.bandwidth);
    p.capacity = cfg.getInt("gmem.capacity", p.capacity);
    p.contendedSwitch =
        cfg.getBool("gmem.contended_switch", p.contendedSwitch);
    if (p.bandwidth <= 0 || p.capacity <= 0)
        sim::fatal("invalid GPU memory parameters");
    return p;
}

double
GpuMemory::bandwidthShare(int shares) const
{
    GPUMP_ASSERT(shares > 0, "bandwidth share of %d consumers", shares);
    return params_.bandwidth / static_cast<double>(shares);
}

sim::SimTime
GpuMemory::moveTime(std::int64_t bytes, int shares) const
{
    GPUMP_ASSERT(bytes >= 0, "moveTime of %lld bytes",
                 static_cast<long long>(bytes));
    return sim::transferTime(static_cast<double>(bytes),
                             bandwidthShare(shares));
}

} // namespace memory
} // namespace gpump
