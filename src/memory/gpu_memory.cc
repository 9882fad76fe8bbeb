#include "memory/gpu_memory.hh"

#include "sim/logging.hh"

namespace gpump {
namespace memory {

[[maybe_unused]] const bool declared = sim::declareKeys({
    {"gmem.bandwidth", sim::TunableType::Double, "",
     "global memory bandwidth, bytes/s", sim::above(0)},
    {"gmem.capacity", sim::TunableType::Int, "", "device memory, bytes",
     sim::atLeast(1, sim::maxBytes)},
    {"gmem.contended_switch", sim::TunableType::Bool, "",
     "context save/restore as transfer commands", {}},
});

GpuMemoryParams
GpuMemoryParams::fromConfig(const sim::Config &cfg)
{
    GpuMemoryParams p;
    p.bandwidth = cfg.getDouble("gmem.bandwidth", p.bandwidth);
    p.capacity = cfg.getInt("gmem.capacity", p.capacity);
    p.contendedSwitch =
        cfg.getBool("gmem.contended_switch", p.contendedSwitch);
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
