#include "workload/host_cpu.hh"

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace gpump {
namespace workload {

// The caps keep hwThreads(), their product, inside an int.
[[maybe_unused]] const bool declared = sim::declareKeys({
    {"cpu.cores", sim::TunableType::Int, "", "cores", sim::atLeast(1, 4096)},
    {"cpu.threads_per_core", sim::TunableType::Int, "",
     "hardware threads per core", sim::atLeast(1, 4096)},
    {"cpu.clock_ghz", sim::TunableType::Double, "", "clock, GHz",
     sim::above(0)},
    {"cpu.model_contention", sim::TunableType::Bool, "",
     "stretch CPU phases when runnable threads exceed hardware threads", {}},
});

CpuParams
CpuParams::fromConfig(const sim::Config &cfg)
{
    CpuParams p;
    p.cores = static_cast<int>(cfg.getInt("cpu.cores", p.cores));
    p.threadsPerCore = static_cast<int>(
        cfg.getInt("cpu.threads_per_core", p.threadsPerCore));
    p.clockGhz = cfg.getDouble("cpu.clock_ghz", p.clockGhz);
    p.modelContention =
        cfg.getBool("cpu.model_contention", p.modelContention);
    return p;
}

HostCpu::HostCpu(sim::Simulation &sim, const CpuParams &params)
    : params_(params), hwThreads_(params.hwThreads()),
      phases_(sim.stats(), "cpu.phases", "CPU phases executed"),
      oversubscribedPhases_(sim.stats(), "cpu.oversubscribed_phases",
                            "phases started with more runnable threads "
                            "than hardware threads")
{
}

} // namespace workload
} // namespace gpump
