#include "gpu/gpu_config.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gpump {
namespace gpu {

// The SM and TB-slot caps keep their product, the PTBQ capacity per
// kernel (core/tables.hh), inside an int.
[[maybe_unused]] const bool declared = sim::declareKeys({
    {"gpu.num_sms", sim::TunableType::Int, "", "streaming multiprocessors",
     sim::atLeast(1, 4096)},
    {"gpu.clock_ghz", sim::TunableType::Double, "", "SM clock, GHz",
     sim::above(0)},
    {"gpu.pipelines_per_sm", sim::TunableType::Int, "", "pipelines per SM",
     sim::atLeast(1, sim::maxInt)},
    {"gpu.regs_per_sm", sim::TunableType::Int, "", "registers per SM",
     sim::atLeast(1, sim::maxInt)},
    {"gpu.max_threads_per_sm", sim::TunableType::Int, "",
     "resident threads per SM", sim::atLeast(1, sim::maxInt)},
    {"gpu.max_tb_slots_per_sm", sim::TunableType::Int, "",
     "resident thread blocks per SM", sim::atLeast(1, 1024)},
    {"gpu.sm_setup_us", sim::TunableType::Double, "",
     "SM setup before issuing thread blocks, us", sim::latencyUs},
    {"gpu.context_load_us", sim::TunableType::Double, "",
     "extra SM setup when the context changes, us", sim::latencyUs},
    {"gpu.pipeline_drain_us", sim::TunableType::Double, "",
     "pipeline drain before a context save, us", sim::latencyUs},
    {"gpu.command_submit_us", sim::TunableType::Double, "",
     "CPU-to-GPU command submission, us", sim::latencyUs},
    {"gpu.tb_time_cv", sim::TunableType::Double, "",
     "coefficient of variation of thread-block durations",
     sim::atLeast(0, 100)},
    {"gpu.num_hw_queues", sim::TunableType::Int, "",
     "hardware command queues", sim::atLeast(1, sim::maxInt)},
});

GpuParams
GpuParams::fromConfig(const sim::Config &cfg)
{
    GpuParams p;
    auto count = [&cfg](const char *key, int &field) {
        field = static_cast<int>(cfg.getInt(key, field));
    };
    auto latency = [&cfg](const char *key, sim::SimTime &field) {
        field = sim::microseconds(
            cfg.getDouble(key, sim::toMicroseconds(field)));
    };
    count("gpu.num_sms", p.numSms);
    p.clockGhz = cfg.getDouble("gpu.clock_ghz", p.clockGhz);
    count("gpu.pipelines_per_sm", p.pipelinesPerSm);
    count("gpu.regs_per_sm", p.regsPerSm);
    count("gpu.max_threads_per_sm", p.maxThreadsPerSm);
    count("gpu.max_tb_slots_per_sm", p.maxTbSlotsPerSm);
    latency("gpu.sm_setup_us", p.smSetupLatency);
    latency("gpu.context_load_us", p.contextLoadLatency);
    latency("gpu.pipeline_drain_us", p.pipelineDrainLatency);
    latency("gpu.command_submit_us", p.commandSubmitLatency);
    p.tbTimeCv = cfg.getDouble("gpu.tb_time_cv", p.tbTimeCv);
    count("gpu.num_hw_queues", p.numHwQueues);
    return p;
}

int
selectShmemConfig(const trace::KernelProfile &k, const GpuParams &p)
{
    GPUMP_ASSERT(!p.shmemConfigs.empty(), "no shared memory configurations");
    GPUMP_ASSERT(std::is_sorted(p.shmemConfigs.begin(),
                                p.shmemConfigs.end()),
                 "shared memory configurations must be ascending");
    for (int cfg : p.shmemConfigs) {
        if (k.sharedMemPerTb <= cfg)
            return cfg;
    }
    sim::fatal("kernel %s needs %d B of shared memory per TB; the largest "
               "SM configuration is %d B",
               k.fullName().c_str(), k.sharedMemPerTb,
               p.shmemConfigs.back());
}

int
maxTbsPerSm(const trace::KernelProfile &k, const GpuParams &p)
{
    GPUMP_ASSERT(k.threadsPerTb > 0, "kernel %s has no threads",
                 k.fullName().c_str());

    int limit = p.maxTbSlotsPerSm;
    if (k.regsPerTb > 0)
        limit = std::min(limit, p.regsPerSm / k.regsPerTb);
    if (k.sharedMemPerTb > 0) {
        int cfg = selectShmemConfig(k, p);
        limit = std::min(limit, cfg / k.sharedMemPerTb);
    }
    limit = std::min(limit, p.maxThreadsPerSm / k.threadsPerTb);

    if (limit <= 0) {
        sim::fatal("kernel %s does not fit on an SM (regs=%d shmem=%d "
                   "threads=%d)",
                   k.fullName().c_str(), k.regsPerTb, k.sharedMemPerTb,
                   k.threadsPerTb);
    }
    return limit;
}

std::int64_t
smContextBytes(const trace::KernelProfile &k, const GpuParams &p)
{
    return k.contextBytesPerTb() *
        static_cast<std::int64_t>(maxTbsPerSm(k, p));
}

double
smResourceFraction(const trace::KernelProfile &k, const GpuParams &p)
{
    double storage =
        static_cast<double>(p.regsPerSm) *
            static_cast<double>(trace::bytesPerRegister) +
        static_cast<double>(p.shmemConfigs.back());
    return static_cast<double>(smContextBytes(k, p)) / storage;
}

} // namespace gpu
} // namespace gpump
