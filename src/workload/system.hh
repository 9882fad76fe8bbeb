/**
 * @file
 * System: one fully assembled simulated machine.
 *
 * Builds the evaluation platform of Section 4.1 — a multicore CPU
 * attached to a discrete GK110-like GPU over PCIe — around a workload
 * of processes, a scheduling policy and a preemption mechanism, and
 * runs it until every process has completed the required number of
 * executions (Section 4.1's replay methodology) — or, when the spec
 * carries arrival schedules, until every open-loop request stream has
 * been served (the serve/ layer's cloud-serving model, DESIGN.md §9).
 */

#ifndef GPUMP_WORKLOAD_SYSTEM_HH
#define GPUMP_WORKLOAD_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "core/policy.hh"
#include "core/preemption.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_config.hh"
#include "gpu/gpu_context.hh"
#include "gpu/stream.hh"
#include "gpu/transfer_engine.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
#include "memory/residency.hh"
#include "sim/simulation.hh"
#include "trace/app_model.hh"
#include "workload/host_cpu.hh"
#include "workload/process.hh"

namespace gpump {
namespace workload {

/** sim::Config::validate() over every key the library declares;
 *  System assembly and harness::Args call it.  Being defined next to
 *  System, it links every model reader and so every declaration. */
void validateConfig(const sim::Config &cfg);

/** Everything needed to instantiate one simulation run. */
struct SystemSpec
{
    /** Benchmark names, one per process (see trace::parboilSuite). */
    std::vector<std::string> benchmarks;
    /** Custom application specs, one per process.  When non-empty it
     *  replaces `benchmarks`; the pointed-to specs must outlive the
     *  System.  Lets applications not in the built-in suite (user
     *  workloads, synthetic kernels) run through the same machinery. */
    std::vector<const trace::BenchmarkSpec *> customSpecs;
    /** Per-process priorities; empty = all zero.  Higher wins. */
    std::vector<int> priorities;
    /** Kernel scheduling policy: any core::policyRegistry() name
     *  (run a bench with --list-schemes for the live list). */
    std::string policy = "fcfs";
    /** Preemption mechanism: any core::mechanismRegistry() name. */
    std::string mechanism = "context_switch";
    /** Transfer engine policy: "fcfs" or "priority". */
    std::string transferPolicy = "fcfs";
    /** Root RNG seed. */
    std::uint64_t seed = 1;
    /** Executions each process must complete before the run ends
     *  (closed-loop §4.1 replay; ignored under arrival schedules). */
    int minReplays = 3;

    /**
     * Open-loop request streams (the serve/ layer's model): when
     * non-empty, one schedule per process switches the whole system
     * to open loop — each process executes one run per arrival time
     * (Process::setArrivalSchedule) and the run ends when every
     * process has handled its entire schedule, not after minReplays.
     * Schedules are absolute nondecreasing times; an empty inner
     * vector is a tenant with no requests.
     */
    std::vector<std::vector<sim::SimTime>> arrivalSchedules;
    /** Per-process admission backlog bound for open-loop streams:
     *  an arrival finding this many requests queued is dropped.
     *  Empty = unbounded everywhere; 0 entries = unbounded. */
    std::vector<int> admissionBacklogs;
};

/** Outcome of one run. */
struct SystemResult
{
    /** Per-process completed-execution records. */
    std::vector<std::vector<RunRecord>> runs;
    /** Per-process mean turnaround (us) over completed executions. */
    std::vector<double> meanTurnaroundUs;
    /** Per-process mean response time (arrival to completion, us);
     *  equals meanTurnaroundUs for closed-loop runs. */
    std::vector<double> meanLatencyUs;
    /** Per-process requests rejected by admission control (always 0
     *  for closed-loop runs). */
    std::vector<std::int64_t> droppedRequests;
    /** Simulated time when the stop condition was met. */
    sim::SimTime endTime = 0;
    /** Events executed (simulator effort). */
    std::uint64_t eventsExecuted = 0;
    /** Engine counters for overhead analyses. */
    std::uint64_t kernelsCompleted = 0;
    std::uint64_t preemptions = 0;
    double contextBytesSaved = 0.0;
    /** Deepest PTBQ seen (context-switch mechanism sizing). */
    double maxPtbqDepth = 0.0;
};

/** One assembled machine + workload. */
class System
{
  public:
    /**
     * @param spec      workload and scheme description.
     * @param overrides config overrides applied to every component.
     */
    explicit System(const SystemSpec &spec,
                    const sim::Config &overrides = sim::Config());

    sim::Simulation &sim() { return *sim_; }
    core::SchedulingFramework &framework() { return *framework_; }
    gpu::TransferEngine &transferEngine() { return *transferEngine_; }
    /** Device-memory residency (swap accounting for tests/analyses). */
    memory::ResidencyManager &residency() { return *residency_; }
    /** The command pool all processes draw from (observability for
     *  tests of the allocation-free replay path). */
    gpu::CommandPool &commandPool() { return cmdPool_; }

    int numProcesses() const
    {
        return static_cast<int>(processes_.size());
    }
    Process &process(int i)
    {
        return *processes_[static_cast<std::size_t>(i)];
    }

    /**
     * Run until every process completed spec.minReplays executions.
     *
     * @param limit safety horizon; exceeding it raises fatal() (it
     *        means a livelocked schedule, e.g. draining a persistent
     *        kernel).
     */
    SystemResult run(sim::SimTime limit = sim::maxTime);

  private:
    SystemSpec spec_;
    /** Recycles command allocations across replays.  Declared before
     *  every component that can hold a CommandPtr (engines, framework,
     *  streams), so it is destroyed last — the pool must outlive its
     *  commands (CommandPool lifetime contract). */
    gpu::CommandPool cmdPool_;
    std::unique_ptr<sim::Simulation> sim_;
    gpu::GpuParams gpuParams_;
    std::unique_ptr<memory::GpuMemory> gmem_;
    std::unique_ptr<memory::PcieBus> pcie_;
    std::unique_ptr<gpu::TransferEngine> transferEngine_;
    std::unique_ptr<gpu::Dispatcher> dispatcher_;
    std::unique_ptr<core::SchedulingFramework> framework_;
    /** Declared after framework_: the manager's callbacks point into
     *  the framework and must be torn down first. */
    std::unique_ptr<memory::ResidencyManager> residency_;
    std::unique_ptr<HostCpu> hostCpu_;
    std::vector<std::unique_ptr<gpu::GpuContext>> contexts_;
    std::vector<std::unique_ptr<gpu::Stream>> streams_;
    std::vector<std::unique_ptr<Process>> processes_;
    int stillRunning_ = 0;
    bool done_ = false;
};

} // namespace workload
} // namespace gpump

#endif // GPUMP_WORKLOAD_SYSTEM_HH
