/**
 * @file
 * Quickstart: define a custom GPU application, co-run two of them
 * under preemptive scheduling, and read out the multiprogramming
 * metrics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Everything shown here is public API:
 *  - harness::Suite / harness::Runner declare and execute experiment
 *    batches (with cached isolated baselines and ready-made metrics);
 *  - trace::BenchmarkSpec / TraceBuilder describe an application;
 *  - workload::System assembles one simulated machine when you need
 *    full control.
 */

#include <cstdio>

#include "harness/args.hh"
#include "harness/suite.hh"
#include "metrics/metrics.hh"
#include "trace/parboil.hh"
#include "trace/trace_builder.hh"
#include "workload/system.hh"

using namespace gpump;

static int
run(int argc, char **argv)
{
    // --list-schemes and config key=value overrides work in every
    // example binary; Args handles the flag and exits, and the
    // collected overrides feed every simulation below.
    harness::Args args(argc, argv);

    // --- 1. A Runner memoizes isolated baselines: each benchmark ---
    //        alone on the machine, the denominator of every metric.
    harness::Runner runner(args.config());
    double sgemm_alone_us = runner.isolatedTimeUs("sgemm");
    std::printf("sgemm alone:            %8.1f us per execution\n",
                sgemm_alone_us);

    // --- 2. Declare the comparison: one workload (sgemm next to a --
    //        long benchmark) under today's FCFS GPUs and under
    //        Dynamic Spatial Sharing with context-switch preemption.
    workload::WorkloadPlan plan;
    plan.benchmarks = {"sgemm", "mri-gridding"};

    harness::Suite suite("quickstart");
    suite.fixedPlans({plan})
        .minReplays(3)
        .limit(sim::seconds(60.0))
        .scheme("fcfs", {"fcfs", "context_switch", "fcfs"})
        .scheme("dss", {"dss", "context_switch", "fcfs"});
    harness::Batch batch = suite.build();

    // --- 3. Run the batch.  Results come back in request order; ----
    //        metrics are already computed against the baselines.
    auto results = runner.run(batch.requests);
    const harness::RunResult &fcfs = results[batch.indexOf(0, 0, 0)];
    const harness::RunResult &dss = results[batch.indexOf(0, 0, 1)];

    std::printf("sgemm next to gridding/FCFS: %8.1f us per execution "
                "(%.2fx slowdown)\n",
                fcfs.sys.meanTurnaroundUs[0],
                fcfs.sys.meanTurnaroundUs[0] / sgemm_alone_us);
    std::printf("sgemm next to gridding/DSS :  %8.1f us per execution "
                "(%.2fx slowdown, %llu preemptions)\n",
                dss.sys.meanTurnaroundUs[0],
                dss.sys.meanTurnaroundUs[0] / sgemm_alone_us,
                static_cast<unsigned long long>(dss.sys.preemptions));

    // --- 4. System-level metrics for both runs. --------------------
    std::printf("\n%-6s  %-8s %-8s %-8s\n", "policy", "ANTT", "STP",
                "fairness");
    std::printf("%-6s  %-8.2f %-8.2f %-8.2f\n", "fcfs",
                fcfs.metrics.antt, fcfs.metrics.stp,
                fcfs.metrics.fairness);
    std::printf("%-6s  %-8.2f %-8.2f %-8.2f\n", "dss",
                dss.metrics.antt, dss.metrics.stp,
                dss.metrics.fairness);

    // --- 5. Define your own application and schedule it. -----------
    //        A small iterative solver: upload, 20 solver kernels,
    //        download.  (In a real project the kernel numbers would
    //        come from profiling, like Table 1 came from the K20c.)
    trace::BenchmarkSpec my_app;
    my_app.name = "my-solver";
    my_app.dataset = "demo";
    trace::KernelProfile k;
    k.benchmark = "my-solver";
    k.kernel = "jacobi";
    k.launches = 20;
    k.numThreadBlocks = 416; // 2 waves at occupancy 16 on 13 SMs
    k.timePerTbUs = 5.0;
    k.regsPerTb = 8192;
    k.sharedMemPerTb = 4096;
    k.threadsPerTb = 256;
    my_app.kernels.push_back(k);
    trace::TraceBuilder b(my_app);
    b.cpu(500).h2d(trace::mib(16));
    for (int i = 0; i < 20; ++i)
        b.cpu(10).launch(0);
    b.sync().d2h(trace::mib(16)).cpu(100);
    my_app.validate();

    std::printf("\nmy-solver: %d kernel launches, %.1f MiB in, "
                "%.1f MiB out, %.1f us host time\n",
                my_app.totalLaunches(),
                static_cast<double>(my_app.bytesH2D()) / (1 << 20),
                static_cast<double>(my_app.bytesD2H()) / (1 << 20),
                sim::toMicroseconds(my_app.cpuTime()));

    // Custom applications run through the low-level System API (the
    // machinery underneath the Runner).
    const trace::BenchmarkSpec &lbm = trace::findBenchmark("lbm");
    workload::SystemSpec custom;
    custom.customSpecs = {&my_app, &lbm};
    custom.policy = "dss";
    custom.minReplays = 3;
    workload::System custom_system(custom, args.config());
    auto custom_result = custom_system.run(sim::seconds(60.0));
    std::printf("my-solver next to lbm/DSS: %8.1f us per execution\n",
                custom_result.meanTurnaroundUs[0]);

    std::printf("\nquickstart done.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return harness::guardedMain(argc, argv, run);
}
