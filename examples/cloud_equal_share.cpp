/**
 * @file
 * Multi-tenant GPU node: four tenants with very different
 * applications share one GPU.  Compares the baseline FCFS engine
 * against DSS equal sharing with both preemption mechanisms — the
 * deployment scenario Section 4.4 argues for ("multi-tenant cloud or
 * server nodes").
 *
 * Each tenant is an open-loop Poisson request stream built with the
 * serve layer, so the comparison is made under identical offered load
 * and every result carries per-tenant-class serving metrics (p99,
 * throughput) next to the paper's ANTT/STP — no hand-rolled scenario
 * setup or record walking.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "harness/args.hh"
#include "harness/report.hh"
#include "harness/suite.hh"
#include "serve/scenario.hh"
#include "trace/parboil.hh"

using namespace gpump;
using harness::AsciiTable;

static int
run(int argc, char **argv)
{
    // --list-schemes and config key=value overrides work in every
    // example binary; Args handles the flag and exits, and the
    // collected overrides feed every simulation below.
    harness::Args args(argc, argv);

    harness::Runner runner(args.config(), /*jobs=*/2);

    // Tenants: an interactive analytics job (sgemm), a sparse solver
    // (spmv), a video pipeline (sad) and a long batch job (lbm), each
    // an open-loop request stream at 30% of its own service capacity.
    serve::ScenarioSpec sc;
    sc.name = "equal_share";
    sc.seed = 2026;
    const std::vector<std::string> tenants{"sgemm", "spmv", "sad",
                                           "lbm"};
    double longest_iso = 0.0;
    for (const std::string &bench : tenants)
        longest_iso =
            std::max(longest_iso, runner.isolatedTimeUs(bench));
    sc.horizonUs = 4.0 * longest_iso;
    for (const std::string &bench : tenants) {
        serve::TenantSpec t;
        t.name = bench;
        t.benchmark = bench;
        t.className = bench; // per-tenant metrics: one class each
        t.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
        t.arrivals.ratePerSec =
            0.3 / (runner.isolatedTimeUs(bench) * 1e-6);
        sc.tenants.push_back(t);
    }

    harness::Suite suite("cloud");
    suite.serving({sc})
        .scheme("fcfs", {"fcfs", "context_switch", "fcfs"})
        .scheme("dss/cs", {"dss", "context_switch", "fcfs"})
        .scheme("dss/drain", {"dss", "draining", "fcfs"});
    harness::Batch batch = suite.build();
    std::vector<harness::RunResult> results =
        runner.run(batch.requests);

    AsciiTable per_tenant({"tenant", "class", "fcfs p99 (us)",
                           "dss/cs p99 (us)", "dss/drain p99 (us)"});
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const auto &bench = trace::findBenchmark(tenants[i]);
        std::vector<std::string> row{
            bench.name, trace::durationClassName(bench.appClass)};
        for (std::size_t ci = 0; ci < batch.schemes.size(); ++ci) {
            const auto &r = results[batch.indexOf(0, 0, ci)];
            int idx = r.serving.classIndex(tenants[i]);
            row.push_back(harness::fmt(
                r.serving.classes[static_cast<std::size_t>(idx)]
                    .latency.p99,
                0));
        }
        per_tenant.addRow(std::move(row));
    }

    std::printf("Four tenants sharing one GK110-class GPU\n");
    std::printf("========================================\n\n");
    std::printf("Per-tenant p99 request latency (open-loop Poisson "
                "streams at 30%% load each,\nidentical arrivals under "
                "every scheme; lower is better):\n\n");
    per_tenant.print(std::cout);

    AsciiTable system_table(
        {"metric", "fcfs", "dss/cs", "dss/drain"});
    system_table.addRow({"ANTT", harness::fmt(results[0].metrics.antt),
                         harness::fmt(results[1].metrics.antt),
                         harness::fmt(results[2].metrics.antt)});
    system_table.addRow({"STP", harness::fmt(results[0].metrics.stp),
                         harness::fmt(results[1].metrics.stp),
                         harness::fmt(results[2].metrics.stp)});
    system_table.addRow(
        {"fairness", harness::fmt(results[0].metrics.fairness),
         harness::fmt(results[1].metrics.fairness),
         harness::fmt(results[2].metrics.fairness)});
    system_table.addRow(
        {"worst-window fair",
         harness::fmt(results[0].serving.windowFairness),
         harness::fmt(results[1].serving.windowFairness),
         harness::fmt(results[2].serving.windowFairness)});
    system_table.addRow(
        {"preemptions",
         harness::fmt(static_cast<double>(results[0].sys.preemptions),
                      0),
         harness::fmt(static_cast<double>(results[1].sys.preemptions),
                      0),
         harness::fmt(static_cast<double>(results[2].sys.preemptions),
                      0)});

    std::printf("\nSystem metrics:\n\n");
    system_table.print(std::cout);

    std::printf("\nEqual sharing trades a little total throughput for "
                "far better tenant isolation:\nshort interactive jobs "
                "stop paying for the batch job's monopoly.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return harness::guardedMain(argc, argv, run);
}
