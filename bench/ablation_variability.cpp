/**
 * @file
 * Ablation: thread-block duration variability.
 *
 * The paper attributes part of the draining mechanism's throughput
 * loss to "the variable execution times of the thread blocks"
 * leaving draining SMs underutilized (Section 4.3).  The profile
 * replays are deterministic by default (cv = 0); this bench sweeps a
 * lognormal coefficient of variation over the per-TB durations and
 * compares the two mechanisms under DSS, showing that draining's
 * disadvantage grows with variability while context switch is
 * insensitive to it.
 *
 * Usage: ablation_variability [--workloads=N] [--replays=N] [--seed=N]
 *                             [--jobs=N] [--csv] [--jsonl[=path]]
 */

#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/report.hh"
#include "harness/suite.hh"

using namespace gpump;
using namespace gpump::bench;

static int
run(int argc, char **argv)
{
    harness::Args args(argc, argv);
    BenchOptions opt =
        BenchOptions::fromArgs(args, "ablation_variability");
    int nprocs = 4;
    const std::vector<double> cvs = {0.0, 0.2, 0.5};

    harness::Suite suite("ablation_cv");
    suite
        .fixedPlans(workload::makeUniformPlans(nprocs, opt.workloads,
                                               opt.seed))
        .minReplays(opt.replays);
    for (double cv : cvs) {
        sim::Config cfg;
        cfg.set("gpu.tb_time_cv", cv);
        std::string label = "cv=" + harness::fmt(cv, 1);
        suite.scheme(label + "/cs",
                     {"dss", "context_switch", "fcfs"}, cfg);
        suite.scheme(label + "/drain", {"dss", "draining", "fcfs"},
                     cfg);
    }
    harness::Batch batch = suite.build();

    harness::Runner runner(args.config(), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("ablation_cv"));
    auto results = bench::runAll(runner, batch.requests);

    harness::AsciiTable t({"TB time CV", "ANTT CS", "ANTT Drain",
                           "STP CS", "STP Drain"});

    for (std::size_t v = 0; v < cvs.size(); ++v) {
        double antt_cs = 0, antt_drain = 0, stp_cs = 0, stp_drain = 0;
        for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
            const auto &cs = results[batch.indexOf(0, pi, 2 * v)];
            const auto &drain =
                results[batch.indexOf(0, pi, 2 * v + 1)];
            antt_cs += cs.metrics.antt;
            antt_drain += drain.metrics.antt;
            stp_cs += cs.metrics.stp;
            stp_drain += drain.metrics.stp;
        }
        double n = static_cast<double>(batch.numPlans(0));
        t.addRow({harness::fmt(cvs[v], 1), harness::fmt(antt_cs / n),
                  harness::fmt(antt_drain / n),
                  harness::fmt(stp_cs / n),
                  harness::fmt(stp_drain / n)});
    }

    std::cout << "Ablation: thread-block duration variability "
                 "(4-process DSS workloads)\n\n";
    emitTable(t, opt.csv, opt.jsonl);
    std::cout << "\nDraining must wait for the slowest resident block "
                 "while the SM empties out;\nthe longer the tail, the "
                 "longer the SM runs underutilized.  Context-switch\n"
                 "latency depends only on the context size, not on "
                 "the block durations.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return harness::guardedMain(argc, argv, run);
}
