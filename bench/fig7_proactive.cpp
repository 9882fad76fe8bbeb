/**
 * @file
 * Figure-7-style sweep of the memory-aware preemption schemes under
 * the contended-switch model (gmem.contended_switch): context save and
 * restore bytes travel as first-class transfer commands, so preemption
 * latency includes queueing behind workload copies.  Compares, against
 * the FCFS baseline:
 *   DSS-CS         plain save/restore preemption,
 *   DSS-Adaptive   per-SM drain-vs-switch selection,
 *   DSS-Proactive  save/restore with restore prefetch for the
 *                  reservation target (proactive_mem).
 *
 * Every scheme column runs with the contended model on; pass
 * gmem.contended_switch=0 to sweep the share model instead (the
 * bare key=value overrides win over the per-scheme default).
 *
 * Usage: fig7_proactive [--quick] [--workloads=N] [--replays=N]
 *                       [--seed=N] [--sizes=2,4,...] [--jobs=N]
 *                       [--csv] [--jsonl[=path]] [key=value ...]
 */

#include <iostream>
#include <map>
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
    BenchOptions opt = BenchOptions::fromArgs(args, "fig7_proactive");

    sim::Config contended;
    contended.set("gmem.contended_switch", true);

    harness::Suite suite("fig7p");
    suite.sizes(opt.sizes)
        .uniform(opt.workloads, opt.seed)
        .minReplays(opt.replays)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"}, contended)
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"}, contended)
        .scheme("DSS-Adaptive", {"dss", "adaptive", "fcfs"}, contended)
        .scheme("DSS-Proactive", {"dss", "proactive_mem", "fcfs"},
                contended);
    harness::Batch batch = suite.build();

    harness::Runner runner(figureConfig(args), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("fig7p"));
    auto results = bench::runAll(runner, batch.requests);

    const std::vector<std::string> schemes = {"DSS-CS", "DSS-Adaptive",
                                              "DSS-Proactive"};
    const std::size_t nschemes = schemes.size();
    // ntt_impr[group][size][scheme], fair_impr[size][scheme],
    // stp_degr[size][scheme] — all relative to contended FCFS.
    std::map<int, std::map<int, std::vector<std::vector<double>>>>
        ntt_impr;
    std::map<int, std::vector<std::vector<double>>> fair_impr;
    std::map<int, std::vector<std::vector<double>>> stp_degr;

    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        int size = batch.sizes[si];
        fair_impr[size].resize(nschemes);
        stp_degr[size].resize(nschemes);
        for (std::size_t pi = 0; pi < batch.numPlans(si); ++pi) {
            const auto &plan = batch.plansBySize[si][pi];
            const auto &base = results[batch.indexOf(si, pi, 0)];
            for (std::size_t s = 0; s < nschemes; ++s) {
                const auto &r = results[batch.indexOf(si, pi, s + 1)];
                fair_impr[size][s].push_back(r.metrics.fairness /
                                             base.metrics.fairness);
                stp_degr[size][s].push_back(base.metrics.stp /
                                            r.metrics.stp);
                for (std::size_t i = 0; i < plan.benchmarks.size();
                     ++i) {
                    double impr =
                        base.metrics.ntt[i] / r.metrics.ntt[i];
                    int grp =
                        groupIndex(class2Of(plan.benchmarks[i]));
                    for (int g : {grp, groupAverage}) {
                        auto &bucket = ntt_impr[g][size];
                        bucket.resize(nschemes);
                        bucket[s].push_back(impr);
                    }
                }
            }
        }
    }

    std::cout << "Memory-aware preemption under the contended-switch "
                 "model (vs. FCFS)\n\n";

    {
        harness::AsciiTable t({"Group", "Procs", "DSS-CS",
                               "DSS-Adaptive", "DSS-Proactive"});
        // Paper panel order: SHORT, MEDIUM, LONG, AVERAGE.
        for (int g : {2, 1, 0, groupAverage}) {
            for (int size : opt.sizes) {
                auto git = ntt_impr.find(g);
                if (git == ntt_impr.end() || !git->second.count(size))
                    continue;
                const auto &bucket = git->second.at(size);
                t.addRow({groupName(g), harness::fmt(size, 0),
                          harness::fmtTimes(meanOrZero(bucket[0])),
                          harness::fmtTimes(meanOrZero(bucket[1])),
                          harness::fmtTimes(meanOrZero(bucket[2]))});
            }
            t.addSeparator();
        }
        std::cout << "(a) Turnaround time improvement (groups = "
                     "Class 2 of each app):\n\n";
        emitTable(t, opt.csv);
    }

    auto emit_by_size =
        [&](const char *title,
            std::map<int, std::vector<std::vector<double>>> &data) {
            harness::AsciiTable t({"Procs", "DSS-CS", "DSS-Adaptive",
                                   "DSS-Proactive"});
            for (int size : opt.sizes) {
                t.addRow({harness::fmt(size, 0),
                          harness::fmtTimes(meanOrZero(data[size][0])),
                          harness::fmtTimes(meanOrZero(data[size][1])),
                          harness::fmtTimes(
                              meanOrZero(data[size][2]))});
            }
            std::cout << "\n" << title << "\n\n";
            emitTable(t, opt.csv);
        };

    emit_by_size("(b) System fairness improvement over FCFS:",
                 fair_impr);
    emit_by_size("(c) System throughput degradation over FCFS:",
                 stp_degr);
    if (!opt.jsonl.empty())
        harness::writeResultsJsonl(opt.jsonl, batch, results);

    std::cout << "\nReading: Proactive should close part of the gap "
                 "contention opens between\nCS and Drain-leaning "
                 "Adaptive — its restore prefetch overlaps the "
                 "incoming\nkernel's H2D fetch with the victim's save "
                 "instead of serialising them.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return harness::guardedMain(argc, argv, run);
}
