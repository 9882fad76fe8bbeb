/**
 * @file
 * Ablation: what does the adaptive mechanism lose when its oracle is
 * replaced by the online runtime predictor?
 *
 * The "adaptive" mechanism decides drain-vs-switch from the resident
 * blocks' *scheduled* completion times — information no real driver
 * has.  "pred_adaptive" makes the same decision from the predict/
 * subsystem's measured model (EWMA of observed per-TB service times,
 * cold-start prior from the launch profile).  This bench quantifies
 * the prediction-to-oracle gap on the Figure 7 methodology: random
 * equal-priority DSS workloads, ANTT / fairness / STP vs. the FCFS
 * baseline, for the static mechanisms (CS, Drain), the oracle
 * adaptive, and the predictor-driven adaptive.
 *
 * Usage: ablation_prediction [--quick] [--workloads=N] [--replays=N]
 *                            [--seed=N] [--sizes=2,4,...] [--jobs=N]
 *                            [--csv] [--jsonl[=path]] [key=value ...]
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
    BenchOptions opt = BenchOptions::fromArgs(args,
                                              "ablation_prediction");

    harness::Suite suite("ablation_prediction");
    suite.sizes(opt.sizes)
        .uniform(opt.workloads, opt.seed)
        .minReplays(opt.replays)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"})
        .scheme("DSS-Drain", {"dss", "draining", "fcfs"})
        .scheme("DSS-Adaptive", {"dss", "adaptive", "fcfs"})
        .scheme("DSS-PredAdaptive", {"dss", "pred_adaptive", "fcfs"});
    harness::Batch batch = suite.build();

    harness::Runner runner(figureConfig(args), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("ablation_prediction"));
    auto results = bench::runAll(runner, batch.requests);

    // Improvements over the FCFS baseline (scheme 0), by size:
    // antt_impr/fair_impr/stp_degr[size][scheme].
    const std::size_t nschemes = batch.schemes.size() - 1;
    std::map<int, std::vector<std::vector<double>>> antt_impr;
    std::map<int, std::vector<std::vector<double>>> fair_impr;
    std::map<int, std::vector<std::vector<double>>> stp_degr;
    // Per-workload oracle-vs-predictor ANTT ratio (gap < 1 means the
    // predictor-driven runs had worse, i.e. higher, ANTT).
    std::map<int, std::vector<double>> gap;

    const std::size_t oracle = 3, predicted = 4; // scheme indices

    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        int size = batch.sizes[si];
        antt_impr[size].resize(nschemes);
        fair_impr[size].resize(nschemes);
        stp_degr[size].resize(nschemes);
        for (std::size_t pi = 0; pi < batch.numPlans(si); ++pi) {
            const auto &base = results[batch.indexOf(si, pi, 0)];
            for (std::size_t s = 0; s < nschemes; ++s) {
                const auto &r = results[batch.indexOf(si, pi, s + 1)];
                antt_impr[size][s].push_back(base.metrics.antt /
                                             r.metrics.antt);
                fair_impr[size][s].push_back(r.metrics.fairness /
                                             base.metrics.fairness);
                stp_degr[size][s].push_back(base.metrics.stp /
                                            r.metrics.stp);
            }
            const auto &orc = results[batch.indexOf(si, pi, oracle)];
            const auto &prd =
                results[batch.indexOf(si, pi, predicted)];
            gap[size].push_back(orc.metrics.antt / prd.metrics.antt);
        }
    }

    std::cout << "Prediction ablation: oracle adaptive vs. online "
                 "runtime prediction\n(Figure 7 methodology, "
                 "equal-priority DSS workloads)\n\n";

    auto emit_by_size =
        [&](const char *title,
            std::map<int, std::vector<std::vector<double>>> &data) {
            harness::AsciiTable t({"Procs", "DSS-CS", "DSS-Drain",
                                   "DSS-Adaptive",
                                   "DSS-PredAdaptive"});
            for (int size : opt.sizes) {
                t.addRow({harness::fmt(size, 0),
                          harness::fmtTimes(meanOrZero(data[size][0])),
                          harness::fmtTimes(meanOrZero(data[size][1])),
                          harness::fmtTimes(meanOrZero(data[size][2])),
                          harness::fmtTimes(
                              meanOrZero(data[size][3]))});
            }
            std::cout << title << "\n\n";
            emitTable(t, opt.csv);
            std::cout << "\n";
        };

    emit_by_size("(a) ANTT improvement over FCFS:", antt_impr);
    emit_by_size("(b) System fairness improvement over FCFS:",
                 fair_impr);
    emit_by_size("(c) System throughput degradation over FCFS:",
                 stp_degr);

    {
        harness::AsciiTable t({"Procs", "Oracle/Predicted ANTT"});
        for (int size : opt.sizes) {
            t.addRow({harness::fmt(size, 0),
                      harness::fmtTimes(meanOrZero(gap[size]), 4)});
        }
        std::cout << "(d) Prediction-to-oracle gap (oracle ANTT / "
                     "predicted ANTT;\n    1.00x = the predictor "
                     "matches the oracle, <1x = predictor worse):\n\n";
        emitTable(t, opt.csv);
    }

    if (!opt.jsonl.empty())
        harness::writeResultsJsonl(opt.jsonl, batch, results);

    std::cout << "\nExpected shape: adaptive between CS and Drain on "
                 "every metric, and\npred_adaptive within a few "
                 "percent of oracle adaptive once its per-kernel\n"
                 "models warm up (cold starts fall back to context "
                 "switching).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return harness::guardedMain(argc, argv, run);
}
