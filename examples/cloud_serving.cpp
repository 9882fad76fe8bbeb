/**
 * @file
 * Open-loop cloud serving: a latency-critical request stream
 * preempting a batch tenant (the serving story of Section 4.4, told
 * with serving metrics instead of turnaround).
 *
 * An inference-style tenant (mri-q, deadlined, high priority) receives
 * bursty requests while a batch tenant (sad) offers steady background
 * work.  Both streams are open-loop: requests arrive on a fixed
 * timeline whether or not the GPU keeps up, so queueing delay is part
 * of every latency sample — the number a serving operator actually
 * sees.  We run the identical arrival timelines under baseline FCFS
 * and under preemptive priorities with aging (ppq_aging/cs) and
 * compare per-class p99 latency, deadline-miss rate and goodput.
 *
 * Demonstrates the serve layer end to end: ArrivalSpec -> ScenarioSpec
 * -> Suite::serving() -> Runner -> per-class SLO metrics on each
 * RunResult.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "harness/args.hh"
#include "harness/report.hh"
#include "harness/suite.hh"
#include "serve/scenario.hh"

using namespace gpump;

static int
run(int argc, char **argv)
{
    // --list-schemes and config key=value overrides work in every
    // example binary; Args handles the flag and exits, and the
    // collected overrides feed every simulation below.
    harness::Args args(argc, argv);

    // Size the offered load from the simulated machine: load factor =
    // arrival rate x isolated service time.
    harness::Runner runner(args.config(), /*jobs=*/2);
    const double latency_iso = runner.isolatedTimeUs("mri-q");
    const double batch_iso = runner.isolatedTimeUs("sad");

    serve::ScenarioSpec sc;
    sc.name = "serving";
    sc.horizonUs = 60.0 * latency_iso;
    sc.seed = 20140614;

    serve::TenantSpec latency;
    latency.name = "inference";
    latency.benchmark = "mri-q";
    latency.className = "latency";
    latency.priority = 1;
    latency.deadlineUs = 3.0 * latency_iso;
    latency.maxBacklog = 8; // drop rather than queue without bound
    latency.arrivals.kind = serve::ArrivalSpec::Kind::Bursty;
    latency.arrivals.ratePerSec = 1.2 / (latency_iso * 1e-6);
    latency.arrivals.burstMeanUs = 10.0 * latency_iso;
    latency.arrivals.idleMeanUs = 10.0 * latency_iso;
    sc.tenants.push_back(latency);

    serve::TenantSpec batch;
    batch.name = "analytics";
    batch.benchmark = "sad";
    batch.className = "batch";
    batch.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
    batch.arrivals.ratePerSec = 0.5 / (batch_iso * 1e-6);
    sc.tenants.push_back(batch);

    harness::Suite suite("cloud_serving");
    suite.serving({sc})
        .scheme("fcfs", {"fcfs", "context_switch", "fcfs"})
        .scheme("ppq_aging/cs",
                {"ppq_aging", "context_switch", "priority"});
    harness::Batch batch_reqs = suite.build();
    auto results = runner.run(batch_reqs.requests);

    std::printf("Open-loop serving: bursty inference vs steady "
                "batch\n");
    std::printf("==================================================\n"
                "\n");
    std::printf("inference: mri-q, %.0f us/request isolated, deadline "
                "3x isolated,\n           bursty arrivals at 1.2x "
                "load inside bursts, backlog bound 8\n",
                latency_iso);
    std::printf("batch:     sad, %.0f us/request isolated, Poisson at "
                "0.5x load\n\n", batch_iso);

    harness::AsciiTable t({"class", "scheme", "req", "drop",
                           "p50 (us)", "p99 (us)", "miss%",
                           "goodput/s"});
    for (std::size_t ci = 0; ci < batch_reqs.schemes.size(); ++ci) {
        const harness::RunResult &r =
            results[batch_reqs.indexOf(0, 0, ci)];
        for (const serve::ClassMetrics &c : r.serving.classes) {
            t.addRow({c.name, batch_reqs.schemes[ci].name,
                      std::to_string(c.requests),
                      std::to_string(c.dropped),
                      harness::fmt(c.latency.p50, 0),
                      harness::fmt(c.latency.p99, 0),
                      harness::fmt(100.0 * c.missRate, 1),
                      harness::fmt(c.goodputPerSec, 1)});
        }
        if (ci + 1 < batch_reqs.schemes.size())
            t.addSeparator();
    }
    t.print(std::cout);

    const harness::RunResult &fcfs = results[batch_reqs.indexOf(0, 0, 0)];
    const harness::RunResult &ppq = results[batch_reqs.indexOf(0, 0, 1)];
    int li = fcfs.serving.classIndex("latency");
    std::printf("\nlatency-class p99: %.0f us under fcfs vs %.0f us "
                "under ppq_aging/cs\n(identical arrival timelines; "
                "ANTT %.2f vs %.2f barely moves).\n",
                fcfs.serving.classes[li].latency.p99,
                ppq.serving.classes[li].latency.p99,
                fcfs.metrics.antt, ppq.metrics.antt);
    std::printf("\nPreemption is what turns priority into latency: "
                "under FCFS a burst's requests\nwait out whole batch "
                "kernels; with ppq_aging the batch tenant is "
                "preempted at\nthe next thread-block boundary and the "
                "burst drains at service speed.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return harness::guardedMain(argc, argv, run);
}
