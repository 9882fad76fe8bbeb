/** Tests of the experiment harness, argument parsing and reporting. */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <sstream>

#include "harness/args.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::harness;

TEST(Args, SplitsFlagsAndConfig)
{
    const char *argv[] = {"prog", "--workloads=20", "--csv",
                          "gpu.num_sms=8", "dss.retarget=false"};
    Args args(5, const_cast<char **>(argv), {"workloads", "csv"});
    EXPECT_EQ(args.flagInt("workloads", 5), 20);
    EXPECT_TRUE(args.hasFlag("csv"));
    EXPECT_EQ(args.flag("csv", ""), "true");
    EXPECT_FALSE(args.hasFlag("missing"));
    EXPECT_EQ(args.config().getInt("gpu.num_sms", 13), 8);
    EXPECT_FALSE(args.config().getBool("dss.retarget", true));
}

TEST(Args, MalformedTokenIsFatal)
{
    const char *argv[] = {"prog", "oops"};
    EXPECT_THROW(Args(2, const_cast<char **>(argv)), sim::FatalError);
}

TEST(Args, UndeclaredFlagsAndKeysAreFatal)
{
    auto message = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "prog");
        try {
            Args(static_cast<int>(argv.size()),
                 const_cast<char **>(argv.data()), {"jobs", "quick"});
        } catch (const sim::FatalError &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message({"--job=4"}),
              "unknown flag --job; did you mean --jobs?");
    // Nothing near: the error lists what the binary accepts.
    EXPECT_EQ(message({"--help"}),
              "unknown flag --help; accepted: --jobs, --quick, "
              "--list-schemes");
    EXPECT_EQ(message({"gpu.num_smz=4"}),
              "unknown config key 'gpu.num_smz'; did you mean "
              "'gpu.num_sms'?");
    EXPECT_EQ(message({"gpu.context_load_us=-100"}),
              "config key 'gpu.context_load_us' is -100; it must be in "
              "[0, 1000000000]");
    EXPECT_EQ(message({"--quick", "--jobs=2", "gpu.num_sms=4"}),
              "accepted");
}

TEST(Args, FlagTypeValidation)
{
    const char *argv[] = {"prog", "--n=abc"};
    Args args(2, const_cast<char **>(argv), {"n"});
    EXPECT_THROW(args.flagInt("n", 0), sim::FatalError);
    EXPECT_THROW(args.flagDouble("n", 0), sim::FatalError);
    EXPECT_THROW(args.flagIntList("n", {}), sim::FatalError);
}

TEST(Args, FlagIntList)
{
    const char *argv[] = {"prog", "--sizes=2,4,8", "--one=6"};
    Args args(3, const_cast<char **>(argv), {"sizes", "one"});
    EXPECT_EQ(args.flagIntList("sizes", {}),
              (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(args.flagIntList("one", {}), (std::vector<int>{6}));
    EXPECT_EQ(args.flagIntList("missing", {1, 2}),
              (std::vector<int>{1, 2}));
}

TEST(Args, OutOfRangeIntegersAreFatalNotClamped)
{
    // strtoll saturates on overflow and a cast to int truncates; both
    // used to turn a typo into a silently different run.
    const char *argv[] = {"prog", "--seed=99999999999999999999",
                          "--jobs=4294967297", "--sizes=2,4294967298",
                          "--neg=-99999999999999999999",
                          "--max=9223372036854775807",
                          "--top=2147483647", "--low=-2147483648,7"};
    Args args(8, const_cast<char **>(argv),
              {"seed", "jobs", "sizes", "neg", "max", "top", "low"});
    EXPECT_THROW(args.flagInt("seed", 0), sim::FatalError);
    EXPECT_THROW(args.flagInt("neg", 0), sim::FatalError);
    EXPECT_THROW(args.flagPositiveInt("jobs", 1), sim::FatalError);
    EXPECT_THROW(args.flagIntList("sizes", {}), sim::FatalError);
    EXPECT_THROW(args.flagPositiveInt("max", 1), sim::FatalError);
    EXPECT_THROW(args.flagIntList("max", {}), sim::FatalError);

    // The bounds themselves are accepted.
    EXPECT_EQ(args.flagInt("max", 0), INT64_MAX);
    EXPECT_EQ(args.flagPositiveInt("top", 1), INT_MAX);
    EXPECT_EQ(args.flagIntList("low", {}),
              (std::vector<int>{INT_MIN, 7}));
}

TEST(Report, TableAlignsAndCsvEscapesNothing)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"beta-long-name", "2.50"});
    EXPECT_EQ(t.rows(), 3u);

    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta-long-name"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1\nbeta-long-name,2.50\n");
}

TEST(Report, RowArityChecked)
{
    AsciiTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), sim::PanicError);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmt(1.0, 0), "1");
    EXPECT_EQ(fmtTimes(2.5), "2.50x");
}

TEST(Report, JsonObjectRendering)
{
    JsonObject o;
    o.add("name", "al\"pha\n")
        .add("x", 1.5)
        .add("n", static_cast<std::int64_t>(-3))
        .add("ok", true)
        .add("v", std::vector<double>{1.0, 2.5})
        .add("s", std::vector<std::string>{"a", "b"});
    EXPECT_EQ(o.str(),
              "{\"name\":\"al\\\"pha\\n\",\"x\":1.5,\"n\":-3,"
              "\"ok\":true,\"v\":[1,2.5],\"s\":[\"a\",\"b\"]}");
}

TEST(Report, TableJsonlKeyedByHeaders)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator(); // separators are omitted from JSONL
    t.addRow({"beta", "2.50"});

    std::ostringstream os;
    t.printJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"name\":\"alpha\",\"value\":\"1\"}\n"
              "{\"name\":\"beta\",\"value\":\"2.50\"}\n");
}

TEST(Runner, IsolatedTimesCachedAndPositive)
{
    Runner runner;
    double t1 = runner.isolatedTimeUs("sgemm", 1);
    double t2 = runner.isolatedTimeUs("sgemm", 1);
    EXPECT_GT(t1, 0.0);
    EXPECT_DOUBLE_EQ(t1, t2);
    EXPECT_EQ(runner.baselines().computations(), 1u);
}

TEST(Scheme, Labels)
{
    Scheme s;
    s.policy = "fcfs";
    EXPECT_EQ(s.label(), "fcfs");
    s.policy = "dss";
    s.mechanism = "draining";
    EXPECT_EQ(s.label(), "dss/draining");
}

TEST(Scheme, LabelIncludesNonDefaultTransferPolicy)
{
    // Two schemes differing only in transfer policy must not collide.
    Scheme fcfs_xfer{"ppq_excl", "context_switch", "fcfs"};
    Scheme prio_xfer{"ppq_excl", "context_switch", "priority"};
    EXPECT_EQ(fcfs_xfer.label(), "ppq_excl/context_switch");
    EXPECT_EQ(prio_xfer.label(),
              "ppq_excl/context_switch/priority-xfer");
    EXPECT_NE(fcfs_xfer.label(), prio_xfer.label());

    Scheme npq{"npq", "context_switch", "priority"};
    EXPECT_EQ(npq.label(), "npq/priority-xfer");
}

TEST(Runner, RunProducesConsistentMetrics)
{
    Runner runner;
    RunRequest req;
    req.plan.benchmarks = {"sgemm", "spmv"};
    req.plan.seed = 7;
    req.scheme.policy = "dss";
    req.minReplays = 2;
    RunResult result = runner.runOne(req);

    ASSERT_EQ(result.metrics.ntt.size(), 2u);
    for (double ntt : result.metrics.ntt)
        EXPECT_GT(ntt, 0.9);
    EXPECT_GT(result.metrics.stp, 0.0);
    EXPECT_LE(result.metrics.stp, 2.0 + 1e-9);
    EXPECT_GE(result.metrics.fairness, 0.0);
    EXPECT_LE(result.metrics.fairness, 1.0);
    EXPECT_GT(result.sys.kernelsCompleted, 0u);
}

TEST(Runner, ConfigOverridesReachSimulation)
{
    // Shrinking the GPU must slow the isolated run down.
    Runner big;
    double t13 = big.isolatedTimeUs("sgemm", 1);

    sim::Config small_cfg;
    small_cfg.set("gpu.num_sms", static_cast<std::int64_t>(2));
    Runner small(small_cfg);
    double t2 = small.isolatedTimeUs("sgemm", 1);

    EXPECT_GT(t2, t13);
}
