/**
 * End-to-end runs of every examples/ binary.
 *
 * The build injects GPUMP_EXAMPLES_BINDIR (directory holding the
 * example_<name> binaries) and GPUMP_EXAMPLE_LIST (comma-separated
 * example names).  Each example must run to completion and exit 0;
 * this keeps the examples from silently rotting as the simulator
 * evolves.  When benches are built, GPUMP_BENCH_BINDIR names their
 * directory, and one bench joins one example in the rejected-argument
 * check: exit 2 with an "error:" line, never an uncaught-exception
 * abort.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#ifndef GPUMP_EXAMPLE_LIST
#error "build must define GPUMP_EXAMPLE_LIST"
#endif
#ifndef GPUMP_EXAMPLES_BINDIR
#error "build must define GPUMP_EXAMPLES_BINDIR"
#endif

namespace {

std::vector<std::string>
exampleNames()
{
    std::vector<std::string> names;
    std::stringstream ss(GPUMP_EXAMPLE_LIST);
    std::string name;
    while (std::getline(ss, name, ','))
        if (!name.empty())
            names.push_back(name);
    return names;
}

class RunExample : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunExample, ExitsZero)
{
    const std::string binary =
        std::string(GPUMP_EXAMPLES_BINDIR) + "/example_" + GetParam();
    // Quote the path: the build tree may live under a directory with
    // spaces, and std::system goes through the shell.
    const std::string command = "\"" + binary + "\"";
    const int status = std::system(command.c_str());
    ASSERT_NE(status, -1) << "failed to spawn " << binary;
#ifdef WIFEXITED
    ASSERT_TRUE(WIFEXITED(status))
        << binary << " terminated abnormally (status " << status << ")";
    EXPECT_EQ(WEXITSTATUS(status), 0) << binary << " exited non-zero";
#else
    EXPECT_EQ(status, 0) << binary << " exited non-zero";
#endif
}

INSTANTIATE_TEST_SUITE_P(Examples, RunExample,
                         ::testing::ValuesIn(exampleNames()),
                         [](const auto &info) { return info.param; });

/** Run @p binary with @p args, which it must reject: exit status 2
 *  and an "error: " line on stderr, not std::terminate's abort. */
void
expectRejected(const std::string &binary, const std::string &args)
{
    // Keep stderr, drop stdout.
    const std::string command =
        "\"" + binary + "\" " + args + " 2>&1 >/dev/null";
    FILE *pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << "failed to spawn " << binary;
    std::string err;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        err += buf;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status))
        << binary << " terminated abnormally (status " << status
        << "): " << err;
    EXPECT_EQ(WEXITSTATUS(status), 2) << binary << ": " << err;
    EXPECT_EQ(err.rfind("error: ", 0), 0u) << binary << ": " << err;
    EXPECT_EQ(err.find("terminate called"), std::string::npos)
        << binary << ": " << err;
}

TEST(RejectedArgument, ExampleExitsTwo)
{
    expectRejected(std::string(GPUMP_EXAMPLES_BINDIR) +
                       "/example_quickstart",
                   "notakey");
}

#ifdef GPUMP_BENCH_BINDIR
TEST(RejectedArgument, BenchExitsTwo)
{
    expectRejected(std::string(GPUMP_BENCH_BINDIR) + "/bench_fig7_dss",
                   "--quick --jobs=0");
}
#endif

} // namespace

// ValuesIn on an empty list would make the suite vacuous; fail loudly
// instead if the build wired up no examples.
TEST(RunExampleSetup, AtLeastOneExampleConfigured)
{
    EXPECT_FALSE(exampleNames().empty());
}
