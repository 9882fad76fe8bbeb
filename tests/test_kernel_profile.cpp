/**
 * Golden tests against Table 1 of the paper.
 *
 * For every one of the 24 kernels, the occupancy (TBs/SM), SM
 * resource fraction (Resour./SM %) and projected context save time
 * must match the published values to the table's printed precision.
 * These three derived quantities pin the whole context-switch cost
 * model, so they are tested exhaustively (parameterized over the
 * suite).
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/gpu_config.hh"
#include "memory/gpu_memory.hh"
#include "trace/parboil.hh"

using namespace gpump;

namespace {

/** One expected Table 1 row (derived columns only). */
struct Table1Row
{
    const char *fullName;
    int tbsPerSm;      // "TBs /SM"
    double resourcePct; // "Resour. /SM (%)"
    double saveTimeUs; // "Save Time (us)"
};

// Transcribed from Table 1 of the paper.
const Table1Row table1Rows[] = {
    {"lbm.StreamCollide", 15, 83.26, 16.20},
    {"histo.final", 3, 75.00, 14.59},
    {"histo.prescan", 4, 52.63, 10.24},
    {"histo.intermediates", 4, 46.07, 8.96},
    {"histo.main", 1, 29.61, 5.76},
    {"tpacf.genhists", 1, 14.14, 2.75},
    {"spmv.spmvjds", 16, 19.08, 3.71},
    {"mri-q.ComputeQ", 8, 55.26, 10.75},
    {"mri-q.ComputePhiMag", 4, 31.58, 6.14},
    {"sad.largersadcalc8", 16, 68.42, 13.31},
    {"sad.largersadcalc16", 16, 17.11, 3.33},
    {"sad.mbsadcalc", 7, 24.20, 4.71},
    {"sgemm.mysgemmNT", 14, 82.89, 16.13},
    {"stencil.block2Dregtiling", 1, 53.95, 10.50},
    {"cutcp.lattice6overlap", 3, 16.80, 3.27},
    {"mri-gridding.binning", 4, 21.05, 4.10},
    {"mri-gridding.scaninter1", 16, 27.54, 5.36},
    {"mri-gridding.scanL1", 3, 39.74, 7.73},
    {"mri-gridding.uniformAdd", 4, 21.07, 4.10},
    {"mri-gridding.reorder", 4, 42.11, 8.19},
    {"mri-gridding.splitSort", 3, 43.79, 8.52},
    {"mri-gridding.griddingGPU", 10, 51.81, 10.08},
    {"mri-gridding.splitRearrange", 3, 26.71, 5.20},
    {"mri-gridding.scaninter2", 16, 27.54, 5.36},
};

const trace::KernelProfile &
profileByName(const std::string &full_name)
{
    for (const trace::KernelProfile *k : trace::allKernelProfiles()) {
        if (k->fullName() == full_name)
            return *k;
    }
    ADD_FAILURE() << "kernel " << full_name << " not in the suite";
    static trace::KernelProfile dummy;
    return dummy;
}

class Table1Test : public ::testing::TestWithParam<Table1Row>
{
};

} // namespace

TEST_P(Table1Test, OccupancyMatchesPublishedTbsPerSm)
{
    const Table1Row &row = GetParam();
    const trace::KernelProfile &k = profileByName(row.fullName);
    gpu::GpuParams params;
    EXPECT_EQ(gpu::maxTbsPerSm(k, params), row.tbsPerSm);
}

TEST_P(Table1Test, ResourceFractionMatchesPublishedPercent)
{
    const Table1Row &row = GetParam();
    const trace::KernelProfile &k = profileByName(row.fullName);
    gpu::GpuParams params;
    double pct = 100.0 * gpu::smResourceFraction(k, params);
    EXPECT_NEAR(pct, row.resourcePct, 0.05)
        << "context footprint model diverges from Table 1";
}

TEST_P(Table1Test, SaveTimeMatchesPublishedMicroseconds)
{
    const Table1Row &row = GetParam();
    const trace::KernelProfile &k = profileByName(row.fullName);
    gpu::GpuParams params;
    memory::GpuMemory gmem(memory::GpuMemoryParams{});
    sim::SimTime save =
        gmem.moveTime(gpu::smContextBytes(k, params), params.numSms);
    EXPECT_NEAR(sim::toMicroseconds(save), row.saveTimeUs, 0.01)
        << "save time = contextBytes / (208 GB/s / 13) violated";
}

TEST_P(Table1Test, TimePerTbConsistentWithSingleSmSerialization)
{
    // The authors derived Time/TB as AvgTime * TBsPerSM / numTBs
    // (see DESIGN.md); our transcription must satisfy the same
    // relation to the table's printed precision.
    const Table1Row &row = GetParam();
    const trace::KernelProfile &k = profileByName(row.fullName);
    gpu::GpuParams params;
    double derived = k.avgTimeUs *
        static_cast<double>(gpu::maxTbsPerSm(k, params)) /
        static_cast<double>(k.numThreadBlocks);
    // Tolerance note: the relation is exact to rounding for 22 of 24
    // rows; the two tiny scaninter kernels (29 TBs) deviate by up to
    // 0.06 us in the published table itself.
    EXPECT_NEAR(derived, k.timePerTbUs, 0.07)
        << "Avg Time, TBs and Time/TB columns are inconsistent";
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, Table1Test, ::testing::ValuesIn(table1Rows),
    [](const ::testing::TestParamInfo<Table1Row> &info) {
        std::string name = info.param.fullName;
        for (char &c : name) {
            if (c == '.' || c == '-')
                c = '_';
        }
        return name;
    });

TEST(Table1, SuiteHasExactly24Kernels)
{
    EXPECT_EQ(trace::allKernelProfiles().size(), 24u);
    EXPECT_EQ(sizeof(table1Rows) / sizeof(table1Rows[0]), 24u);
}

TEST(Table1, ContextBytesFormula)
{
    // 4 bytes per register plus the shared-memory partition.
    trace::KernelProfile k;
    k.regsPerTb = 100;
    k.sharedMemPerTb = 77;
    EXPECT_EQ(k.contextBytesPerTb(), 477);
}
