/** Unit tests for the frame allocator and page tables. */

#include <gtest/gtest.h>

#include "memory/page_table.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::memory;

TEST(FrameAllocator, HandsOutDistinctFrames)
{
    FrameAllocator fa(4);
    EXPECT_EQ(fa.totalFrames(), 4u);
    auto a = fa.allocate();
    auto b = fa.allocate();
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
    EXPECT_EQ(fa.freeFrames(), 2u);
}

TEST(FrameAllocator, ExhaustionAndRecycling)
{
    FrameAllocator fa(2);
    auto a = fa.allocate();
    auto b = fa.allocate();
    EXPECT_FALSE(fa.allocate().has_value());
    fa.release(*a);
    auto c = fa.allocate();
    ASSERT_TRUE(c);
    EXPECT_EQ(*c, *a);
    (void)b;
}

TEST(FrameAllocator, DoubleReleasePanics)
{
    // A double free would put the frame on the free list twice, and
    // two later allocations would hand the SAME physical frame to two
    // page tables — silent aliasing between address spaces.
    FrameAllocator fa(4);
    auto a = fa.allocate();
    ASSERT_TRUE(a);
    fa.release(*a);
    EXPECT_THROW(fa.release(*a), sim::PanicError);
    EXPECT_EQ(fa.freeFrames(), 4u) << "failed release changes nothing";
}

TEST(FrameAllocator, ReleaseOfUnalignedFramePanics)
{
    FrameAllocator fa(4);
    auto a = fa.allocate();
    ASSERT_TRUE(a);
    EXPECT_THROW(fa.release(*a + 1), sim::PanicError)
        << "frame bases are page-aligned by construction";
}

TEST(FrameAllocator, ReleaseOfNeverAllocatedFramePanics)
{
    FrameAllocator fa(4);
    (void)fa.allocate();
    // Frame base beyond anything the allocator ever handed out.
    EXPECT_THROW(fa.release(10 * gpuPageBytes), sim::PanicError);
}

TEST(PageTable, MapTranslateUnmap)
{
    FrameAllocator fa(16);
    PageTable pt(fa);
    ASSERT_TRUE(pt.map(0, 3 * gpuPageBytes));
    EXPECT_EQ(pt.mappedPages(), 3u);

    auto t0 = pt.translate(100);
    auto t1 = pt.translate(gpuPageBytes + 5);
    ASSERT_TRUE(t0 && t1);
    EXPECT_EQ(*t0 % gpuPageBytes, 100u);
    EXPECT_EQ(*t1 % gpuPageBytes, 5u);

    EXPECT_FALSE(pt.translate(10 * gpuPageBytes).has_value())
        << "unmapped access is a fault";

    pt.unmap(0, gpuPageBytes);
    EXPECT_FALSE(pt.translate(100).has_value());
    EXPECT_TRUE(pt.translate(gpuPageBytes + 5).has_value());
}

TEST(PageTable, PartialPageRoundsToWholePages)
{
    FrameAllocator fa(16);
    PageTable pt(fa);
    ASSERT_TRUE(pt.map(gpuPageBytes / 2, gpuPageBytes)); // spans 2 pages
    EXPECT_EQ(pt.mappedPages(), 2u);
}

TEST(PageTable, FailedMapRollsBack)
{
    FrameAllocator fa(2);
    PageTable pt(fa);
    EXPECT_FALSE(pt.map(0, 3 * gpuPageBytes));
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_EQ(fa.freeFrames(), 2u) << "no frames leaked";
}

TEST(PageTable, SeparateAddressSpaces)
{
    FrameAllocator fa(16);
    PageTable a(fa), b(fa);
    ASSERT_TRUE(a.map(0, gpuPageBytes));
    ASSERT_TRUE(b.map(0, gpuPageBytes));
    auto ta = a.translate(0);
    auto tb = b.translate(0);
    ASSERT_TRUE(ta && tb);
    EXPECT_NE(*ta, *tb)
        << "same virtual page of two contexts maps to distinct frames";
}

TEST(PageTable, DestructorReleasesFrames)
{
    FrameAllocator fa(4);
    {
        PageTable pt(fa);
        ASSERT_TRUE(pt.map(0, 4 * gpuPageBytes));
        EXPECT_EQ(fa.freeFrames(), 0u);
    }
    EXPECT_EQ(fa.freeFrames(), 4u);
}
