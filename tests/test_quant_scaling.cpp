/**
 * @file
 * Scaling granularities: the region grid (partition, index order and
 * index lookup), scale counts (the memory-overhead accounting of Sec.
 * 6.3), and scale values.
 */
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <string>
#include <vector>

#include "quant/scaling.h"

namespace snip {
namespace {

const Granularity kAllGranularities[] = {
    Granularity::Tensorwise, Granularity::Rowwise, Granularity::Columnwise,
    Granularity::Blockwise, Granularity::Tilewise};

/** The grid's regions in index order, for inspection. */
std::vector<std::array<int64_t, 4>>
regions(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    const RegionGrid grid(rows, cols, spec);
    std::vector<std::array<int64_t, 4>> out;
    for (int64_t i = 0; i < grid.count(); ++i) {
        const RegionGrid::Bounds b = grid.bounds(i);
        out.push_back({b.r0, b.r1, b.c0, b.c1});
    }
    return out;
}

/** Every element covered exactly once. */
void
expectPartition(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    std::vector<int> hits(static_cast<size_t>(rows * cols), 0);
    for (const auto &[r0, r1, c0, c1] : regions(rows, cols, spec))
        for (int64_t r = r0; r < r1; ++r)
            for (int64_t c = c0; c < c1; ++c)
                hits[static_cast<size_t>(r * cols + c)]++;
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Scaling, TensorwiseIsOneRegion)
{
    auto r = regions(5, 7, {Granularity::Tensorwise, 128});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], (std::array<int64_t, 4>{0, 5, 0, 7}));
}

TEST(Scaling, RowwiseOneRegionPerRow)
{
    auto r = regions(4, 9, {Granularity::Rowwise, 128});
    EXPECT_EQ(r.size(), 4u);
    expectPartition(4, 9, {Granularity::Rowwise, 128});
}

TEST(Scaling, ColumnwiseOneRegionPerColumn)
{
    EXPECT_EQ(regions(4, 9, {Granularity::Columnwise, 128}).size(), 9u);
    expectPartition(4, 9, {Granularity::Columnwise, 128});
}

TEST(Scaling, BlockwisePartitionsWithRaggedEdges)
{
    // 130x70 with 64-blocks: 3x2 block grid.
    auto r = regions(130, 70, {Granularity::Blockwise, 64});
    EXPECT_EQ(r.size(), 6u);
    expectPartition(130, 70, {Granularity::Blockwise, 64});
}

TEST(Scaling, TilewisePartitionsRowsIntoTiles)
{
    // 3 rows x 300 cols with 128-tiles: 3 * ceil(300/128)=3*3.
    auto r = regions(3, 300, {Granularity::Tilewise, 128});
    EXPECT_EQ(r.size(), 9u);
    expectPartition(3, 300, {Granularity::Tilewise, 128});
}

TEST(Scaling, ScaleCountMatchesRegionCount)
{
    // 50x130 with 32-blocks: ceil(50/32) = 2 row bands, ceil(130/32) = 5
    // column slots.
    const int64_t expected[] = {1, 50, 130, 2 * 5, 50 * 5};
    for (size_t i = 0; i < std::size(kAllGranularities); ++i) {
        const ScalingSpec spec{kAllGranularities[i], 32};
        const RegionGrid grid(50, 130, spec);
        EXPECT_EQ(grid.count(), expected[i])
            << granularityName(spec.granularity);
        EXPECT_EQ(grid.count(),
                  static_cast<int64_t>(regions(50, 130, spec).size()));
    }
}

TEST(Scaling, IndexNamesTheRegionWhoseBoundsContainIt)
{
    // Ragged in both dimensions (37 = 2*16 + 5, 53 = 3*16 + 5), plus a
    // block wider than the matrix.
    for (const Granularity g : kAllGranularities)
        for (const int block : {16, 100}) {
            const ScalingSpec spec{g, block};
            SCOPED_TRACE(std::string(granularityName(g)) + " " +
                         std::to_string(block));
            const RegionGrid grid(37, 53, spec);
            expectPartition(37, 53, spec);
            for (int64_t r = 0; r < 37; ++r)
                for (int64_t c = 0; c < 53; ++c) {
                    const int64_t i = grid.index(r, c);
                    ASSERT_GE(i, 0);
                    ASSERT_LT(i, grid.count());
                    const RegionGrid::Bounds b = grid.bounds(i);
                    EXPECT_TRUE(b.r0 <= r && r < b.r1 && b.c0 <= c &&
                                c < b.c1)
                        << "(" << r << ", " << c << ") -> " << i;
                    EXPECT_EQ(grid.colEnd(c), b.c1);
                }
            // Band-major numbering: regions ascend by (row, column) of
            // their top-left corner.
            for (int64_t i = 1; i < grid.count(); ++i) {
                const RegionGrid::Bounds a = grid.bounds(i - 1);
                const RegionGrid::Bounds b = grid.bounds(i);
                EXPECT_TRUE(a.r0 < b.r0 || (a.r0 == b.r0 && a.c0 < b.c0))
                    << i;
            }
        }
}

TEST(Scaling, DeepSeekRecipeMemoryOverheadIsTiny)
{
    // 128x128 blockwise on a 4096x4096 weight: 1024 scales for 16.7M
    // elements (< 0.01%), matching the paper's <1% memory claim.
    const int64_t scales =
        RegionGrid(4096, 4096, {Granularity::Blockwise, 128}).count();
    EXPECT_EQ(scales, 32 * 32);
    EXPECT_LT(static_cast<double>(scales) / (4096.0 * 4096.0), 0.01);
}

TEST(Scaling, RegionScaleMapsMaxAbsToFormatMax)
{
    EXPECT_DOUBLE_EQ(regionScale(2.0, 6.0), 3.0);
    EXPECT_DOUBLE_EQ(regionScale(448.0, 448.0), 1.0);
}

TEST(Scaling, ZeroRegionGetsUnitScale)
{
    EXPECT_DOUBLE_EQ(regionScale(0.0, 6.0), 1.0);
}

TEST(Scaling, MatrixViewFlattensLeadingDims)
{
    Tensor t({2, 3, 4});
    int64_t rows, cols;
    matrixView(t, rows, cols);
    EXPECT_EQ(rows, 6);
    EXPECT_EQ(cols, 4);

    Tensor v({5});
    matrixView(v, rows, cols);
    EXPECT_EQ(rows, 1);
    EXPECT_EQ(cols, 5);
}

} // namespace
} // namespace snip
