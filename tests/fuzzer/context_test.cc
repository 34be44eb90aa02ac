/** @file Global execution context metadata tests. */

#include <gtest/gtest.h>

#include "fuzzer/context.hh"

namespace turbofuzz::fuzzer
{
namespace
{

TEST(FuzzContext, RecordsBlocksAndCounts)
{
    MemoryLayout lay;
    FuzzContext ctx(lay);
    EXPECT_EQ(ctx.cumulativeInstrCount(), 0u);
    EXPECT_EQ(ctx.nextAddress(), lay.instrBase);

    ctx.recordBlock(lay.instrBase, 4);
    EXPECT_EQ(ctx.cumulativeInstrCount(), 4u);
    EXPECT_EQ(ctx.nextAddress(), lay.instrBase + 16);

    ctx.recordBlock(lay.instrBase + 16, 2);
    EXPECT_EQ(ctx.cumulativeInstrCount(), 6u);
    EXPECT_EQ(ctx.nextAddress(), lay.instrBase + 24);
}

TEST(FuzzContext, FinalizeRecordsBoundary)
{
    MemoryLayout lay;
    FuzzContext ctx(lay);
    ctx.recordBlock(lay.instrBase, 8);
    ctx.finalize();
    EXPECT_EQ(ctx.codeBoundary(), lay.instrBase + 32);
}

TEST(FuzzContext, BeginIterationResets)
{
    MemoryLayout lay;
    FuzzContext ctx(lay);
    ctx.recordBlock(lay.instrBase, 8);
    ctx.beginIteration();
    EXPECT_EQ(ctx.cumulativeInstrCount(), 0u);
    EXPECT_EQ(ctx.nextAddress(), lay.instrBase);
}

TEST(FuzzContext, HasRoomChecksSegmentBounds)
{
    MemoryLayout lay;
    lay.instrSize = 64; // 16 instructions
    FuzzContext ctx(lay);
    EXPECT_TRUE(ctx.hasRoom(16));
    EXPECT_FALSE(ctx.hasRoom(17));
    ctx.recordBlock(lay.instrBase, 10);
    EXPECT_TRUE(ctx.hasRoom(6));
    EXPECT_FALSE(ctx.hasRoom(7));
}

TEST(FuzzContext, MisalignedBlockPanics)
{
    MemoryLayout lay;
    FuzzContext ctx(lay);
    EXPECT_DEATH(ctx.recordBlock(lay.instrBase + 2, 1),
                 "word aligned");
}

TEST(FuzzContext, OutOfSegmentBlockPanics)
{
    MemoryLayout lay;
    FuzzContext ctx(lay);
    EXPECT_DEATH(ctx.recordBlock(lay.instrBase + lay.instrSize, 1),
                 "escapes");
}

TEST(MemoryLayoutTest, DefaultsBelowTwoGiB)
{
    // lui/auipc materialization relies on all segments sitting below
    // 2 GiB (sign-extension safety).
    MemoryLayout lay;
    EXPECT_LT(lay.instrBase + lay.instrSize, 1ull << 31);
    EXPECT_LT(lay.dataBase + lay.dataSize, 1ull << 31);
    EXPECT_LT(lay.handlerBase, 1ull << 31);
    // Segments must not overlap.
    EXPECT_LE(lay.instrBase + lay.instrSize, lay.handlerBase);
    EXPECT_LE(lay.handlerBase + 4096, lay.dataBase);
}

} // namespace
} // namespace turbofuzz::fuzzer
