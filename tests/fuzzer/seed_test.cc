/** @file Seed serialization tests. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fuzzer/seed.hh"

namespace turbofuzz::fuzzer
{
namespace
{

/** Append a block holding @p words to @p s; returns its record. */
StimulusBlock &
addBlock(Stimulus &s, std::initializer_list<uint32_t> words)
{
    StimulusBlock &b = s.beginBlock();
    for (const uint32_t w : words)
        s.pushWord(w);
    return b;
}

Seed
sampleSeed()
{
    Seed s;
    s.id = 42;
    s.coverageIncrement = 117;
    s.insertedAt = 9;
    s.parentId = 7;
    s.originOp = 3;
    s.lineageDepth = 2;
    s.energyAtCreation = 50;
    StimulusBlock &b1 = addBlock(s.stimulus, {0x00100093, 0x00208133});
    b1.primeIdx = 1;
    b1.isControlFlow = false;
    b1.targetBlock = -1;
    b1.position = 0;
    StimulusBlock &b2 = addBlock(s.stimulus, {0x00b50863});
    b2.primeIdx = 0;
    b2.isControlFlow = true;
    b2.targetBlock = 0;
    b2.position = 1;
    return s;
}

TEST(Seed, TotalInstrs)
{
    EXPECT_EQ(sampleSeed().totalInstrs(), 3u);
    EXPECT_EQ(Seed{}.totalInstrs(), 0u);
}

TEST(Seed, SerializeRoundTrip)
{
    const Seed s = sampleSeed();
    const auto bytes = s.serialize();
    const Seed t = Seed::deserialize(bytes);

    EXPECT_EQ(t.id, s.id);
    EXPECT_EQ(t.coverageIncrement, s.coverageIncrement);
    EXPECT_EQ(t.insertedAt, s.insertedAt);
    EXPECT_EQ(t.parentId, s.parentId);
    EXPECT_EQ(t.originOp, s.originOp);
    EXPECT_EQ(t.lineageDepth, s.lineageDepth);
    EXPECT_EQ(t.energyAtCreation, s.energyAtCreation);
    EXPECT_EQ(t.stimulus.words, s.stimulus.words);
    ASSERT_EQ(t.stimulus.blocks.size(), s.stimulus.blocks.size());
    for (size_t i = 0; i < s.stimulus.blocks.size(); ++i) {
        const StimulusBlock &a = t.stimulus.blocks[i];
        const StimulusBlock &b = s.stimulus.blocks[i];
        EXPECT_EQ(a.offset, b.offset);
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.primeIdx, b.primeIdx);
        EXPECT_EQ(a.isControlFlow, b.isControlFlow);
        EXPECT_EQ(a.targetBlock, b.targetBlock);
        EXPECT_EQ(a.position, b.position);
    }
}

TEST(Seed, RandomRoundTripProperty)
{
    // Property test: arbitrary well-formed seeds survive the
    // serialize -> deserialize round trip bit-exactly.
    Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 50; ++trial) {
        Seed s;
        s.id = rng.range(1 << 30);
        s.coverageIncrement = rng.range(1 << 20);
        s.insertedAt = rng.range(1 << 20);
        s.parentId = rng.range(1 << 30);
        s.originOp = static_cast<uint8_t>(rng.range(4));
        s.lineageDepth = static_cast<uint32_t>(rng.range(64));
        s.energyAtCreation = rng.range(1 << 10);
        const size_t nblocks = rng.range(20);
        for (size_t b = 0; b < nblocks; ++b) {
            s.stimulus.beginBlock();
            const size_t ninsns = 1 + rng.range(6);
            for (size_t i = 0; i < ninsns; ++i)
                s.stimulus.pushWord(
                    static_cast<uint32_t>(rng.range(~0u)));
            StimulusBlock &blk = s.stimulus.blocks.back();
            blk.primeIdx =
                static_cast<uint32_t>(rng.range(ninsns));
            blk.isControlFlow = rng.range(2) == 1;
            blk.targetBlock =
                static_cast<int32_t>(rng.range(nblocks + 1)) - 1;
            blk.position = static_cast<uint32_t>(b);
        }
        const auto bytes = s.serialize();
        const Seed t = Seed::deserialize(bytes);
        EXPECT_EQ(t.id, s.id);
        EXPECT_EQ(t.parentId, s.parentId);
        EXPECT_EQ(t.originOp, s.originOp);
        EXPECT_EQ(t.lineageDepth, s.lineageDepth);
        EXPECT_EQ(t.energyAtCreation, s.energyAtCreation);
        EXPECT_TRUE(t.stimulus == s.stimulus);
        EXPECT_EQ(t.serialize(), bytes);
    }
}

TEST(Seed, TruncatedInputRejectedAtEveryLength)
{
    const auto bytes = sampleSeed().serialize();
    // Every proper prefix must be rejected without throwing anything
    // but the typed error — and without asserting.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<uint8_t> t(bytes.begin(),
                                     bytes.begin() +
                                         static_cast<long>(cut));
        std::string error;
        EXPECT_FALSE(Seed::tryDeserialize(t, &error).has_value())
            << "prefix length " << cut;
        EXPECT_FALSE(error.empty());
        EXPECT_THROW(Seed::deserialize(t), SeedFormatError);
    }
}

TEST(Seed, CorruptLengthFieldsCannotTriggerHugeAllocations)
{
    const auto bytes = sampleSeed().serialize();

    // Corrupt the block count (offset 45, after the 45-byte header)
    // to ~4 billion: must be rejected by bounds validation, not
    // attempted as a resize.
    std::vector<uint8_t> huge_blocks = bytes;
    huge_blocks[45] = huge_blocks[46] = huge_blocks[47] =
        huge_blocks[48] = 0xFF;
    std::string error;
    EXPECT_FALSE(
        Seed::tryDeserialize(huge_blocks, &error).has_value());
    EXPECT_NE(error.find("block count"), std::string::npos);

    // Corrupt the first block's instruction count (offset 49).
    std::vector<uint8_t> huge_insns = bytes;
    huge_insns[49] = huge_insns[50] = huge_insns[51] =
        huge_insns[52] = 0xFF;
    EXPECT_FALSE(
        Seed::tryDeserialize(huge_insns, &error).has_value());
    EXPECT_NE(error.find("instruction count"), std::string::npos);
}

TEST(Seed, TrailingBytesRejected)
{
    auto bytes = sampleSeed().serialize();
    bytes.push_back(0xAB);
    std::string error;
    EXPECT_FALSE(Seed::tryDeserialize(bytes, &error).has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos);
    EXPECT_THROW(Seed::deserialize(bytes), SeedFormatError);
}

TEST(Seed, OutOfRangePrimeIndexRejected)
{
    Seed s = sampleSeed();
    auto bytes = s.serialize();
    // First block: ninsns at 45+4, insns follow; primeIdx sits at
    // offset 49 + 4 + 8 = 61. Point it past the block.
    bytes[61] = 9;
    EXPECT_FALSE(Seed::tryDeserialize(bytes).has_value());
}

TEST(Seed, EmptyControlFlowBlockRejected)
{
    // Consumers index a block's prime word unconditionally (patching
    // control flow, mutating retained blocks), so a crafted empty
    // block must not parse — control-flow or not.
    for (const bool control_flow : {true, false}) {
        Seed s;
        s.stimulus.beginBlock().isControlFlow = control_flow;
        std::string error;
        EXPECT_FALSE(
            Seed::tryDeserialize(s.serialize(), &error).has_value())
            << "control flow " << control_flow;
        EXPECT_NE(error.find("without instructions"), std::string::npos);
        EXPECT_THROW(Seed::deserialize(s.serialize()), SeedFormatError);
    }
}

TEST(Seed, SerializedSizeFitsBramBudget)
{
    // The area model stores seeds in ~11 KiB slots; a 4000-instruction
    // seed must fit.
    Seed s;
    for (int b = 0; b < 1600; ++b) {
        StimulusBlock &blk = addBlock(s.stimulus, {0x13, 0x13, 0x13});
        blk.primeIdx = 2;
        blk.position = static_cast<uint32_t>(b);
    }
    EXPECT_EQ(s.totalInstrs(), 4800u);
    // Worst case ~ 4 bytes/instr + 13 bytes/block metadata + header.
    EXPECT_LT(s.serialize().size(), 48000u);
}

TEST(Stimulus, AppendBlocksCopiesWordsAndRecords)
{
    const Stimulus src = sampleSeed().stimulus;
    Stimulus dst;
    addBlock(dst, {0x13});
    dst.appendBlocks(src, 1, 1);
    dst.appendBlocks(src, 0, 2);
    dst.appendBlocks(src, 0, 0);
    EXPECT_EQ(dst.words,
              (std::vector<uint32_t>{0x13, 0x00b50863, 0x00100093,
                                     0x00208133, 0x00b50863}));
    ASSERT_EQ(dst.blocks.size(), 4u);
    EXPECT_EQ(dst.blocks[1].offset, 1u);
    EXPECT_EQ(dst.blocks[1].count, 1u);
    EXPECT_TRUE(dst.blocks[1].isControlFlow);
    EXPECT_EQ(dst.blocks[1].targetBlock, 0);
    EXPECT_EQ(dst.blocks[1].position, 1u);
    EXPECT_EQ(dst.blocks[2].offset, 2u);
    EXPECT_EQ(dst.blocks[2].primeIdx, 1u);
    EXPECT_EQ(dst.primeWord(2), 0x00208133u);
    EXPECT_EQ(dst.blocks[3].offset, 4u);
    EXPECT_EQ(dst.primeWord(3), 0x00b50863u);
    EXPECT_EQ(dst.totalInstrs(), 5u);
}

TEST(Stimulus, TruncateKeepsLeadingBlocks)
{
    Stimulus s = sampleSeed().stimulus;
    s.truncate(5);
    EXPECT_EQ(s.blocks.size(), 2u);
    s.truncate(1);
    EXPECT_EQ(s.blocks.size(), 1u);
    EXPECT_EQ(s.words, (std::vector<uint32_t>{0x00100093, 0x00208133}));
    s.truncate(0);
    EXPECT_TRUE(s.blocks.empty());
    EXPECT_TRUE(s.words.empty());
}

TEST(Stimulus, EraseWordShiftsLaterBlocks)
{
    Stimulus s;
    addBlock(s, {1, 2, 3}).primeIdx = 2;
    addBlock(s, {4, 5}).primeIdx = 1;
    addBlock(s, {6});
    s.eraseWord(0, 0); // before the prime: the prime index follows
    EXPECT_EQ(s.words, (std::vector<uint32_t>{2, 3, 4, 5, 6}));
    EXPECT_EQ(s.blocks[0].count, 2u);
    EXPECT_EQ(s.blocks[0].primeIdx, 1u);
    EXPECT_EQ(s.primeWord(0), 3u);
    EXPECT_EQ(s.blocks[1].offset, 2u);
    EXPECT_EQ(s.blocks[2].offset, 4u);
    s.eraseWord(1, 0);
    EXPECT_EQ(s.words, (std::vector<uint32_t>{2, 3, 5, 6}));
    EXPECT_EQ(s.primeWord(1), 5u);
    EXPECT_EQ(s.blocks[2].offset, 3u);
    EXPECT_EQ(s.blockWords(2)[0], 6u);
}

} // namespace
} // namespace turbofuzz::fuzzer
