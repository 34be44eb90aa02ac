/** @file Direct-mode block construction and mutation tests. */

#include <gtest/gtest.h>

#include "fuzzer/block_builder.hh"
#include "harness/campaign.hh"
#include "isa/disasm.hh"

namespace turbofuzz::fuzzer
{
namespace
{

class BlockBuilderTest : public ::testing::Test
{
  protected:
    BlockBuilderTest()
        : lib(isa::InstructionLibrary{}),
          builder(layout, &lib, GenProbs{}), rng(7)
    {
        lib.exclude(isa::Opcode::Mret);
    }

    /** A fresh stimulus holding one newly built block. */
    Stimulus
    buildOne()
    {
        Stimulus st;
        builder.appendRandomBlock(st, rng);
        return st;
    }

    MemoryLayout layout;
    isa::InstructionLibrary lib;
    BlockBuilder builder;
    Rng rng;
};

TEST_F(BlockBuilderTest, EveryBlockDecodesCompletely)
{
    for (int i = 0; i < 2000; ++i) {
        const Stimulus st = buildOne();
        ASSERT_EQ(st.blocks.size(), 1u);
        ASSERT_EQ(st.blocks[0].count, st.words.size());
        ASSERT_FALSE(st.words.empty());
        ASSERT_LT(st.blocks[0].primeIdx, st.words.size());
        for (uint32_t w : st.words)
            EXPECT_TRUE(isa::decode(w).valid)
                << isa::disassemble(w);
    }
}

TEST_F(BlockBuilderTest, AppendedBlocksAreContiguous)
{
    // Appending to one stimulus draws the same stream as building
    // each block alone, and lays the blocks end to end.
    Rng solo_rng(11);
    rng = Rng(11);
    Stimulus all;
    std::vector<uint32_t> expect_words;
    for (int i = 0; i < 200; ++i) {
        builder.appendRandomBlock(all, rng);
        Stimulus one;
        builder.appendRandomBlock(one, solo_rng);
        const StimulusBlock &b = all.blocks.back();
        EXPECT_EQ(b.offset, expect_words.size());
        EXPECT_EQ(b.count, one.blocks[0].count);
        EXPECT_EQ(b.primeIdx, one.blocks[0].primeIdx);
        expect_words.insert(expect_words.end(), one.words.begin(),
                            one.words.end());
    }
    EXPECT_EQ(all.words, expect_words);
}

TEST_F(BlockBuilderTest, ControlFlowFlagMatchesPrime)
{
    int cf_blocks = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const Stimulus st = buildOne();
        const isa::Decoded d = isa::decode(st.primeWord(0));
        EXPECT_EQ(st.blocks[0].isControlFlow, d.desc->isControlFlow());
        cf_blocks += st.blocks[0].isControlFlow;
    }
    // The control-flow share steers toward the paper's 1:5-ish mix.
    const double share = static_cast<double>(cf_blocks) / n;
    EXPECT_GT(share, 0.30);
    EXPECT_LT(share, 0.55);
}

TEST_F(BlockBuilderTest, MemoryBlocksStageTheirOwnAddress)
{
    // Memory primes must use the scratch register staged inside the
    // block (never rely on live-in register state).
    for (int i = 0; i < 3000; ++i) {
        const Stimulus st = buildOne();
        const isa::Decoded d = isa::decode(st.primeWord(0));
        if (!d.desc->isMemAccess())
            continue;
        EXPECT_EQ(d.ops.rs1, MemoryLayout::regScratch)
            << isa::disassemble(st.primeWord(0));
        // A staging instruction writing x30 precedes the prime.
        bool staged = false;
        for (uint32_t k = 0; k < st.blocks[0].primeIdx; ++k) {
            const isa::Decoded s = isa::decode(st.words[k]);
            staged |= s.valid &&
                      s.ops.rd == MemoryLayout::regScratch &&
                      s.desc->has(isa::FlagWritesRd);
        }
        EXPECT_TRUE(staged);
    }
}

TEST_F(BlockBuilderTest, AtomicsAreAlignmentMasked)
{
    for (int i = 0; i < 4000; ++i) {
        const Stimulus st = buildOne();
        const isa::Decoded d = isa::decode(st.primeWord(0));
        if (!d.desc->has(isa::FlagAtomic))
            continue;
        // An andi x30, x30, -size precedes the prime.
        bool masked = false;
        for (uint32_t k = 0; k < st.blocks[0].primeIdx; ++k) {
            const isa::Decoded s = isa::decode(st.words[k]);
            masked |= s.valid && s.op == isa::Opcode::Andi &&
                      s.ops.rd == MemoryLayout::regScratch &&
                      (s.ops.imm == -4 || s.ops.imm == -8);
        }
        EXPECT_TRUE(masked)
            << isa::disassemble(st.primeWord(0));
        EXPECT_EQ(d.ops.imm, 0);
    }
}

TEST_F(BlockBuilderTest, CsrPrimesAvoidMtvec)
{
    for (int i = 0; i < 4000; ++i) {
        const Stimulus st = buildOne();
        const isa::Decoded d = isa::decode(st.primeWord(0));
        if (d.valid && d.desc->has(isa::FlagCsr))
            EXPECT_NE(d.ops.csr, isa::csr::mtvec);
    }
}

TEST_F(BlockBuilderTest, MutationPreservesOpcodeAndValidity)
{
    for (int i = 0; i < 2000; ++i) {
        Stimulus st = buildOne();
        const isa::Opcode before =
            isa::decode(st.primeWord(0)).op;
        builder.mutateOperands(st, 0, rng);
        const isa::Decoded after = isa::decode(st.primeWord(0));
        ASSERT_TRUE(after.valid);
        EXPECT_EQ(after.op, before);
    }
}

TEST_F(BlockBuilderTest, MutationKeepsMemoryAddressingBound)
{
    for (int i = 0; i < 4000; ++i) {
        Stimulus st = buildOne();
        const isa::Decoded before = isa::decode(st.primeWord(0));
        if (!before.desc->isMemAccess())
            continue;
        for (int m = 0; m < 8; ++m)
            builder.mutateOperands(st, 0, rng);
        const isa::Decoded after = isa::decode(st.primeWord(0));
        EXPECT_EQ(after.ops.rs1, MemoryLayout::regScratch);
        EXPECT_EQ(after.ops.imm, before.ops.imm);
    }
}

TEST(PcrelHiLo, SplitsCorrectly)
{
    for (int64_t delta : {0l, 4l, -4l, 2047l, 2048l, -2048l, -2049l,
                          0x12345l, -0x54321l, (1l << 30)}) {
        int64_t hi, lo;
        pcrelHiLo(delta, hi, lo);
        EXPECT_EQ((hi << 12) + lo, delta) << delta;
        EXPECT_GE(lo, -2048);
        EXPECT_LE(lo, 2047);
    }
}

TEST(GenProbsTest, ValidRmOnlyProducesNoReservedModes)
{
    isa::InstructionLibrary lib;
    lib.exclude(isa::Opcode::Mret);
    GenProbs probs;
    probs.validRmOnly = true;
    MemoryLayout layout;
    BlockBuilder builder(layout, &lib, probs);
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        Stimulus st;
        builder.appendRandomBlock(st, rng);
        const isa::Decoded d = isa::decode(st.primeWord(0));
        if (d.desc->has(isa::FlagHasRm))
            EXPECT_LT(d.ops.rm, 5);
    }
}

} // namespace
} // namespace turbofuzz::fuzzer
