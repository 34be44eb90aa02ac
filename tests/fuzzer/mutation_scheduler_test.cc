/** @file Mutation-scheduler policy tests (static + bandit). */

#include <gtest/gtest.h>

#include <map>

#include "fuzzer/mutation_scheduler.hh"
#include "fuzzer/turbofuzzer.hh"
#include "harness/campaign.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{
namespace
{

TEST(SchedulerKindTest, NamesRoundTrip)
{
    for (SchedulerKind kind :
         {SchedulerKind::Static, SchedulerKind::Bandit}) {
        SchedulerKind parsed{};
        ASSERT_TRUE(schedulerKindFromString(
            std::string(schedulerKindName(kind)), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    SchedulerKind parsed{};
    EXPECT_FALSE(schedulerKindFromString("greedy", &parsed));
}

TEST(StaticScheduler, ReproducesTheInlineDrawBitExactly)
{
    // The refactoring contract: pickOp must consume exactly one
    // rng.range(16) per decision and map it through the historical
    // r < gen ? Generate : r < gen + del ? Delete : Retain ladder, so
    // default campaigns reproduce pre-refactor stimulus bit-exactly.
    StaticScheduler sched(3, 11, {3, 4});
    Rng a(42), b(42);
    for (int i = 0; i < 4096; ++i) {
        const uint64_t r = b.range(16);
        const MutOp expected = r < 3    ? MutOp::Generate
                               : r < 14 ? MutOp::Delete
                                        : MutOp::Retain;
        EXPECT_EQ(sched.pickOp(a), expected) << "pick " << i;
        EXPECT_EQ(a.rawState(), b.rawState()) << "pick " << i;
    }
    EXPECT_EQ(sched.prioritizeProb().num, 3u);
    EXPECT_EQ(sched.prioritizeProb().den, 4u);
    EXPECT_EQ(sched.seedEnergy(1000), 1u); // reselect every iteration
}

TEST(StaticScheduler, MisconfiguredMixDiesWithDiagnostic)
{
    EXPECT_EXIT((void)MutationScheduler::make(SchedulerKind::Static,
                                              12, 12, {3, 4}),
                ::testing::ExitedWithCode(1), "misconfigured");
}

TEST(BanditScheduler, EveryArmKeepsAFloorSixteenth)
{
    BanditScheduler sched(3, 11, {3, 4});
    Rng rng(7);
    // Strongly reward Generate only, for many rounds.
    for (int round = 0; round < 200; ++round) {
        bool used_generate = false;
        for (int i = 0; i < 16; ++i)
            used_generate |= sched.pickOp(rng) == MutOp::Generate;
        sched.reportIteration(used_generate ? 50 : 0);
    }
    uint32_t total = 0;
    for (MutOp op : {MutOp::Generate, MutOp::Delete, MutOp::Retain}) {
        EXPECT_GE(sched.armSixteenths(op), 1u);
        total += sched.armSixteenths(op);
    }
    EXPECT_EQ(total, 16u);
}

TEST(BanditScheduler, ProfitShiftsTheMixTowardTheProfitableArm)
{
    BanditScheduler sched(3, 11, {3, 4});
    Rng rng(99);
    // Iterations that used Generate yield coverage; others none.
    for (int round = 0; round < 300; ++round) {
        std::map<MutOp, int> uses;
        for (int i = 0; i < 8; ++i)
            uses[sched.pickOp(rng)]++;
        sched.reportIteration(uses[MutOp::Generate] > 0 ? 40 : 0);
    }
    EXPECT_GT(sched.armSixteenths(MutOp::Generate),
              sched.armSixteenths(MutOp::Delete));
    EXPECT_GT(sched.armSixteenths(MutOp::Generate),
              sched.armSixteenths(MutOp::Retain));
}

TEST(BanditScheduler, PrioritizeProbabilityAdaptsWithinBounds)
{
    BanditScheduler sched(3, 11, {3, 4});
    Rng rng(5);
    // Droughts decay toward 8/16...
    for (int i = 0; i < 32; ++i) {
        sched.pickOp(rng);
        sched.reportIteration(0);
    }
    EXPECT_EQ(sched.prioritizeProb().num, 8u);
    EXPECT_EQ(sched.prioritizeProb().den, 16u);
    // ...progress climbs toward 15/16.
    for (int i = 0; i < 32; ++i) {
        sched.pickOp(rng);
        sched.reportIteration(9);
    }
    EXPECT_EQ(sched.prioritizeProb().num, 15u);
}

TEST(BanditScheduler, SeedEnergyScalesWithParentProfit)
{
    BanditScheduler sched(3, 11, {3, 4});
    EXPECT_EQ(sched.seedEnergy(0), 1u);
    EXPECT_EQ(sched.seedEnergy(1), 2u);
    EXPECT_EQ(sched.seedEnergy(7), 2u);
    EXPECT_EQ(sched.seedEnergy(8), 3u);
    EXPECT_EQ(sched.seedEnergy(63), 3u);
    EXPECT_EQ(sched.seedEnergy(64), 4u);
    EXPECT_EQ(sched.seedEnergy(1u << 30), 4u);
}

TEST(BanditScheduler, SaveLoadRoundTripContinuesIdentically)
{
    BanditScheduler sched(3, 11, {3, 4});
    Rng rng(13);
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i)
            sched.pickOp(rng);
        sched.reportIteration(round % 3 == 0 ? 17 : 0);
    }

    soc::SnapshotWriter w;
    sched.saveState(w);
    const auto image = w.buffer();

    BanditScheduler back(3, 11, {3, 4});
    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(back.loadState(r, &error)) << error;
    ASSERT_TRUE(r.exhausted());

    // Identical table, prioritize probability, and — with identical
    // RNG streams — identical future decisions.
    for (MutOp op : {MutOp::Generate, MutOp::Delete, MutOp::Retain})
        EXPECT_EQ(back.armSixteenths(op), sched.armSixteenths(op));
    EXPECT_EQ(back.prioritizeProb().num, sched.prioritizeProb().num);
    Rng ra(777), rb(777);
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(sched.pickOp(ra), back.pickOp(rb));
        sched.reportIteration(static_cast<uint64_t>(round));
        back.reportIteration(static_cast<uint64_t>(round));
    }

    // Out-of-range prioritize numerator is a typed error.
    soc::SnapshotWriter bad;
    for (int a = 0; a < 3; ++a) {
        bad.putU64(0);
        bad.putU64(0);
        bad.putU32(0);
    }
    bad.putU64(99);
    soc::SnapshotReader bad_reader(bad.buffer());
    EXPECT_FALSE(back.loadState(bad_reader, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos);
}

/**
 * End-to-end determinism of bandit scheduling under
 * checkpoint/resume: a restored TurboFuzzer must generate the exact
 * stimulus sequence the uninterrupted one does, including the bandit
 * table evolution and per-seed energy bookkeeping.
 */
TEST(BanditScheduler, FuzzerCheckpointResumeIsDeterministic)
{
    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    FuzzerOptions opts;
    opts.instrsPerIteration = 200;
    opts.scheduler = SchedulerKind::Bandit;
    opts.seed = 31;

    auto pseudo_increment = [](const IterationInfo &info) {
        // Deterministic synthetic coverage signal.
        return (info.iterationIndex * 2654435761u) % 37;
    };

    // Uninterrupted run, checkpointed mid-way; its post-checkpoint
    // iterations are the reference the resumed fuzzer must match.
    TurboFuzzer whole(opts, &lib);
    soc::Memory mem_a;
    std::vector<uint8_t> image;
    std::vector<IterationInfo> tail;
    for (int i = 0; i < 30; ++i) {
        if (i == 18) {
            soc::SnapshotWriter w;
            whole.saveState(w);
            image = w.buffer();
        }
        const IterationInfo info = whole.generateIteration(mem_a);
        whole.reportResult(info, pseudo_increment(info));
        if (i >= 18)
            tail.push_back(info);
    }

    TurboFuzzer resumed(opts, &lib);
    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(resumed.loadState(r, &error)) << error;
    ASSERT_TRUE(r.exhausted());

    soc::Memory mem_c;
    for (const IterationInfo &expect : tail) {
        const IterationInfo got = resumed.generateIteration(mem_c);
        ASSERT_EQ(got.iterationIndex, expect.iterationIndex);
        ASSERT_EQ(got.parentSeedId, expect.parentSeedId);
        ASSERT_EQ(got.stimulus.blocks.size(),
                  expect.stimulus.blocks.size());
        ASSERT_TRUE(got.stimulus == expect.stimulus)
            << "iteration " << expect.iterationIndex;
        resumed.reportResult(got, pseudo_increment(got));
    }
}

} // namespace
} // namespace turbofuzz::fuzzer
