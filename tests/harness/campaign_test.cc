/** @file Campaign integration tests: the full loop end-to-end. */

#include <gtest/gtest.h>

#include "fuzzer/generator.hh"
#include "harness/campaign.hh"

namespace turbofuzz::harness
{
namespace
{

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = makeDefaultLibrary();
    return l;
}

std::unique_ptr<fuzzer::TurboFuzzGenerator>
makeGen(uint64_t seed, uint32_t ipi = 1000)
{
    fuzzer::FuzzerOptions o;
    o.seed = seed;
    o.instrsPerIteration = ipi;
    return std::make_unique<fuzzer::TurboFuzzGenerator>(o, &lib());
}

TEST(Campaign, IterationProducesCoverageAndTime)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    Campaign c(opts, makeGen(1));
    const IterationResult r = c.runIteration();
    EXPECT_GT(r.generated, 900u);
    EXPECT_GT(r.executedTotal, 500u);
    EXPECT_GT(r.newCoverage, 50u);
    EXPECT_FALSE(r.mismatch);
    EXPECT_GT(c.nowSec(), 1.0); // startup + iteration
}

TEST(Campaign, RunHonorsBudget)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    Campaign c(opts, makeGen(2));
    const TimeSeries s = c.run(3.0);
    EXPECT_GE(c.nowSec(), 3.0);
    EXPECT_LT(c.nowSec(), 4.0);
    EXPECT_GT(c.iterations(), 50u);
    EXPECT_FALSE(s.empty());
    // Coverage is monotone non-decreasing.
    double prev = 0;
    for (const auto &sample : s.samples()) {
        EXPECT_GE(sample.value, prev);
        prev = sample.value;
    }
}

TEST(Campaign, NoBugsMeansNoMismatches)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    Campaign c(opts, makeGen(3));
    c.run(3.0);
    EXPECT_FALSE(c.firstMismatch().has_value());
}

TEST(Campaign, InjectedBugIsCaughtAndSnapshotted)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    opts.coreKind = core::CoreKind::Boom;
    opts.bugs = core::BugSet::single(core::BugId::B1);
    opts.stopOnMismatch = true;
    Campaign c(opts, makeGen(4));
    c.run(30.0);
    ASSERT_TRUE(c.firstMismatch().has_value());
    EXPECT_TRUE(c.mismatchSnapshot().hasSection("dut.arch"));
    EXPECT_FALSE(c.mismatchSnapshot().trigger().empty());
}

TEST(Campaign, DeterministicReplay)
{
    auto run_once = [](uint64_t seed) {
        CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.seed = seed;
        Campaign c(opts, makeGen(seed));
        c.run(2.0);
        return std::make_pair(c.coverageMap().totalCovered(),
                              c.executedInstructions());
    };
    EXPECT_EQ(run_once(7), run_once(7));
    EXPECT_NE(run_once(7), run_once(8));
}

TEST(Campaign, PrevalenceInExpectedBand)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    Campaign c(opts, makeGen(5, 4000));
    c.run(5.0);
    EXPECT_GT(c.prevalence(), 0.90);
    EXPECT_LE(c.prevalence(), 1.0);
}

TEST(Campaign, CommitObserverSeesEveryCommit)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    uint64_t observed = 0;
    opts.commitObserver = [&](const core::CommitInfo &) {
        ++observed;
    };
    Campaign c(opts, makeGen(6));
    const IterationResult r = c.runIteration();
    EXPECT_EQ(observed, r.executedTotal);
}

TEST(Campaign, BaselineSchemeCoversLessThanOptimized)
{
    auto run_with = [](coverage::Scheme scheme) {
        CampaignOptions opts;
        opts.timing = soc::turboFuzzProfile();
        opts.covScheme = scheme;
        Campaign c(opts, makeGen(9));
        c.run(4.0);
        return c.coverageMap().totalCovered();
    };
    // The optimized instrumentation reaches more points within the
    // same budget (Fig. 7's direction).
    EXPECT_GT(run_with(coverage::Scheme::Optimized),
              run_with(coverage::Scheme::Baseline));
}

TEST(Campaign, SlicedRunMatchesPlainRun)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    opts.seed = 13;
    Campaign plain(opts, makeGen(13));
    const TimeSeries whole = plain.run(2.0);

    Campaign sliced(opts, makeGen(13));
    TimeSeries series("sliced");
    EXPECT_TRUE(sliced.runSlice(0.7, series));
    EXPECT_TRUE(sliced.runSlice(1.4, series));
    EXPECT_TRUE(sliced.runSlice(2.0, series));

    ASSERT_EQ(whole.samples().size(), series.samples().size());
    for (size_t i = 0; i < whole.samples().size(); ++i) {
        EXPECT_DOUBLE_EQ(whole.samples()[i].timeSec,
                         series.samples()[i].timeSec);
        EXPECT_DOUBLE_EQ(whole.samples()[i].value,
                         series.samples()[i].value);
    }
    EXPECT_EQ(plain.iterations(), sliced.iterations());
    EXPECT_EQ(plain.executedInstructions(),
              sliced.executedInstructions());
}

TEST(Campaign, InjectSeedsReachesGeneratorCorpus)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    Campaign c(opts, makeGen(14));
    c.runIteration(); // warm up: corpus may or may not admit

    auto gen =
        dynamic_cast<fuzzer::TurboFuzzGenerator *>(&c.generator());
    ASSERT_NE(gen, nullptr);
    const size_t before = gen->underlying().corpus().size();

    fuzzer::Seed s;
    s.stimulus.beginBlock();
    s.stimulus.pushWord(0x13); // nop
    s.coverageIncrement = 1 << 20; // outranks anything resident
    EXPECT_EQ(c.injectSharedSeeds({fuzzer::makeSeedShare(s)}), 1u);
    EXPECT_EQ(gen->underlying().corpus().size(), before + 1);
}

TEST(Campaign, ValueCopySeedAdaptersFollowSharedPath)
{
    // The generator's value-copy importSeeds/exportTopSeeds adapt the
    // shared exchange path: the same dedup and the same ranking.
    auto gen = makeGen(15);
    fuzzer::Seed a;
    a.stimulus.beginBlock();
    a.stimulus.pushWord(0x13);
    a.coverageIncrement = 1 << 20;
    fuzzer::Seed z = a;
    z.stimulus.words[0] = 0x93;
    z.coverageIncrement = 1 << 21;
    EXPECT_EQ(gen->importSeeds({a, a, z}), 2u); // batch dedup
    EXPECT_EQ(gen->importSeeds({z}), 0u);       // resident dedup

    const std::vector<fuzzer::Seed> copies = gen->exportTopSeeds(2);
    const std::vector<fuzzer::SeedShare> shares =
        gen->exportTopSharedSeeds(2);
    ASSERT_EQ(copies.size(), 2u);
    ASSERT_EQ(shares.size(), 2u);
    for (size_t i = 0; i < copies.size(); ++i) {
        EXPECT_EQ(copies[i].id, shares[i].seed->id);
        EXPECT_EQ(copies[i].contentHash(), shares[i].contentHash);
    }
    EXPECT_EQ(copies[0].contentHash(), z.contentHash());
    EXPECT_EQ(copies[1].contentHash(), a.contentHash());
}

TEST(Campaign, CountsMismatchedIterations)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    opts.coreKind = core::CoreKind::Boom;
    opts.bugs = core::BugSet::single(core::BugId::B1);
    Campaign c(opts, makeGen(4));
    c.run(30.0);
    EXPECT_GT(c.mismatchedIterations(), 0u);
    ASSERT_TRUE(c.firstMismatch().has_value());
}

TEST(MakeDefaultLibraryTest, ExcludesMret)
{
    EXPECT_FALSE(lib().contains(isa::Opcode::Mret));
    EXPECT_TRUE(lib().contains(isa::Opcode::Add));
}

/**
 * Checkpoint round trip: a campaign checkpointed mid-run and
 * restored into a fresh instance must continue bit-identically to
 * the uninterrupted campaign — coverage, counters, simulated time,
 * mismatch evidence and reproducer bytes. Uses a buggy DUT so the
 * mismatch/reproducer state actually crosses the checkpoint.
 */
TEST(Campaign, CheckpointRestoreContinuesBitIdentically)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();
    opts.coreKind = core::CoreKind::Cva6;
    opts.bugs = core::BugSet::single(core::BugId::C1);
    const uint64_t seed = 5;

    // Reference: one uninterrupted run of 2N iterations.
    Campaign whole(opts, makeGen(seed));
    for (int i = 0; i < 120; ++i)
        whole.runIteration();

    // Checkpoint after N iterations...
    Campaign first(opts, makeGen(seed));
    for (int i = 0; i < 60; ++i)
        first.runIteration();
    soc::SnapshotWriter w;
    ASSERT_TRUE(first.saveState(w));
    const auto image = w.takeBuffer();

    // ...restore into a FRESH campaign and run the second half.
    Campaign second(opts, makeGen(seed));
    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(second.loadState(r, &error)) << error;
    ASSERT_TRUE(r.exhausted());
    EXPECT_EQ(second.iterations(), 60u);
    for (int i = 0; i < 60; ++i)
        second.runIteration();

    EXPECT_EQ(second.iterations(), whole.iterations());
    EXPECT_EQ(second.executedInstructions(),
              whole.executedInstructions());
    EXPECT_EQ(second.generatedInstructions(),
              whole.generatedInstructions());
    EXPECT_EQ(second.mismatchedIterations(),
              whole.mismatchedIterations());
    EXPECT_DOUBLE_EQ(second.nowSec(), whole.nowSec());
    EXPECT_EQ(second.coverageMap().totalCovered(),
              whole.coverageMap().totalCovered());

    ASSERT_EQ(second.firstMismatch().has_value(),
              whole.firstMismatch().has_value());
    if (whole.firstMismatch()) {
        EXPECT_EQ(second.firstMismatch()->pc,
                  whole.firstMismatch()->pc);
        EXPECT_EQ(second.firstMismatch()->instrIndex,
                  whole.firstMismatch()->instrIndex);
        EXPECT_EQ(second.mismatchSnapshot().serialize(),
                  whole.mismatchSnapshot().serialize());
    }
    ASSERT_EQ(second.reproducers().size(), whole.reproducers().size());
    for (size_t i = 0; i < whole.reproducers().size(); ++i)
        EXPECT_EQ(second.reproducers()[i].serialize(),
                  whole.reproducers()[i].serialize());
}

/** Malformed campaign state must be rejected with a diagnostic, not
 *  a crash. */
TEST(Campaign, MalformedCheckpointRejected)
{
    CampaignOptions opts;
    opts.timing = soc::turboFuzzProfile();

    Campaign donor(opts, makeGen(3));
    for (int i = 0; i < 10; ++i)
        donor.runIteration();
    soc::SnapshotWriter w;
    ASSERT_TRUE(donor.saveState(w));
    auto image = w.takeBuffer();

    std::string error;
    {
        // Truncated image.
        auto cut = image;
        cut.resize(cut.size() / 2);
        Campaign victim(opts, makeGen(3));
        soc::SnapshotReader r(cut);
        EXPECT_FALSE(victim.loadState(r, &error));
        EXPECT_FALSE(error.empty());
    }
    {
        // Bad version word.
        auto bad = image;
        bad[0] = 0x7F;
        Campaign victim(opts, makeGen(3));
        soc::SnapshotReader r(bad);
        EXPECT_FALSE(victim.loadState(r, &error));
        EXPECT_NE(error.find("version"), std::string::npos);
    }
}

} // namespace
} // namespace turbofuzz::harness
