/**
 * @file
 * Triage pipeline tests: reproducer capture, deterministic replay,
 * minimization, signatures, bucketing and fleet integration.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/fleet_config.hh"
#include "fleet/orchestrator.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"
#include "triage/minimizer.hh"
#include "triage/replay.hh"
#include "triage/signature.hh"
#include "triage/triage_queue.hh"

namespace turbofuzz::triage
{
namespace
{

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = harness::makeDefaultLibrary();
    return l;
}

harness::CampaignOptions
campaignOpts(core::BugSet bugs,
             core::CoreKind kind = core::CoreKind::Cva6)
{
    harness::CampaignOptions o;
    o.timing = soc::turboFuzzProfile();
    o.coreKind = kind;
    o.bugs = bugs;
    o.maxReproducers = 4;
    // C8's configuration ships with RV64A disabled.
    o.rv64aEnabled = !bugs.has(core::BugId::C8);
    return o;
}

fuzzer::FuzzerOptions
fuzzerOpts(uint64_t seed = 1)
{
    fuzzer::FuzzerOptions o;
    o.seed = seed;
    o.instrsPerIteration = 1000;
    return o;
}

/** Run until the campaign captures a reproducer (or iteration cap). */
std::optional<Reproducer>
firstReproducer(core::BugSet bugs, uint64_t seed = 1,
                checker::DiffChecker::Mode mode =
                    checker::DiffChecker::Mode::PerInstruction)
{
    harness::CampaignOptions copts = campaignOpts(bugs);
    copts.checkMode = mode;
    harness::Campaign campaign(
        copts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                   fuzzerOpts(seed), &lib()));
    for (int i = 0; i < 5000 && campaign.reproducers().empty(); ++i)
        campaign.runIteration();
    if (campaign.reproducers().empty())
        return std::nullopt;
    return campaign.reproducers().front();
}

TEST(ReproducerCapture, CampaignRetainsMismatchingStimulus)
{
    harness::Campaign campaign(
        campaignOpts(core::BugSet::single(core::BugId::R1),
                     core::CoreKind::Rocket),
        std::make_unique<fuzzer::TurboFuzzGenerator>(fuzzerOpts(),
                                                     &lib()));
    for (int i = 0; i < 5000 && campaign.reproducers().empty(); ++i)
        campaign.runIteration();
    ASSERT_FALSE(campaign.reproducers().empty());

    const Reproducer &r = campaign.reproducers().front();
    EXPECT_FALSE(r.iteration.stimulus.blocks.empty());
    EXPECT_GT(r.iteration.generatedInstrs, 0u);
    EXPECT_TRUE(r.bugs().has(core::BugId::R1));
    EXPECT_EQ(r.mismatch.kind, checker::MismatchKind::Minstret);
    EXPECT_GT(r.detectSimTimeSec, 0.0);
    // The stimulus blocks sum to the recorded instruction count.
    uint32_t instrs = 0;
    for (const fuzzer::StimulusBlock &b : r.iteration.stimulus.blocks)
        instrs += b.count;
    EXPECT_EQ(instrs, r.iteration.generatedInstrs);
    EXPECT_EQ(r.iteration.stimulus.totalInstrs(), instrs);
}

TEST(ReproducerCapture, CapRespectedAndGeneratorGated)
{
    harness::CampaignOptions copts =
        campaignOpts(core::BugSet::single(core::BugId::B1));
    copts.maxReproducers = 2;
    harness::Campaign campaign(
        copts, std::make_unique<fuzzer::TurboFuzzGenerator>(
                   fuzzerOpts(), &lib()));
    for (int i = 0; i < 200; ++i)
        campaign.runIteration();
    EXPECT_LE(campaign.reproducers().size(), 2u);
}

TEST(Replay, ConfirmsRecordedMismatchBitExactly)
{
    const auto r =
        firstReproducer(core::BugSet::single(core::BugId::B1));
    ASSERT_TRUE(r.has_value());

    const ReplayResult out = ReplayHarness::replay(*r);
    ASSERT_TRUE(out.mismatched);
    EXPECT_EQ(out.mismatch.kind, r->mismatch.kind);
    EXPECT_EQ(out.mismatch.pc, r->mismatch.pc);
    EXPECT_EQ(out.mismatch.insn, r->mismatch.insn);
    EXPECT_EQ(out.mismatch.dutValue, r->mismatch.dutValue);
    EXPECT_EQ(out.mismatch.refValue, r->mismatch.refValue);
    EXPECT_EQ(out.commitIndex, r->commitIndex);
    EXPECT_TRUE(ReplayHarness::confirms(*r, out));
    EXPECT_TRUE(ReplayHarness::verifyDeterministic(*r));
}

TEST(Replay, EndOfIterationModeReproduces)
{
    const auto r =
        firstReproducer(core::BugSet::single(core::BugId::B1), 1,
                        checker::DiffChecker::Mode::EndOfIteration);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(ReplayHarness::verifyDeterministic(*r));
}

TEST(Replay, WithoutTheBugTheMismatchVanishes)
{
    auto r = firstReproducer(core::BugSet::single(core::BugId::B1));
    ASSERT_TRUE(r.has_value());
    Reproducer healthy = *r;
    healthy.bugsRaw = 0; // "fixed" DUT
    EXPECT_FALSE(ReplayHarness::replay(healthy).mismatched);
}

TEST(Reproducer, SerializeRoundTripReplaysIdentically)
{
    const auto r =
        firstReproducer(core::BugSet::single(core::BugId::B1));
    ASSERT_TRUE(r.has_value());

    const std::vector<uint8_t> bytes = r->serialize();
    const Reproducer back = Reproducer::deserialize(bytes);
    EXPECT_EQ(back.bugsRaw, r->bugsRaw);
    EXPECT_EQ(back.commitIndex, r->commitIndex);
    EXPECT_TRUE(back.iteration.stimulus == r->iteration.stimulus);
    EXPECT_EQ(back.mismatch.pc, r->mismatch.pc);
    EXPECT_TRUE(ReplayHarness::verifyDeterministic(back));
}

TEST(Reproducer, MalformedInputRejectedGracefully)
{
    const auto r =
        firstReproducer(core::BugSet::single(core::BugId::B1));
    ASSERT_TRUE(r.has_value());
    std::vector<uint8_t> bytes = r->serialize();

    std::string error;
    // Truncations at every prefix length must fail cleanly.
    for (size_t cut : {size_t{0}, size_t{3}, size_t{40},
                       bytes.size() - 1}) {
        std::vector<uint8_t> t(bytes.begin(),
                               bytes.begin() +
                                   static_cast<long>(cut));
        EXPECT_FALSE(
            Reproducer::tryDeserialize(t, &error).has_value());
    }
    // Bad magic.
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(Reproducer::tryDeserialize(bad).has_value());
    EXPECT_THROW(Reproducer::deserialize(bad),
                 fuzzer::SeedFormatError);
    // Trailing garbage.
    std::vector<uint8_t> long_buf = bytes;
    long_buf.push_back(0);
    EXPECT_FALSE(Reproducer::tryDeserialize(long_buf).has_value());

    // Corrupt enum bytes (core kind at offset 6, mismatch kind after
    // the fixed scalar fields) must fail parsing rather than panic
    // in downstream switches.
    std::vector<uint8_t> bad_core = bytes;
    bad_core[6] = 0x7F;
    EXPECT_FALSE(
        Reproducer::tryDeserialize(bad_core, &error).has_value());
    EXPECT_NE(error.find("core kind"), std::string::npos);

    // A corrupted data-segment size must not parse into a record
    // whose replay would attempt a multi-gigabyte memory fill
    // (dataSize is the u64 at offset 70).
    std::vector<uint8_t> huge_data = bytes;
    huge_data[77] = 0xFF;
    EXPECT_FALSE(
        Reproducer::tryDeserialize(huge_data, &error).has_value());
    EXPECT_NE(error.find("segment size"), std::string::npos);

    // A corrupted fuzz-region start must not reach the replay
    // harness's layout invariant (firstBlockPc is the u64 at 102).
    std::vector<uint8_t> bad_first = bytes;
    bad_first[108] = 0x7F;
    EXPECT_FALSE(
        Reproducer::tryDeserialize(bad_first, &error).has_value());
    EXPECT_NE(error.find("preamble"), std::string::npos);
}

TEST(Minimizer, ShrinksStrictlyAndStillFires)
{
    const auto r =
        firstReproducer(core::BugSet::single(core::BugId::B1));
    ASSERT_TRUE(r.has_value());

    const Minimizer minimizer({256, true});
    const MinimizeResult red = minimizer.minimize(*r);
    ASSERT_TRUE(red.confirmed);
    EXPECT_LT(red.minimizedInstrs, red.originalInstrs);
    EXPECT_LE(red.minimizedBlocks, red.originalBlocks);
    EXPECT_GT(red.minimizedInstrs, 0u);
    EXPECT_LE(red.replays, 256u + 1u);

    // Same bug, and the reduced record self-confirms twice over.
    EXPECT_EQ(red.minimized.mismatch.kind, r->mismatch.kind);
    EXPECT_EQ(canonicalize(red.minimized), canonicalize(*r));
    EXPECT_TRUE(ReplayHarness::verifyDeterministic(red.minimized));
}

TEST(Minimizer, RebuildRepatchesControlFlow)
{
    const auto r =
        firstReproducer(core::BugSet::single(core::BugId::B1));
    ASSERT_TRUE(r.has_value());

    // Keeping every block must replay to the identical mismatch:
    // re-layout at unchanged addresses is the identity transform.
    Reproducer same = *r;
    Minimizer::rebuild(same);
    EXPECT_EQ(same.iteration.generatedInstrs,
              r->iteration.generatedInstrs);
    EXPECT_EQ(same.iteration.codeBoundary,
              r->iteration.codeBoundary);
    EXPECT_TRUE(same.iteration.stimulus == r->iteration.stimulus);
    EXPECT_TRUE(
        ReplayHarness::confirms(*r, ReplayHarness::replay(same)));
}

TEST(Signature, StableAcrossSeedsAndDistinctAcrossBugs)
{
    const auto a =
        firstReproducer(core::BugSet::single(core::BugId::R1), 1);
    const auto b =
        firstReproducer(core::BugSet::single(core::BugId::R1), 7);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // Different stimuli, different PCs — identical signature.
    EXPECT_NE(a->mismatch.pc, b->mismatch.pc);
    EXPECT_EQ(canonicalize(*a), canonicalize(*b));

    const auto c =
        firstReproducer(core::BugSet::single(core::BugId::C5), 1);
    ASSERT_TRUE(c.has_value());
    EXPECT_NE(canonicalize(*a).key(), canonicalize(*c).key());
}

TEST(Signature, OpcodeClassesAndKeys)
{
    // beq x0,x0,+8 / jal / ebreak / invalid word.
    EXPECT_EQ(opcodeClass(0x00000463), "branch");
    EXPECT_EQ(opcodeClass(0x0000006F), "jump");
    EXPECT_EQ(opcodeClass(0x00100073), "ebreak");
    EXPECT_EQ(opcodeClass(0xFFFFFFFF), "invalid");

    BugSignature sig;
    sig.kind = checker::MismatchKind::Fflags;
    sig.opClass = "fdiv";
    sig.detail = "flags:0x18";
    sig.region = PcRegion::FuzzRegion;
    EXPECT_EQ(sig.key(), "fflags/fdiv/flags:0x18@fuzz");
    EXPECT_NE(sig.describe().find("fdiv"), std::string::npos);
}

/**
 * Warm replay context equivalence: Context::replay must be
 * bit-identical to the cold ReplayHarness::replay for the original
 * reproducer AND for rebuilt (minimizer-shaped) candidates — the
 * property that lets delta debugging run on the warm path.
 */
TEST(ReplayContext, MatchesColdReplayBitExactly)
{
    for (const core::BugId id :
         {core::BugId::R1, core::BugId::C5, core::BugId::C8}) {
        const auto r = firstReproducer(core::BugSet::single(id));
        ASSERT_TRUE(r.has_value())
            << "bug " << static_cast<int>(id) << " not detected";

        const ReplayHarness::Context ctx(*r);
        ASSERT_TRUE(ctx.compatible(*r));

        auto expect_same = [&](const Reproducer &cand,
                               const char *what) {
            SCOPED_TRACE(what);
            const ReplayResult cold = ReplayHarness::replay(cand);
            const ReplayResult warmed = ctx.replay(cand);
            EXPECT_EQ(cold.mismatched, warmed.mismatched);
            EXPECT_EQ(cold.executed, warmed.executed);
            EXPECT_EQ(cold.traps, warmed.traps);
            EXPECT_EQ(cold.commitIndex, warmed.commitIndex);
            EXPECT_EQ(cold.mismatch.kind, warmed.mismatch.kind);
            EXPECT_EQ(cold.mismatch.pc, warmed.mismatch.pc);
            EXPECT_EQ(cold.mismatch.insn, warmed.mismatch.insn);
            EXPECT_EQ(cold.mismatch.dutValue,
                      warmed.mismatch.dutValue);
            EXPECT_EQ(cold.mismatch.refValue,
                      warmed.mismatch.refValue);
        };
        expect_same(*r, "original");

        // Minimizer-shaped candidates: a front half and a back half
        // of the block list, re-laid-out through rebuild().
        const fuzzer::Stimulus &stim = r->iteration.stimulus;
        const size_t nblocks = stim.blocks.size();
        if (nblocks >= 4) {
            Reproducer front = *r;
            front.iteration.stimulus.truncate(nblocks / 2);
            Minimizer::rebuild(front);
            expect_same(front, "front-half candidate");

            Reproducer back = *r;
            back.iteration.stimulus.clear();
            back.iteration.stimulus.appendBlocks(stim, nblocks / 2,
                                                 nblocks - nblocks / 2);
            Minimizer::rebuild(back);
            expect_same(back, "back-half candidate");
        }
    }
}

/** The minimizer (now running on the warm context) must still
 *  produce byte-identical reduced reproducers run-over-run. */
TEST(ReplayContext, MinimizerDeterministicOnWarmPath)
{
    const auto r = firstReproducer(
        core::BugSet::single(core::BugId::C5));
    ASSERT_TRUE(r.has_value());
    const Minimizer minimizer({128, true});
    const MinimizeResult a = minimizer.minimize(*r);
    const MinimizeResult b = minimizer.minimize(*r);
    ASSERT_TRUE(a.confirmed);
    EXPECT_EQ(a.replays, b.replays);
    EXPECT_EQ(a.minimized.serialize(), b.minimized.serialize());
    EXPECT_TRUE(ReplayHarness::verifyDeterministic(a.minimized));
}

TEST(TriageQueue, BucketsEachInjectedBugOnce)
{
    // Ground truth: one single-bug campaign per catalog bug; every
    // bug's reproducers must land in exactly one bucket.
    const std::vector<core::BugId> injected = {
        core::BugId::R1, core::BugId::C5, core::BugId::C8};

    TriageQueue queue({64, true});
    std::vector<std::string> reference;
    for (core::BugId id : injected) {
        const auto r =
            firstReproducer(core::BugSet::single(id));
        ASSERT_TRUE(r.has_value())
            << "bug " << static_cast<int>(id) << " not detected";
        reference.push_back(canonicalize(*r).key());
        queue.push(*r);
        queue.push(*r); // duplicate detection of the same bug
    }
    EXPECT_EQ(queue.bucketCount(), injected.size());
    EXPECT_EQ(queue.reproducersSeen(), 2 * injected.size());
    for (size_t i = 0; i < queue.bucketCount(); ++i) {
        EXPECT_EQ(queue.buckets()[i].signature.key(), reference[i]);
        EXPECT_EQ(queue.buckets()[i].hits, 2u);
    }

    queue.minimizeAll();
    for (const BugBucket &bucket : queue.buckets()) {
        EXPECT_TRUE(bucket.minimized);
        EXPECT_TRUE(bucket.reduction.confirmed);
        EXPECT_LT(bucket.reduction.minimizedInstrs,
                  bucket.reduction.originalInstrs);
    }
}

/**
 * Acceptance: a fleet campaign with three injected bugs buckets its
 * harvested mismatches into exactly the distinct injected bugs hit,
 * every minimized reproducer still fires the same MismatchKind under
 * replay, is strictly smaller than the original iteration, and
 * replays bit-identically — independent of worker scheduling.
 */
TEST(FleetTriage, BucketsInjectedBugsWithMinimizedReproducers)
{
    core::BugSet bugs;
    bugs.enable(core::BugId::C1);
    bugs.enable(core::BugId::R1);
    bugs.enable(core::BugId::C5);

    // Reference signature per injected bug (single-bug campaigns).
    std::map<std::string, core::BugId> reference;
    for (core::BugId id : bugs.enabled()) {
        const auto r = firstReproducer(core::BugSet::single(id));
        ASSERT_TRUE(r.has_value());
        reference[canonicalize(*r).key()] = id;
    }
    ASSERT_EQ(reference.size(), 3u) << "reference signatures collide";

    auto runFleet = [&](unsigned threads) {
        FleetConfig fc;
        fc.fleetSeed = 1;
        fc.shardCount = 2;
        fc.budgetSec = 8.0;
        fc.epochSec = 2.0;
        fc.workerThreads = threads;
        fc.maxReproducersPerShard = 16;
        fc.triageReplayBudget = 64;
        harness::CampaignOptions copts = campaignOpts(bugs);
        return fleet::FleetOrchestrator(fc, copts, fuzzerOpts(),
                                        &lib())
            .run();
    };
    const fleet::FleetResult result = runFleet(2);

    ASSERT_GT(result.reproducersHarvested, 0u);
    ASSERT_FALSE(result.bugTable.empty());
    EXPECT_LE(result.bugTable.size(), 3u);

    uint64_t hits = 0;
    for (const triage::TriageRow &row : result.bugTable) {
        // Every bucket attributes to exactly one injected bug.
        EXPECT_TRUE(reference.count(row.signature))
            << "unattributed bucket: " << row.signature;
        hits += row.hits;
        // Minimized reproducers are strictly smaller and confirmed.
        EXPECT_TRUE(row.confirmed) << row.signature;
        EXPECT_LT(row.minimizedInstrs, row.originalInstrs);
        EXPECT_GT(row.firstDetectSimTime, 0.0);
    }
    // Buckets partition the harvest: nothing dropped, nothing twice.
    EXPECT_EQ(hits, result.reproducersHarvested);

    // Triage is part of the fleet determinism contract: a fully
    // serialized schedule yields the identical per-bug table.
    const fleet::FleetResult serial = runFleet(1);
    ASSERT_EQ(serial.bugTable.size(), result.bugTable.size());
    for (size_t i = 0; i < result.bugTable.size(); ++i) {
        EXPECT_EQ(serial.bugTable[i].signature,
                  result.bugTable[i].signature);
        EXPECT_EQ(serial.bugTable[i].hits, result.bugTable[i].hits);
        EXPECT_DOUBLE_EQ(serial.bugTable[i].firstDetectSimTime,
                         result.bugTable[i].firstDetectSimTime);
        EXPECT_EQ(serial.bugTable[i].minimizedInstrs,
                  result.bugTable[i].minimizedInstrs);
    }
}

} // namespace
} // namespace turbofuzz::triage
