/**
 * @file
 * Provenance layer tests: point-key packing, first-hit ledger
 * semantics (min-wins merge, checkpoint round trip), the forensics
 * ring, seed genealogy, and the observer contract — provenance on vs
 * off must not change campaign or fleet results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/fleet_config.hh"
#include "coverage/provenance.hh"
#include "fleet/orchestrator.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"
#include "soc/snapshot.hh"
#include "telemetry/forensics.hh"

namespace turbofuzz
{
namespace
{

using coverage::FirstHit;
using coverage::FirstHitLedger;
using coverage::PointSpace;
using coverage::pointKey;
using telemetry::ForensicsEvent;
using telemetry::ForensicsKind;
using telemetry::ForensicsRing;

// --- Point keys ------------------------------------------------------

TEST(ProvenancePointKey, RoundTrip)
{
    const uint64_t k = pointKey(PointSpace::Mux, 0x123456, 0xDEADBEEF);
    EXPECT_EQ(coverage::pointSpace(k), PointSpace::Mux);
    EXPECT_EQ(coverage::pointModule(k), 0x123456u);
    EXPECT_EQ(coverage::pointIndex(k), 0xDEADBEEFu);

    const uint64_t e = pointKey(PointSpace::Edge, 7, 42);
    EXPECT_EQ(coverage::pointSpace(e), PointSpace::Edge);
    EXPECT_EQ(coverage::pointModule(e), 7u);
    EXPECT_EQ(coverage::pointIndex(e), 42u);

    // Distinct spaces never collide even with equal module/index.
    EXPECT_NE(pointKey(PointSpace::Mux, 1, 1),
              pointKey(PointSpace::Csr, 1, 1));
    EXPECT_STREQ(coverage::pointSpaceName(PointSpace::Csr), "csr");
}

// --- First-hit ledger ------------------------------------------------

/** A ledger holding one attributed hit per (key, context) pair. */
FirstHitLedger
ledgerWith(std::vector<std::tuple<uint64_t, double, uint32_t,
                                  uint64_t>>
               hits)
{
    FirstHitLedger l;
    for (const auto &[key, t, shard, iter] : hits) {
        l.setShard(shard);
        l.setContext(iter, /*seed=*/iter * 10, /*op=*/1, t,
                     /*wall=*/999);
        l.record(key);
    }
    return l;
}

void
expectLedgersEqual(const FirstHitLedger &a, const FirstHitLedger &b)
{
    ASSERT_EQ(a.size(), b.size());
    const auto ea = a.sortedEntries();
    const auto eb = b.sortedEntries();
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].first, eb[i].first);
        EXPECT_DOUBLE_EQ(ea[i].second.simTimeSec,
                         eb[i].second.simTimeSec);
        EXPECT_EQ(ea[i].second.iteration, eb[i].second.iteration);
        EXPECT_EQ(ea[i].second.shard, eb[i].second.shard);
        EXPECT_EQ(ea[i].second.seedId, eb[i].second.seedId);
        EXPECT_EQ(ea[i].second.op, eb[i].second.op);
    }
}

TEST(FirstHitLedger, RecordKeepsEarliestWithinCampaign)
{
    FirstHitLedger l;
    l.setContext(1, 10, 1, 0.5, 0);
    l.record(77);
    // Re-marking the same point later (warm prologue, repeated
    // sweeps) must not overwrite the original attribution.
    l.setContext(9, 90, 2, 3.5, 0);
    l.record(77);
    ASSERT_EQ(l.size(), 1u);
    const FirstHit *hit = l.find(77);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->iteration, 1u);
    EXPECT_DOUBLE_EQ(hit->simTimeSec, 0.5);
    EXPECT_DOUBLE_EQ(l.lastHitSimSec(), 0.5);
}

TEST(FirstHitLedger, MergeIsMinWins)
{
    FirstHitLedger a = ledgerWith({{100, 2.0, 0, 5}});
    const FirstHitLedger b = ledgerWith({{100, 1.0, 1, 9}});
    a.merge(b);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a.find(100)->shard, 1u);
    EXPECT_DOUBLE_EQ(a.find(100)->simTimeSec, 1.0);

    // Equal times: the lower shard index wins (deterministic
    // tie-break, independent of merge order).
    FirstHitLedger c = ledgerWith({{200, 1.5, 2, 1}});
    const FirstHitLedger d = ledgerWith({{200, 1.5, 0, 8}});
    c.merge(d);
    EXPECT_EQ(c.find(200)->shard, 0u);
}

TEST(FirstHitLedger, MergeAssociativeUnderShardReordering)
{
    // Three shard ledgers with overlapping keys and distinct
    // attributions; every merge order must converge to the same
    // global ledger.
    const FirstHitLedger s0 =
        ledgerWith({{1, 0.5, 0, 1}, {2, 2.0, 0, 4}, {3, 1.0, 0, 2}});
    const FirstHitLedger s1 =
        ledgerWith({{2, 1.0, 1, 2}, {3, 1.0, 1, 1}, {4, 3.0, 1, 6}});
    const FirstHitLedger s2 =
        ledgerWith({{1, 0.25, 2, 1}, {4, 2.5, 2, 5}, {5, 4.0, 2, 8}});

    FirstHitLedger fwd; // (s0 + s1) + s2
    fwd.merge(s0);
    fwd.merge(s1);
    fwd.merge(s2);

    FirstHitLedger rev; // s2 + (s1 + s0)
    FirstHitLedger s10;
    s10.merge(s1);
    s10.merge(s0);
    rev.merge(s2);
    rev.merge(s10);

    expectLedgersEqual(fwd, rev);
    EXPECT_EQ(fwd.size(), 5u);
    EXPECT_EQ(fwd.find(1)->shard, 2u); // earliest time wins
    EXPECT_EQ(fwd.find(2)->shard, 1u);
    EXPECT_EQ(fwd.find(3)->shard, 0u); // tie: lower shard
    EXPECT_DOUBLE_EQ(fwd.lastHitSimSec(), 4.0);
}

TEST(FirstHitLedger, SaveLoadRoundTrip)
{
    const FirstHitLedger src =
        ledgerWith({{1, 0.5, 0, 1}, {900, 2.5, 3, 7}});
    soc::SnapshotWriter out;
    src.saveState(out);

    FirstHitLedger dst;
    soc::SnapshotReader in(out.buffer());
    std::string error;
    ASSERT_TRUE(dst.loadState(in, &error)) << error;
    expectLedgersEqual(src, dst);
}

TEST(FirstHitLedger, MalformedImagesRejected)
{
    const FirstHitLedger src = ledgerWith({{5, 1.0, 0, 1}});
    soc::SnapshotWriter out;
    src.saveState(out);
    std::vector<uint8_t> bytes = out.buffer();

    // Truncated entry.
    {
        std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 4);
        FirstHitLedger l;
        soc::SnapshotReader in(cut);
        std::string error;
        EXPECT_FALSE(l.loadState(in, &error));
        EXPECT_FALSE(error.empty());
        EXPECT_TRUE(l.empty()); // failed load leaves it empty
    }
    // Absurd count must be rejected before any allocation.
    {
        std::vector<uint8_t> big = bytes;
        big[0] = 0xFF;
        big[1] = 0xFF;
        big[2] = 0xFF;
        big[3] = 0x7F;
        FirstHitLedger l;
        soc::SnapshotReader in(big);
        EXPECT_FALSE(l.loadState(in));
    }
}

// --- Forensics ring --------------------------------------------------

ForensicsEvent
event(uint64_t iter, ForensicsKind kind, uint64_t a)
{
    ForensicsEvent ev;
    ev.simTimeSec = 0.1 * static_cast<double>(iter);
    ev.iteration = iter;
    ev.kind = static_cast<uint8_t>(kind);
    ev.a = a;
    return ev;
}

TEST(ForensicsRing, WrapKeepsMostRecent)
{
    ForensicsRing ring(4);
    for (uint64_t i = 0; i < 10; ++i)
        ring.push(event(i, ForensicsKind::SeedSelect, i));
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 4u);
    const auto events = ring.chronological();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: iterations 6..9 survive.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].iteration, 6 + i);
}

TEST(ForensicsRing, JsonNamesKinds)
{
    ForensicsRing ring(8);
    ring.push(event(1, ForensicsKind::SeedSelect, 42));
    ring.push(event(2, ForensicsKind::Mismatch, 7));
    const std::string json = ring.toJson();
    EXPECT_NE(json.find("\"kind\":\"seed_select\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"mismatch\""), std::string::npos);
    EXPECT_NE(json.find("\"iteration\":2"), std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
}

TEST(ForensicsRing, SaveLoadRoundTripAfterWrap)
{
    ForensicsRing src(3);
    for (uint64_t i = 0; i < 7; ++i)
        src.push(event(i, ForensicsKind::CoverageDelta, i * 2));
    soc::SnapshotWriter out;
    src.saveState(out);

    ForensicsRing dst(3);
    soc::SnapshotReader in(out.buffer());
    std::string error;
    ASSERT_TRUE(dst.loadState(in, &error)) << error;
    EXPECT_EQ(dst.toJson(), src.toJson());

    // Pushes after restore continue the same eviction order.
    src.push(event(100, ForensicsKind::Trap, 1));
    dst.push(event(100, ForensicsKind::Trap, 1));
    EXPECT_EQ(dst.toJson(), src.toJson());
}

TEST(ForensicsRing, MalformedImageRejected)
{
    ForensicsRing src(2);
    src.push(event(1, ForensicsKind::SeedSelect, 0));
    soc::SnapshotWriter out;
    src.saveState(out);
    std::vector<uint8_t> bytes = out.buffer();
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 3);
    ForensicsRing dst(2);
    soc::SnapshotReader in(cut);
    std::string error;
    EXPECT_FALSE(dst.loadState(in, &error));
    EXPECT_FALSE(error.empty());
}

// --- Campaign integration --------------------------------------------

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = harness::makeDefaultLibrary();
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

harness::CampaignOptions
campaignOpts()
{
    harness::CampaignOptions o;
    o.timing = soc::turboFuzzProfile();
    return o;
}

/** Corpus seeds of a campaign's TurboFuzz generator. */
const std::vector<fuzzer::Seed> &
corpusSeeds(harness::Campaign &c)
{
    auto *tfg =
        dynamic_cast<fuzzer::TurboFuzzGenerator *>(&c.generator());
    EXPECT_NE(tfg, nullptr);
    return tfg->underlying().corpus().entries();
}

/**
 * Acceptance: the observer contract. A provenance-recording campaign
 * must produce bit-identical results to a plain one — counters,
 * coverage, every corpus seed (including genealogy, which is always
 * stamped) and every reproducer byte.
 */
TEST(ProvenanceCampaign, ObserverContract)
{
    harness::CampaignOptions on_opts = campaignOpts();
    on_opts.coreKind = core::CoreKind::Boom;
    on_opts.bugs = core::BugSet::single(core::BugId::B1);
    harness::CampaignOptions off_opts = on_opts;
    on_opts.provenance = true;

    harness::Campaign on(on_opts, makeGen(4));
    harness::Campaign off(off_opts, makeGen(4));
    for (int i = 0; i < 250; ++i) {
        const harness::IterationResult a = on.runIteration();
        const harness::IterationResult b = off.runIteration();
        ASSERT_EQ(a.newCoverage, b.newCoverage) << "iteration " << i;
        ASSERT_EQ(a.executedTotal, b.executedTotal)
            << "iteration " << i;
        ASSERT_EQ(a.mismatch, b.mismatch) << "iteration " << i;
    }

    EXPECT_EQ(on.executedInstructions(), off.executedInstructions());
    EXPECT_EQ(on.generatedInstructions(),
              off.generatedInstructions());
    EXPECT_EQ(on.coverageMap().totalCovered(),
              off.coverageMap().totalCovered());
    EXPECT_DOUBLE_EQ(on.nowSec(), off.nowSec());
    ASSERT_GT(on.mismatchedIterations(), 0u)
        << "test needs a mismatch to compare reproducers";
    EXPECT_EQ(on.mismatchedIterations(), off.mismatchedIterations());

    // Corpus bytes: identical seeds including the genealogy fields
    // (always stamped, so they cannot encode the provenance flag).
    const auto &sa = corpusSeeds(on);
    const auto &sb = corpusSeeds(off);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].serialize(), sb[i].serialize())
            << "corpus seed " << i;
    }

    // Reproducer bytes.
    ASSERT_EQ(on.reproducers().size(), off.reproducers().size());
    for (size_t i = 0; i < on.reproducers().size(); ++i) {
        EXPECT_EQ(on.reproducers()[i].serialize(),
                  off.reproducers()[i].serialize())
            << "reproducer " << i;
    }

    // The recording side actually recorded.
    EXPECT_FALSE(on.provenanceLedger().empty());
    EXPECT_FALSE(on.forensics().empty());
    EXPECT_EQ(on.forensicsDumps().size(), on.reproducers().size());
    EXPECT_TRUE(off.provenanceLedger().empty());
    EXPECT_TRUE(off.forensics().empty());
    EXPECT_TRUE(off.forensicsDumps().empty());
}

TEST(ProvenanceCampaign, GenealogyStampedOnArchivedSeeds)
{
    harness::CampaignOptions opts = campaignOpts();
    opts.provenance = true;
    harness::Campaign c(opts, makeGen(11));
    for (int i = 0; i < 120; ++i)
        c.runIteration();

    const auto &seeds = corpusSeeds(c);
    ASSERT_FALSE(seeds.empty());
    bool saw_descendant = false;
    for (const fuzzer::Seed &s : seeds) {
        EXPECT_LE(s.originOp, 3u);
        if (s.parentId != 0) {
            saw_descendant = true;
            EXPECT_GE(s.lineageDepth, 1u);
            // A mutation-derived seed carries a mutation operator.
            EXPECT_GE(s.originOp, 1u);
        } else if (s.lineageDepth == 0) {
            // Lineage roots are direct generations (or imports).
            EXPECT_EQ(s.originOp, 0u);
        }
    }
    EXPECT_TRUE(saw_descendant)
        << "expected at least one mutation-descended seed";
}

TEST(ProvenanceCampaign, ImportedSeedsBecomeLineageRoots)
{
    fuzzer::Corpus corpus(8, fuzzer::SchedulingPolicy::CoverageGuided);
    fuzzer::Seed foreign;
    foreign.id = 3;
    foreign.parentId = 55; // exporting shard's id space
    foreign.originOp = 2;
    foreign.lineageDepth = 4;
    foreign.coverageIncrement = 10;
    foreign.stimulus.beginBlock();
    foreign.stimulus.pushWord(0x13);
    foreign.stimulus.pushWord(0x93);

    uint64_t next_id = 100;
    ASSERT_EQ(corpus.importShared({fuzzer::makeSeedShare(foreign)},
                                  next_id),
              1u);
    ASSERT_EQ(corpus.size(), 1u);
    const fuzzer::Seed &in = corpus.entries()[0];
    EXPECT_EQ(in.id, 100u);
    // The foreign parent id would alias an unrelated local seed, so
    // imports become lineage roots but keep depth and operator.
    EXPECT_EQ(in.parentId, 0u);
    EXPECT_EQ(in.lineageDepth, 4u);
    EXPECT_EQ(in.originOp, 2u);
}

TEST(ProvenanceCampaign, CheckpointCarriesLedgerAndForensics)
{
    harness::CampaignOptions opts = campaignOpts();
    opts.provenance = true;

    harness::Campaign src(opts, makeGen(21));
    for (int i = 0; i < 60; ++i)
        src.runIteration();
    ASSERT_FALSE(src.provenanceLedger().empty());

    soc::SnapshotWriter out;
    ASSERT_TRUE(src.saveState(out));

    harness::Campaign dst(opts, makeGen(21));
    soc::SnapshotReader in(out.buffer());
    std::string error;
    ASSERT_TRUE(dst.loadState(in, &error)) << error;
    expectLedgersEqual(src.provenanceLedger(),
                       dst.provenanceLedger());
    EXPECT_EQ(dst.forensics().toJson(), src.forensics().toJson());

    // Resumed first-hit attribution equals uninterrupted: running
    // both further must extend the ledgers identically.
    for (int i = 0; i < 40; ++i) {
        src.runIteration();
        dst.runIteration();
    }
    expectLedgersEqual(src.provenanceLedger(),
                       dst.provenanceLedger());
}

TEST(ProvenanceCampaign, CheckpointCensusMismatchRejected)
{
    harness::CampaignOptions on_opts = campaignOpts();
    on_opts.provenance = true;
    harness::Campaign src(on_opts, makeGen(5));
    for (int i = 0; i < 10; ++i)
        src.runIteration();
    soc::SnapshotWriter out;
    ASSERT_TRUE(src.saveState(out));

    harness::CampaignOptions off_opts = campaignOpts();
    harness::Campaign dst(off_opts, makeGen(5));
    soc::SnapshotReader in(out.buffer());
    std::string error;
    EXPECT_FALSE(dst.loadState(in, &error));
    EXPECT_NE(error.find("provenance census"), std::string::npos)
        << error;
}

// --- Fleet integration -----------------------------------------------

FleetConfig
fleetConfig(unsigned shards, double budget = 3.0,
            double epoch = 0.75, uint64_t seed = 7)
{
    FleetConfig fc;
    fc.fleetSeed = seed;
    fc.shardCount = shards;
    fc.budgetSec = budget;
    fc.epochSec = epoch;
    return fc;
}

harness::CampaignOptions
buggyOpts()
{
    harness::CampaignOptions o = campaignOpts();
    o.coreKind = core::CoreKind::Boom;
    o.bugs = core::BugSet::single(core::BugId::B1);
    return o;
}

fuzzer::FuzzerOptions
fuzzerOpts()
{
    fuzzer::FuzzerOptions o;
    o.instrsPerIteration = 1000;
    return o;
}

void
expectFleetResultsIdentical(const fleet::FleetResult &a,
                            const fleet::FleetResult &b)
{
    EXPECT_EQ(a.totals.iterations, b.totals.iterations);
    EXPECT_EQ(a.totals.executedInstrs, b.totals.executedInstrs);
    EXPECT_EQ(a.totals.generatedInstrs, b.totals.generatedInstrs);
    EXPECT_EQ(a.totals.mismatches, b.totals.mismatches);
    EXPECT_EQ(a.mergedFinalCoverage, b.mergedFinalCoverage);
    EXPECT_EQ(a.seedsExchanged, b.seedsExchanged);
    EXPECT_EQ(a.seedsAdmitted, b.seedsAdmitted);
    EXPECT_EQ(a.reproducersHarvested, b.reproducersHarvested);
    ASSERT_EQ(a.mergedCoverage.samples().size(),
              b.mergedCoverage.samples().size());
    for (size_t i = 0; i < a.mergedCoverage.samples().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.mergedCoverage.samples()[i].value,
                         b.mergedCoverage.samples()[i].value)
            << i;
    }
    ASSERT_EQ(a.mismatches.size(), b.mismatches.size());
    for (size_t i = 0; i < a.mismatches.size(); ++i) {
        EXPECT_EQ(a.mismatches[i].shard, b.mismatches[i].shard);
        EXPECT_EQ(a.mismatches[i].mismatch.pc,
                  b.mismatches[i].mismatch.pc);
    }
    ASSERT_EQ(a.bugTable.size(), b.bugTable.size());
    for (size_t i = 0; i < a.bugTable.size(); ++i) {
        EXPECT_EQ(a.bugTable[i].signature, b.bugTable[i].signature);
        EXPECT_EQ(a.bugTable[i].hits, b.bugTable[i].hits);
    }
}

/** Acceptance: fleet results are bit-identical provenance on vs off. */
TEST(FleetProvenance, OnVsOffResultsIdentical)
{
    FleetConfig off_fc = fleetConfig(2);
    FleetConfig on_fc = off_fc;
    on_fc.provenance = true;

    fleet::FleetOrchestrator off(off_fc, buggyOpts(), fuzzerOpts(),
                                 &lib());
    const fleet::FleetResult off_r = off.run();
    fleet::FleetOrchestrator on(on_fc, buggyOpts(), fuzzerOpts(),
                                &lib());
    const fleet::FleetResult on_r = on.run();

    expectFleetResultsIdentical(off_r, on_r);
    EXPECT_FALSE(off_r.provenanceOn);
    EXPECT_TRUE(on_r.provenanceOn);
    EXPECT_GT(on_r.firstHitsRecorded, 0u);
    EXPECT_GT(on_r.lastNewCoverageSimSec, 0.0);
    ASSERT_EQ(on_r.shardPlateauAgeSec.size(), 2u);
    for (double age : on_r.shardPlateauAgeSec)
        EXPECT_GE(age, 0.0);
    EXPECT_FALSE(on.provenanceLedger().empty());
    EXPECT_TRUE(off.provenanceLedger().empty());
}

/**
 * Acceptance: the ledger survives checkpoint/resume — a resumed
 * fleet's first-hit attribution (global and per-shard) equals the
 * uninterrupted run's.
 */
TEST(FleetProvenance, ResumedLedgerMatchesUninterrupted)
{
    const std::string path =
        testing::TempDir() + "/tf_prov_resume.ckpt";
    auto config = [&](bool checkpointing) {
        FleetConfig fc = fleetConfig(2, 3.0, 0.75, 11);
        fc.provenance = true;
        if (checkpointing) {
            fc.checkpointEveryEpochs = 1;
            fc.checkpointPath = path;
        }
        return fc;
    };

    fleet::FleetOrchestrator uninterrupted(config(false), buggyOpts(),
                                           fuzzerOpts(), &lib());
    const fleet::FleetResult reference = uninterrupted.run();

    {
        FleetConfig fc = config(true);
        fc.haltAfterEpochs = 2;
        fleet::FleetOrchestrator killed(fc, buggyOpts(), fuzzerOpts(),
                                        &lib());
        killed.run();
    }

    std::string error;
    const auto snap = soc::Snapshot::tryLoadFile(path, &error);
    ASSERT_TRUE(snap.has_value()) << error;
    fleet::FleetOrchestrator resumed(config(false), buggyOpts(),
                                     fuzzerOpts(), &lib());
    ASSERT_TRUE(resumed.restoreCheckpoint(*snap, &error)) << error;
    const fleet::FleetResult final_result = resumed.run();

    expectFleetResultsIdentical(reference, final_result);
    expectLedgersEqual(uninterrupted.provenanceLedger(),
                       resumed.provenanceLedger());
    for (unsigned i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        expectLedgersEqual(
            uninterrupted.shard(i).campaign().provenanceLedger(),
            resumed.shard(i).campaign().provenanceLedger());
    }
    EXPECT_EQ(reference.firstHitsRecorded,
              final_result.firstHitsRecorded);
    EXPECT_DOUBLE_EQ(reference.lastNewCoverageSimSec,
                     final_result.lastNewCoverageSimSec);
    std::remove(path.c_str());
}

TEST(FleetProvenance, CheckpointCensusMismatchRejected)
{
    FleetConfig on_fc = fleetConfig(1, 1.5, 0.75);
    on_fc.provenance = true;
    fleet::FleetOrchestrator src(on_fc, campaignOpts(), fuzzerOpts(),
                                 &lib());
    src.run();
    std::string error;
    const auto snap = src.makeCheckpoint(&error);
    ASSERT_TRUE(snap.has_value()) << error;

    FleetConfig off_fc = fleetConfig(1, 1.5, 0.75);
    fleet::FleetOrchestrator dst(off_fc, campaignOpts(), fuzzerOpts(),
                                 &lib());
    EXPECT_FALSE(dst.restoreCheckpoint(*snap, &error));
    EXPECT_NE(error.find("provenance census"), std::string::npos)
        << error;
}

/** The provenance-out artifact exists, carries the schema tag and a
 *  non-empty never-hit target list. */
TEST(FleetProvenance, ReportWritten)
{
    const std::string path =
        testing::TempDir() + "/tf_provenance.json";
    FleetConfig fc = fleetConfig(2, 1.5, 0.75);
    fc.provenanceOut = path;
    fc.provenance = true;
    fleet::FleetOrchestrator orch(fc, campaignOpts(), fuzzerOpts(),
                                  &lib());
    orch.run();

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string report = ss.str();
    EXPECT_NE(report.find("\"schema\":\"turbofuzz.provenance.v1\""),
              std::string::npos);
    EXPECT_NE(report.find("\"never_hit\""), std::string::npos);
    EXPECT_NE(report.find("\"time_to_hit\""), std::string::npos);
    EXPECT_NE(report.find("\"lineage_depth_histogram\""),
              std::string::npos);
    EXPECT_NE(report.find("\"operators\""), std::string::npos);
    std::remove(path.c_str());
}

// --- JSONL cadence across checkpoint/resume --------------------------

/** (t_sim, epoch) pairs of every line in a stats JSONL file. */
std::vector<std::pair<double, long>>
statsCadence(const std::string &path)
{
    std::vector<std::pair<double, long>> out;
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    std::string line;
    while (std::getline(f, line)) {
        const auto t_pos = line.find("\"t_sim\":");
        const auto e_pos = line.find("\"epoch\":");
        EXPECT_NE(t_pos, std::string::npos) << line;
        EXPECT_NE(e_pos, std::string::npos) << line;
        if (t_pos == std::string::npos || e_pos == std::string::npos)
            continue;
        out.emplace_back(std::stod(line.substr(t_pos + 8)),
                         std::stol(line.substr(e_pos + 8)));
    }
    return out;
}

/**
 * Satellite: the JSONL cadence cursor is part of the checkpoint — a
 * killed + resumed fleet's stats files concatenate to exactly the
 * uninterrupted run's emission schedule (no re-emitted line, no
 * skipped interval across the kill).
 */
TEST(JsonlCadence, ResumePreservesStatsCursor)
{
    const std::string dir = testing::TempDir();
    const std::string full = dir + "/tf_stats_full.jsonl";
    const std::string killed_file = dir + "/tf_stats_killed.jsonl";
    const std::string resumed_file = dir + "/tf_stats_resumed.jsonl";
    const std::string ckpt = dir + "/tf_stats_resume.ckpt";

    // Cadence deliberately off-grid vs the 0.75s epochs so some
    // barriers emit and others do not.
    auto config = [&](const std::string &stats) {
        FleetConfig fc = fleetConfig(2, 6.0, 0.75, 13);
        fc.statsFile = stats;
        fc.statsEverySec = 2.0;
        return fc;
    };

    fleet::FleetOrchestrator uninterrupted(config(full),
                                           campaignOpts(),
                                           fuzzerOpts(), &lib());
    uninterrupted.run();

    {
        FleetConfig fc = config(killed_file);
        fc.checkpointEveryEpochs = 1;
        fc.checkpointPath = ckpt;
        fc.haltAfterEpochs = 4; // kill past the first emission
        fleet::FleetOrchestrator killed(fc, campaignOpts(),
                                        fuzzerOpts(), &lib());
        killed.run();
    }

    std::string error;
    const auto snap = soc::Snapshot::tryLoadFile(ckpt, &error);
    ASSERT_TRUE(snap.has_value()) << error;
    fleet::FleetOrchestrator resumed(config(resumed_file),
                                     campaignOpts(), fuzzerOpts(),
                                     &lib());
    ASSERT_TRUE(resumed.restoreCheckpoint(*snap, &error)) << error;
    resumed.run();

    const auto want = statsCadence(full);
    auto got = statsCadence(killed_file);
    const auto tail = statsCadence(resumed_file);
    got.insert(got.end(), tail.begin(), tail.end());

    ASSERT_FALSE(want.empty());
    ASSERT_FALSE(tail.empty()) << "resume emitted nothing";
    ASSERT_EQ(got.size(), want.size())
        << "resume re-emitted or skipped a stats line";
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i].first, want[i].first) << i;
        EXPECT_EQ(got[i].second, want[i].second) << i;
    }

    std::remove(full.c_str());
    std::remove(killed_file.c_str());
    std::remove(resumed_file.c_str());
    std::remove(ckpt.c_str());
}

} // namespace
} // namespace turbofuzz
