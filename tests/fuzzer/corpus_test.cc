/** @file Corpus scheduling tests (§IV-D semantics). */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fuzzer/corpus.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{
namespace
{

Seed
seedWithId(uint64_t id)
{
    Seed s;
    s.id = id;
    // Distinct stimulus per id: imports deduplicate by content hash,
    // so seeds that should be independently admissible must differ
    // in content, not just in id.
    s.stimulus.beginBlock();
    s.stimulus.pushWord(0x13);
    s.stimulus.pushWord(static_cast<uint32_t>(0x100013 + (id << 20)));
    return s;
}

TEST(Corpus, FifoEvictsOldest)
{
    Corpus c(2, SchedulingPolicy::Fifo);
    EXPECT_TRUE(c.offer(seedWithId(1), 10));
    EXPECT_TRUE(c.offer(seedWithId(2), 0)); // FIFO admits anything
    EXPECT_TRUE(c.offer(seedWithId(3), 5)); // evicts seed 1
    EXPECT_EQ(c.size(), 2u);
    bool has1 = false, has3 = false;
    for (const Seed &s : c.entries()) {
        has1 |= s.id == 1;
        has3 |= s.id == 3;
    }
    EXPECT_FALSE(has1);
    EXPECT_TRUE(has3);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Corpus, CoverageGuidedRejectsNonImproving)
{
    Corpus c(4, SchedulingPolicy::CoverageGuided);
    EXPECT_FALSE(c.offer(seedWithId(1), 0)); // no improvement
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.rejections(), 1u);
    EXPECT_TRUE(c.offer(seedWithId(2), 3));
    EXPECT_EQ(c.size(), 1u);
}

TEST(Corpus, CoverageGuidedReplacesWeakest)
{
    Corpus c(2, SchedulingPolicy::CoverageGuided);
    c.offer(seedWithId(1), 10);
    c.offer(seedWithId(2), 50);
    // A newcomer better than the weakest replaces it...
    EXPECT_TRUE(c.offer(seedWithId(3), 20));
    bool has1 = false;
    for (const Seed &s : c.entries())
        has1 |= s.id == 1;
    EXPECT_FALSE(has1);
    // ...but a weaker one is rejected.
    EXPECT_FALSE(c.offer(seedWithId(4), 5));
    EXPECT_EQ(c.size(), 2u);
}

TEST(Corpus, PaperScenarioKeepsProductiveOldSeed)
{
    // The Fig. 5 scenario: an old seed that still improves coverage
    // must survive a stream of mediocre newcomers under coverage
    // scheduling, but dies under FIFO.
    Corpus guided(3, SchedulingPolicy::CoverageGuided);
    Corpus fifo(3, SchedulingPolicy::Fifo);
    guided.offer(seedWithId(100), 500); // valuable old seed
    fifo.offer(seedWithId(100), 500);
    for (uint64_t i = 0; i < 10; ++i) {
        guided.offer(seedWithId(i), 1 + i % 3);
        fifo.offer(seedWithId(i), 1 + i % 3);
    }
    bool guided_has = false, fifo_has = false;
    for (const Seed &s : guided.entries())
        guided_has |= s.id == 100;
    for (const Seed &s : fifo.entries())
        fifo_has |= s.id == 100;
    EXPECT_TRUE(guided_has);
    EXPECT_FALSE(fifo_has);
}

TEST(Corpus, UpdateIncrementRefreshesSeed)
{
    Corpus c(4, SchedulingPolicy::CoverageGuided);
    c.offer(seedWithId(1), 10);
    c.updateIncrement(1, 99);
    EXPECT_EQ(c.entries()[0].coverageIncrement, 99u);
    // Unknown id is a no-op (seed may have been evicted).
    c.updateIncrement(555, 1);
}

TEST(Corpus, PrioritizedSelectionPrefersHighIncrement)
{
    Corpus c(8, SchedulingPolicy::CoverageGuided);
    for (uint64_t i = 1; i <= 8; ++i)
        c.offer(seedWithId(i), i * 10);

    Rng rng(7);
    int high = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        const Seed *s = c.trySelect(rng, {3, 4});
        ASSERT_NE(s, nullptr);
        if (s->coverageIncrement >= 70) // top quartile: ids 7, 8
            ++high;
    }
    // 3/4 prioritized (always top quartile) + 1/4 uniform (2/8).
    const double expected = 0.75 + 0.25 * 2.0 / 8.0;
    EXPECT_NEAR(static_cast<double>(high) / trials, expected, 0.05);
}

TEST(Corpus, UniformSelectionWhenNotPrioritizing)
{
    Corpus c(4, SchedulingPolicy::CoverageGuided);
    for (uint64_t i = 1; i <= 4; ++i)
        c.offer(seedWithId(i), i);
    Rng rng(3);
    std::map<uint64_t, int> hits;
    for (int t = 0; t < 4000; ++t)
        hits[c.trySelect(rng, {0, 1})->id]++;
    for (uint64_t i = 1; i <= 4; ++i)
        EXPECT_NEAR(hits[i] / 4000.0, 0.25, 0.05) << i;
}

TEST(Corpus, AddBaselineBypassesAdmission)
{
    Corpus c(2, SchedulingPolicy::CoverageGuided);
    c.addBaseline(seedWithId(1)); // zero increment, still admitted
    EXPECT_EQ(c.size(), 1u);
    c.addBaseline(seedWithId(2));
    c.addBaseline(seedWithId(3)); // evicts oldest baseline
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Corpus, PrioritizedSelectionDistributionUnchanged)
{
    // Regression for the nth_element fast path: selection must stay
    // uniform over the top-quartile *set*, i.e. each of the top-2
    // seeds (of 8) is picked with p = 0.75/2 + 0.25/8, and every
    // lower seed with p = 0.25/8.
    Corpus c(8, SchedulingPolicy::CoverageGuided);
    for (uint64_t i = 1; i <= 8; ++i)
        c.offer(seedWithId(i), i * 10);

    Rng rng(11);
    std::map<uint64_t, int> hits;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t)
        hits[c.trySelect(rng, {3, 4})->id]++;

    const double top_p = 0.75 / 2.0 + 0.25 / 8.0;
    const double low_p = 0.25 / 8.0;
    for (uint64_t i = 1; i <= 8; ++i) {
        const double p = static_cast<double>(hits[i]) / trials;
        EXPECT_NEAR(p, i >= 7 ? top_p : low_p, 0.02) << "seed " << i;
    }
}

TEST(Corpus, UpdateIncrementSurvivesEvictionChurn)
{
    Corpus c(3, SchedulingPolicy::CoverageGuided);
    c.offer(seedWithId(1), 10);
    c.offer(seedWithId(2), 20);
    c.offer(seedWithId(3), 30);
    // Churn: 1 evicted by 4, then 2 evicted by 5.
    EXPECT_TRUE(c.offer(seedWithId(4), 40));
    EXPECT_TRUE(c.offer(seedWithId(5), 50));
    EXPECT_EQ(c.evictions(), 2u);

    // Updating evicted ids is a no-op...
    c.updateIncrement(1, 999);
    c.updateIncrement(2, 999);
    for (const Seed &s : c.entries())
        EXPECT_NE(s.coverageIncrement, 999u);

    // ...while survivors are found through the id index, including
    // seeds that landed in recycled slots.
    c.updateIncrement(3, 31);
    c.updateIncrement(4, 41);
    c.updateIncrement(5, 51);
    for (const Seed &s : c.entries())
        EXPECT_EQ(s.coverageIncrement, s.id * 10 + 1);

    // More churn after updates: the index stays consistent.
    EXPECT_TRUE(c.offer(seedWithId(6), 60));
    c.updateIncrement(6, 61);
    bool found6 = false;
    for (const Seed &s : c.entries()) {
        if (s.id == 6) {
            found6 = true;
            EXPECT_EQ(s.coverageIncrement, 61u);
        }
    }
    EXPECT_TRUE(found6);
}

TEST(Corpus, ExportTopReturnsBestByIncrement)
{
    Corpus c(8, SchedulingPolicy::CoverageGuided);
    for (uint64_t i = 1; i <= 6; ++i)
        c.offer(seedWithId(i), i * 10);
    const std::vector<SeedShare> top = c.exportTopShared(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].seed->id, 6u);
    EXPECT_EQ(top[1].seed->id, 5u);
    EXPECT_EQ(top[2].seed->id, 4u);
    // Each block carries its seed's content hash.
    for (const SeedShare &share : top)
        EXPECT_EQ(share.contentHash, share.seed->contentHash());
    // topK ranks the same seeds by index into entries().
    const std::vector<size_t> idx = c.topK(3);
    ASSERT_EQ(idx.size(), 3u);
    for (size_t i = 0; i < idx.size(); ++i)
        EXPECT_EQ(c.entries()[idx[i]].id, top[i].seed->id);
    // Asking for more than resident returns everything.
    EXPECT_EQ(c.exportTopShared(100).size(), 6u);
    EXPECT_EQ(c.topK(100).size(), 6u);
    // Export copies into fresh blocks; the corpus is untouched.
    EXPECT_EQ(c.size(), 6u);
    EXPECT_NE(top[0].seed.get(), &c.entries()[idx[0]]);
}

TEST(Corpus, ExportTopBreaksTiesByAge)
{
    Corpus c(4, SchedulingPolicy::CoverageGuided);
    c.offer(seedWithId(10), 50);
    c.offer(seedWithId(11), 50);
    c.offer(seedWithId(12), 50);
    const std::vector<SeedShare> top = c.exportTopShared(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].seed->id, 10u); // oldest first among equals
    EXPECT_EQ(top[1].seed->id, 11u);
}

TEST(Corpus, ImportSeedsRemapsIdsAndHonorsAdmission)
{
    Corpus donor(4, SchedulingPolicy::CoverageGuided);
    donor.offer(seedWithId(1), 100);
    donor.offer(seedWithId(2), 200);

    Corpus receiver(4, SchedulingPolicy::CoverageGuided);
    // Local id 1 already taken — by a *different* stimulus, so the
    // import exercises the id remap rather than content dedup.
    Seed local = seedWithId(100);
    local.id = 1;
    receiver.offer(std::move(local), 5);

    uint64_t next_id = 1000;
    const size_t admitted =
        receiver.importShared(donor.exportTopShared(2), next_id);
    EXPECT_EQ(admitted, 2u);
    EXPECT_EQ(next_id, 1002u);
    EXPECT_EQ(receiver.size(), 3u);

    // Imported seeds carry their increments but fresh local ids; the
    // pre-existing local seed id 1 is untouched.
    int local1 = 0;
    for (const Seed &s : receiver.entries()) {
        EXPECT_TRUE(s.id == 1 || s.id >= 1000);
        if (s.id == 1) {
            ++local1;
            EXPECT_EQ(s.coverageIncrement, 5u);
        }
    }
    EXPECT_EQ(local1, 1);

    // The id index works for imported seeds too.
    receiver.updateIncrement(1001, 777);
    bool found = false;
    for (const Seed &s : receiver.entries())
        found |= s.coverageIncrement == 777;
    EXPECT_TRUE(found);
}

TEST(Corpus, ImportIntoFullCorpusEvictsWeakest)
{
    Corpus receiver(2, SchedulingPolicy::CoverageGuided);
    receiver.offer(seedWithId(1), 1);
    receiver.offer(seedWithId(2), 1000);

    Corpus donor(2, SchedulingPolicy::CoverageGuided);
    donor.offer(seedWithId(7), 500);

    uint64_t next_id = 50;
    EXPECT_EQ(receiver.importShared(donor.exportTopShared(1), next_id),
              1u);
    // The weak local seed (increment 1) was evicted, the strong one
    // survives alongside the import.
    EXPECT_EQ(receiver.size(), 2u);
    bool has_strong = false, has_import = false;
    for (const Seed &s : receiver.entries()) {
        has_strong |= s.id == 2;
        has_import |= s.id == 50;
    }
    EXPECT_TRUE(has_strong);
    EXPECT_TRUE(has_import);
}

TEST(Corpus, SelectFromEmptyReturnsNull)
{
    // Satellite hardening: an empty corpus is a recoverable
    // condition (misconfigured campaign), not a process abort — the
    // caller turns the nullptr into a diagnostic.
    Corpus c(2, SchedulingPolicy::Fifo);
    Rng rng(1);
    EXPECT_EQ(c.trySelect(rng), nullptr);
    Corpus guided(2, SchedulingPolicy::CoverageGuided);
    EXPECT_EQ(guided.trySelect(rng, {3, 4}), nullptr);

    // Once a seed arrives, selection works again.
    guided.offer(seedWithId(1), 5);
    const Seed *s = guided.trySelect(rng, {3, 4});
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->id, 1u);
}

TEST(Corpus, FindSeedById)
{
    Corpus c(2, SchedulingPolicy::CoverageGuided);
    c.offer(seedWithId(1), 10);
    c.offer(seedWithId(2), 20);
    ASSERT_NE(c.findSeed(2), nullptr);
    EXPECT_EQ(c.findSeed(2)->coverageIncrement, 20u);
    EXPECT_EQ(c.findSeed(99), nullptr);
    // Eviction invalidates the id.
    EXPECT_TRUE(c.offer(seedWithId(3), 30)); // evicts seed 1
    EXPECT_EQ(c.findSeed(1), nullptr);
    ASSERT_NE(c.findSeed(3), nullptr);
}

TEST(Corpus, PrioritizeUniformSplitMatchesProbability)
{
    // Statistical pin of the dual-strategy split itself: with
    // prioritize probability p, the top-quartile set (2 of 8 seeds)
    // receives p + (1-p) * 2/8 of the picks. Checked at p = 1/2 so
    // both branches contribute comparably.
    Corpus c(8, SchedulingPolicy::CoverageGuided);
    for (uint64_t i = 1; i <= 8; ++i)
        c.offer(seedWithId(i), i * 10);
    Rng rng(23);
    int top = 0;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
        if (c.trySelect(rng, {1, 2})->coverageIncrement >= 70)
            ++top;
    }
    const double expected = 0.5 + 0.5 * 2.0 / 8.0;
    EXPECT_NEAR(static_cast<double>(top) / trials, expected, 0.02);
}

TEST(Seed, ContentHashIgnoresSchedulingMetadata)
{
    // Two blocks with an odd and an even instruction count, so every
    // lane of the word packing is exercised.
    Seed a = seedWithId(5);
    StimulusBlock &cf = a.stimulus.beginBlock();
    for (const uint32_t w : {0x00000013u, 0x00a00093u, 0xfe000ee3u})
        a.stimulus.pushWord(w);
    cf.primeIdx = 2;
    cf.isControlFlow = true;
    cf.targetBlock = 0;
    cf.position = 1;
    const uint64_t h = a.contentHash();
    EXPECT_EQ(h, a.contentHash()); // stable

    // Scheduling metadata and genealogy do not move the hash.
    Seed b = a;
    b.id = 99;
    b.coverageIncrement = 1234;
    b.insertedAt = 42;
    b.parentId = 7;
    b.originOp = 3;
    b.lineageDepth = 5;
    b.energyAtCreation = 4;
    EXPECT_EQ(h, b.contentHash());

    // Every content field moves it, in either block. Block 0 holds
    // words [0, 2), block 1 words [2, 5).
    const std::vector<std::pair<const char *, void (*)(Seed &)>>
        edits = {
            {"insn value", [](Seed &s) { s.stimulus.words[0] ^= 1; }},
            {"last insn value",
             [](Seed &s) { s.stimulus.words[4] ^= 0x80000000u; }},
            {"insn order",
             [](Seed &s) {
                 std::swap(s.stimulus.words[2], s.stimulus.words[3]);
             }},
            {"insn order across words",
             [](Seed &s) {
                 std::swap(s.stimulus.words[3], s.stimulus.words[4]);
             }},
            {"insn count",
             [](Seed &s) {
                 Stimulus &t = s.stimulus;
                 t.words.insert(t.words.begin() + 2, 0x13);
                 ++t.blocks[0].count;
                 ++t.blocks[1].offset;
             }},
            // Only the count tells {.., x} from {.., x, 0} apart.
            {"trailing zero insn",
             [](Seed &s) { s.stimulus.pushWord(0); }},
            {"primeIdx",
             [](Seed &s) { s.stimulus.blocks[1].primeIdx = 1; }},
            {"isControlFlow",
             [](Seed &s) { s.stimulus.blocks[1].isControlFlow = false; }},
            {"targetBlock",
             [](Seed &s) { s.stimulus.blocks[0].targetBlock = 3; }},
            {"targetBlock sign",
             [](Seed &s) { s.stimulus.blocks[1].targetBlock = -1; }},
            {"position",
             [](Seed &s) { s.stimulus.blocks[1].position = 2; }},
            {"position bit 31",
             [](Seed &s) { s.stimulus.blocks[1].position |= 0x80000000u; }},
            {"block count", [](Seed &s) { s.stimulus.truncate(1); }},
            {"block order",
             [](Seed &s) {
                 Stimulus swapped;
                 swapped.appendBlocks(s.stimulus, 1, 1);
                 swapped.appendBlocks(s.stimulus, 0, 1);
                 s.stimulus = swapped;
             }},
        };
    for (const auto &[what, edit] : edits) {
        Seed c = a;
        edit(c);
        EXPECT_NE(h, c.contentHash()) << what;
    }
}

TEST(Corpus, ImportDeduplicatesByContent)
{
    // Bugfix regression: re-identified imports of the same stimulus
    // must not be re-admitted as "new" every epoch (the broadcast
    // flooding bug). The second import of an identical batch admits
    // nothing and allocates no ids.
    Corpus donor(4, SchedulingPolicy::CoverageGuided);
    donor.offer(seedWithId(1), 100);
    donor.offer(seedWithId(2), 200);

    Corpus receiver(8, SchedulingPolicy::CoverageGuided);
    uint64_t next_id = 1000;
    EXPECT_EQ(receiver.importShared(donor.exportTopShared(2), next_id),
              2u);
    EXPECT_EQ(next_id, 1002u);
    EXPECT_EQ(receiver.importShared(donor.exportTopShared(2), next_id),
              0u);
    EXPECT_EQ(next_id, 1002u); // no ids burned on duplicates
    EXPECT_EQ(receiver.size(), 2u);
    EXPECT_EQ(receiver.duplicateImports(), 2u);

    // Duplicates inside one imported batch collapse too.
    Seed dup = seedWithId(3);
    dup.coverageIncrement = 30; // pass coverage-guided admission
    EXPECT_EQ(receiver.importShared({makeSeedShare(dup),
                                     makeSeedShare(dup)},
                                    next_id),
              1u);
    EXPECT_EQ(receiver.size(), 3u);
    EXPECT_EQ(receiver.duplicateImports(), 3u);
}

/** A stimulus @p tag with recorded increment @p inc, as a share. */
SeedShare
shareOf(uint64_t tag, uint64_t inc)
{
    Seed s = seedWithId(tag);
    s.coverageIncrement = inc;
    return makeSeedShare(std::move(s));
}

TEST(Corpus, ImportAfterEvictionSeesFreshHash)
{
    // The per-slot hash cache must follow the slot's seed: once X is
    // evicted, re-importing X is new content, not a duplicate of a
    // stale cached hash.
    Corpus c(1, SchedulingPolicy::CoverageGuided);
    uint64_t next_id = 1;
    ASSERT_EQ(c.importShared({shareOf(1, 10)}, next_id), 1u); // X
    // Y outranks X; this import hashes the resident X first, then
    // evicts it.
    ASSERT_EQ(c.importShared({shareOf(2, 20)}, next_id), 1u);
    ASSERT_EQ(c.entries()[0].contentHash(),
              seedWithId(2).contentHash());
    EXPECT_EQ(c.importShared({shareOf(1, 30)}, next_id), 1u);
    EXPECT_EQ(c.duplicateImports(), 0u);
    EXPECT_EQ(c.entries()[0].contentHash(),
              seedWithId(1).contentHash());
    // ...while re-importing the resident is still a duplicate.
    EXPECT_EQ(c.importShared({shareOf(1, 40)}, next_id), 0u);
    EXPECT_EQ(c.duplicateImports(), 1u);
}

TEST(Corpus, LoadStateResetsHashCache)
{
    Corpus src(4, SchedulingPolicy::CoverageGuided);
    src.offer(seedWithId(1), 10);
    src.offer(seedWithId(2), 20);
    soc::SnapshotWriter w;
    src.saveState(w);
    const auto image = w.takeBuffer();

    // The target has cached hashes of other content before the load.
    Corpus back(4, SchedulingPolicy::CoverageGuided);
    uint64_t next_id = 100;
    ASSERT_EQ(back.importShared({shareOf(7, 5), shareOf(8, 5),
                                 shareOf(9, 5)},
                                next_id),
              3u);
    ASSERT_EQ(back.importShared({shareOf(7, 5)}, next_id), 0u);

    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(back.loadState(r, &error)) << error;
    const uint64_t dups = back.duplicateImports(); // restored count

    // A restored seed's content is a duplicate...
    EXPECT_EQ(back.importShared({shareOf(2, 50)}, next_id), 0u);
    EXPECT_EQ(back.duplicateImports(), dups + 1);
    // ...and content resident only before the load is not.
    EXPECT_EQ(back.importShared({shareOf(7, 50)}, next_id), 1u);
    EXPECT_EQ(back.duplicateImports(), dups + 1);
}

TEST(Corpus, SaveLoadStateRoundTrip)
{
    Corpus c(8, SchedulingPolicy::CoverageGuided);
    for (uint64_t i = 1; i <= 5; ++i)
        c.offer(seedWithId(i), i * 7);
    uint64_t next_id = 50;
    c.importShared({shareOf(40, 3)}, next_id);

    soc::SnapshotWriter w;
    c.saveState(w);
    const auto image = w.takeBuffer();

    Corpus back(8, SchedulingPolicy::CoverageGuided);
    soc::SnapshotReader r(image);
    std::string error;
    ASSERT_TRUE(back.loadState(r, &error)) << error;
    ASSERT_TRUE(r.exhausted());

    ASSERT_EQ(back.size(), c.size());
    for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(back.entries()[i].id, c.entries()[i].id);
        EXPECT_EQ(back.entries()[i].coverageIncrement,
                  c.entries()[i].coverageIncrement);
        EXPECT_EQ(back.entries()[i].insertedAt,
                  c.entries()[i].insertedAt);
        EXPECT_EQ(back.entries()[i].contentHash(),
                  c.entries()[i].contentHash());
    }
    EXPECT_EQ(back.evictions(), c.evictions());
    EXPECT_EQ(back.rejections(), c.rejections());
    EXPECT_EQ(back.duplicateImports(), c.duplicateImports());

    // The restored id index works (updateIncrement is O(1) via it).
    back.updateIncrement(back.entries()[0].id, 777);
    EXPECT_EQ(back.entries()[0].coverageIncrement, 777u);

    // Malformed: a seed count beyond capacity is rejected before any
    // allocation.
    soc::SnapshotWriter bad;
    bad.putU64(0);
    bad.putU64(0);
    bad.putU64(0);
    bad.putU64(0);
    bad.putU32(0xFFFFFFFFu);
    const auto bad_image = bad.takeBuffer();
    soc::SnapshotReader bad_reader(bad_image);
    Corpus victim(8, SchedulingPolicy::CoverageGuided);
    EXPECT_FALSE(victim.loadState(bad_reader, &error));
    EXPECT_NE(error.find("capacity"), std::string::npos);
}

} // namespace
} // namespace turbofuzz::fuzzer
