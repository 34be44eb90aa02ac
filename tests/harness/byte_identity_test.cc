/**
 * @file
 * Byte-identity pins for generation, the corpus checkpoint, the TFRP
 * reproducer format and the minimizer.
 *
 * Each test hashes bytes a fixed-seed run produces and compares the
 * digest with a constant recorded before the stimulus representation
 * was last refactored. A representation change (how blocks are
 * stored, copied, written to memory or serialized) must leave every
 * digest unchanged: the generator's RNG stream, the memory images it
 * commits, the Seed/TFRP/checkpoint wire bytes and the minimizer's
 * reductions are all observable results. A deliberate change to any
 * of them updates the constant in the same commit and says why.
 */

#include <gtest/gtest.h>

#include "baselines/cascade.hh"
#include "fuzzer/generator.hh"
#include "harness/campaign.hh"
#include "soc/snapshot.hh"
#include "triage/minimizer.hh"

namespace turbofuzz
{
namespace
{

isa::InstructionLibrary &
lib()
{
    static isa::InstructionLibrary l = harness::makeDefaultLibrary();
    return l;
}

/** FNV-1a over byte strings, with a length separator per add(). */
class Digest
{
  public:
    void
    add(const std::vector<uint8_t> &bytes)
    {
        add(static_cast<uint64_t>(bytes.size()));
        for (const uint8_t b : bytes)
            mix(b);
    }

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mix(static_cast<uint8_t>(v >> (8 * i)));
    }

    uint64_t value() const { return h; }

  private:
    void
    mix(uint8_t b)
    {
        h = (h ^ b) * 0x100000001b3ull;
    }

    uint64_t h = 0xcbf29ce484222325ull;
};

std::vector<uint8_t>
memoryBytes(const soc::Memory &mem)
{
    soc::SnapshotWriter w;
    mem.saveState(w);
    return w.takeBuffer();
}

/**
 * A short TurboFuzzer run with synthetic coverage feedback: every
 * third iteration reports an increment, so the corpus fills and the
 * mutation engine's generate/delete/retain paths (including operand
 * mutation of retained blocks and preserved jump targets) all run.
 * Each iteration commits into a fresh memory, so its image is
 * exactly what that iteration wrote.
 */
struct FuzzerRun
{
    uint64_t imageDigest = 0;
    std::vector<uint8_t> corpusState;
};

FuzzerRun
runFuzzer(uint64_t seed, uint32_t iterations)
{
    fuzzer::FuzzerOptions o;
    o.seed = seed;
    o.corpusCapacity = 8;
    fuzzer::TurboFuzzer f(o, &lib());
    Digest d;
    for (uint32_t i = 0; i < iterations; ++i) {
        soc::Memory mem;
        const fuzzer::IterationInfo info = f.generateIteration(mem);
        d.add(memoryBytes(mem));
        d.add(info.generatedInstrs);
        d.add(info.codeBoundary);
        d.add(info.parentSeedId);
        d.add(info.dominantOp());
        f.reportResult(info, i % 3 == 0 ? 5 + 11 * i : 0);
    }
    FuzzerRun run;
    run.imageDigest = d.value();
    soc::SnapshotWriter w;
    f.corpus().saveState(w);
    run.corpusState = w.takeBuffer();
    return run;
}

/** A buggy-core campaign's captured reproducers. */
std::vector<triage::Reproducer>
harvest(uint64_t seed)
{
    harness::CampaignOptions copts;
    copts.timing = soc::turboFuzzProfile();
    copts.coreKind = core::CoreKind::Cva6;
    copts.bugs = core::BugSet::single(core::BugId::C5);
    copts.bugs.enable(core::BugId::C10);
    copts.maxReproducers = 3;
    fuzzer::FuzzerOptions fo;
    fo.seed = seed;
    fo.instrsPerIteration = 1000;
    harness::Campaign c(copts,
                        std::make_unique<fuzzer::TurboFuzzGenerator>(
                            fo, &lib()));
    for (int i = 0; i < 400 && c.reproducers().size() < 3; ++i)
        c.runIteration();
    return c.reproducers();
}

TEST(ByteIdentity, GeneratedImages)
{
    EXPECT_EQ(runFuzzer(1, 36).imageDigest, 0x7c6ef7d055724c46ull);
    EXPECT_EQ(runFuzzer(2, 36).imageDigest, 0x6f8553cafd80bbc1ull);
}

TEST(ByteIdentity, CorpusCheckpoint)
{
    Digest d;
    d.add(runFuzzer(3, 36).corpusState);
    EXPECT_EQ(d.value(), 0xab14ff00de7eb09eull);
}

TEST(ByteIdentity, CascadeImages)
{
    baselines::CascadeGenerator gen(4, &lib(), 1000);
    Digest d;
    for (int i = 0; i < 4; ++i) {
        soc::Memory mem;
        const fuzzer::IterationInfo info = gen.generate(mem);
        d.add(memoryBytes(mem));
        d.add(info.generatedInstrs);
        d.add(info.codeBoundary);
    }
    EXPECT_EQ(d.value(), 0x0a104d0326c57dd5ull);
}

TEST(ByteIdentity, ReproducersAndMinimizer)
{
    const std::vector<triage::Reproducer> repros = harvest(5);
    ASSERT_EQ(repros.size(), 3u);
    Digest tfrp;
    for (const triage::Reproducer &r : repros)
        tfrp.add(r.serialize());
    EXPECT_EQ(tfrp.value(), 0x49a96051c41c5a0dull);

    const triage::Minimizer minimizer({96, true});
    Digest reduced;
    for (const triage::Reproducer &r : repros) {
        const triage::MinimizeResult res = minimizer.minimize(r);
        // The pin is only worth having if ddmin really reduced.
        EXPECT_LT(res.minimizedInstrs, res.originalInstrs / 4);
        reduced.add(res.minimized.serialize());
        reduced.add(res.replays);
        reduced.add(res.minimizedInstrs);
        reduced.add(res.minimizedBlocks);
    }
    EXPECT_EQ(reduced.value(), 0x71e7c93d239e72a5ull);
}

} // namespace
} // namespace turbofuzz
