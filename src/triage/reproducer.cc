#include "triage/reproducer.hh"

#include <cmath>
#include <cstring>

#include "fuzzer/seed.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::triage
{

namespace
{

constexpr uint32_t reproMagic = 0x54465250; // "TFRP"
constexpr uint16_t reproVersion = 1;

/** Fixed-size portion of the wire format after the magic/version. */
constexpr size_t fixedBytes =
    1 + 4 + 1 + 1 + 1 +     // coreKind, bugs, rv64a, mode, resume
    8 + 8 + 4 +             // stepCapFactor, stepCapSlack, stormLimit
    8 + 4 +                 // fuzzerSeed, bootstrapInstrs
    5 * 8 +                 // layout
    8 + 8 + 8 + 8 + 8 + 4 + // iteration scalars
    1 + 8 + 4 + 8 + 8 + 8 + // mismatch
    8 + 8 + 4;              // commitIndex, detectTime, shard

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

std::vector<uint8_t>
Reproducer::serialize() const
{
    soc::SnapshotWriter w;
    w.putU32(reproMagic);
    w.putU16(reproVersion);

    w.putU8(static_cast<uint8_t>(coreKind));
    w.putU32(bugsRaw);
    w.putU8(rv64aEnabled ? 1 : 0);
    w.putU8(static_cast<uint8_t>(checkMode));
    w.putU8(resumeTraps ? 1 : 0);
    w.putU64(doubleBits(stepCapFactor));
    w.putU64(stepCapSlack);
    w.putU32(trapStormLimit);

    w.putU64(env.fuzzerSeed);
    w.putU32(env.bootstrapInstrs);
    w.putU64(env.layout.instrBase);
    w.putU64(env.layout.instrSize);
    w.putU64(env.layout.dataBase);
    w.putU64(env.layout.dataSize);
    w.putU64(env.layout.handlerBase);

    w.putU64(iteration.iterationIndex);
    w.putU64(iteration.entryPc);
    w.putU64(iteration.firstBlockPc);
    w.putU64(iteration.codeBoundary);
    w.putU64(iteration.fuzzRegionEnd);
    w.putU32(iteration.generatedInstrs);

    w.putU8(static_cast<uint8_t>(mismatch.kind));
    w.putU64(mismatch.pc);
    w.putU32(mismatch.insn);
    w.putU64(mismatch.dutValue);
    w.putU64(mismatch.refValue);
    w.putU64(mismatch.instrIndex);

    w.putU64(commitIndex);
    w.putU64(doubleBits(detectSimTimeSec));
    w.putU32(shard);

    fuzzer::writeSeedBlocks(w, iteration.stimulus);
    return w.takeBuffer();
}

std::optional<Reproducer>
Reproducer::tryDeserialize(const std::vector<uint8_t> &bytes,
                           std::string *error)
{
    auto fail = [&](const char *msg) -> std::optional<Reproducer> {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    soc::SnapshotReader r(bytes);
    if (r.remaining() < 6 + fixedBytes)
        return fail("truncated reproducer header");
    if (r.getU32() != reproMagic)
        return fail("bad reproducer magic");
    if (r.getU16() != reproVersion)
        return fail("unsupported reproducer version");

    Reproducer p;
    // Enum bytes are range-checked here so corrupt input surfaces as
    // a typed error instead of a downstream panic in code that
    // switches over the enum.
    const uint8_t core_kind = r.getU8();
    if (core_kind > static_cast<uint8_t>(core::CoreKind::Boom))
        return fail("bad core kind");
    p.coreKind = static_cast<core::CoreKind>(core_kind);
    p.bugsRaw = r.getU32();
    p.rv64aEnabled = r.getU8() != 0;
    const uint8_t check_mode = r.getU8();
    if (check_mode >
        static_cast<uint8_t>(
            checker::DiffChecker::Mode::EndOfIteration))
        return fail("bad check mode");
    p.checkMode = static_cast<checker::DiffChecker::Mode>(check_mode);
    p.resumeTraps = r.getU8() != 0;
    p.stepCapFactor = bitsDouble(r.getU64());
    p.stepCapSlack = r.getU64();
    p.trapStormLimit = r.getU32();

    p.env.fuzzerSeed = r.getU64();
    p.env.bootstrapInstrs = r.getU32();
    p.env.layout.instrBase = r.getU64();
    p.env.layout.instrSize = r.getU64();
    p.env.layout.dataBase = r.getU64();
    p.env.layout.dataSize = r.getU64();
    p.env.layout.handlerBase = r.getU64();

    p.iteration.iterationIndex = r.getU64();
    p.iteration.entryPc = r.getU64();
    p.iteration.firstBlockPc = r.getU64();
    p.iteration.codeBoundary = r.getU64();
    p.iteration.fuzzRegionEnd = r.getU64();
    p.iteration.generatedInstrs = r.getU32();

    const uint8_t kind = r.getU8();
    if (kind > static_cast<uint8_t>(checker::MismatchKind::MemEffect))
        return fail("bad mismatch kind");
    p.mismatch.kind = static_cast<checker::MismatchKind>(kind);
    p.mismatch.pc = r.getU64();
    p.mismatch.insn = r.getU32();
    p.mismatch.dutValue = r.getU64();
    p.mismatch.refValue = r.getU64();
    p.mismatch.instrIndex = r.getU64();

    p.commitIndex = r.getU64();
    p.detectSimTimeSec = bitsDouble(r.getU64());
    p.shard = r.getU32();

    if (!fuzzer::readSeedBlocks(r, p.iteration.stimulus, error))
        return std::nullopt;
    if (!r.exhausted())
        return fail("trailing bytes in serialized reproducer");

    // Cross-field validation: a corrupt record that parses must not
    // be able to drive replay into a huge memory fill or an internal
    // invariant panic — same contract as the seed parser.
    const fuzzer::MemoryLayout &lay = p.env.layout;
    if (!std::isfinite(p.stepCapFactor) || p.stepCapFactor < 0.0 ||
        p.stepCapFactor > 1e6 ||
        p.stepCapSlack > (uint64_t{1} << 32))
        return fail("implausible step cap");
    if (p.env.bootstrapInstrs > (1u << 16))
        return fail("implausible bootstrap length");
    if (lay.instrSize > (1ull << 28) || lay.dataSize > (1ull << 28))
        return fail("implausible segment size");
    if (p.iteration.firstBlockPc !=
        lay.instrBase +
            4ull * fuzzer::TurboFuzzer::preambleCode(p.env).size())
        return fail("fuzz-region start disagrees with preamble");
    const uint64_t instrs = p.iteration.stimulus.totalInstrs();
    if (instrs != p.iteration.generatedInstrs)
        return fail("instruction count disagrees with blocks");
    if (p.iteration.codeBoundary !=
            p.iteration.firstBlockPc + 4ull * instrs ||
        p.iteration.codeBoundary > lay.instrBase + lay.instrSize)
        return fail("code boundary disagrees with layout");
    return p;
}

Reproducer
Reproducer::deserialize(const std::vector<uint8_t> &bytes)
{
    std::string error;
    auto p = tryDeserialize(bytes, &error);
    if (!p)
        throw fuzzer::SeedFormatError("reproducer deserialize: " +
                                      error);
    return std::move(*p);
}

} // namespace turbofuzz::triage
