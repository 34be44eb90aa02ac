#include "fuzzer/seed.hh"

#include <cstdio>

#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{

namespace
{

/** Smallest possible serialized block: ninsns + primeIdx + flag +
 *  targetBlock + position with an empty instruction array. */
constexpr size_t minBlockBytes = 4 + 4 + 1 + 4 + 4;

std::string
formatError(const char *what, unsigned long long have,
            unsigned long long need)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s (need %llu bytes, have %llu)",
                  what, need, have);
    return buf;
}

} // namespace

void
writeSeedBlocks(soc::SnapshotWriter &w,
                const std::vector<SeedBlock> &blocks)
{
    w.putU32(static_cast<uint32_t>(blocks.size()));
    for (const SeedBlock &b : blocks) {
        w.putU32(static_cast<uint32_t>(b.insns.size()));
        for (uint32_t insn : b.insns)
            w.putU32(insn);
        w.putU32(b.primeIdx);
        w.putU8(b.isControlFlow ? 1 : 0);
        w.putU32(static_cast<uint32_t>(b.targetBlock));
        w.putU32(b.position);
    }
}

bool
readSeedBlocks(soc::SnapshotReader &r, std::vector<SeedBlock> &blocks,
               std::string *error)
{
    auto fail = [&](std::string msg) {
        if (error)
            *error = std::move(msg);
        return false;
    };

    if (r.remaining() < 4)
        return fail(formatError("truncated block count",
                                r.remaining(), 4));
    const uint32_t nblocks = r.getU32();
    // Every block costs at least minBlockBytes, so a length field
    // larger than that bound cannot describe this buffer — reject
    // before the resize() rather than attempting the allocation.
    if (nblocks > r.remaining() / minBlockBytes)
        return fail(formatError("block count exceeds buffer",
                                r.remaining(),
                                static_cast<unsigned long long>(
                                    nblocks) * minBlockBytes));
    blocks.clear();
    blocks.resize(nblocks);
    for (SeedBlock &b : blocks) {
        if (r.remaining() < minBlockBytes)
            return fail(formatError("truncated block header",
                                    r.remaining(), minBlockBytes));
        const uint32_t ninsns = r.getU32();
        if (ninsns > (r.remaining() - (minBlockBytes - 4)) / 4)
            return fail(formatError(
                "instruction count exceeds buffer", r.remaining(),
                static_cast<unsigned long long>(ninsns) * 4 +
                    (minBlockBytes - 4)));
        b.insns.resize(ninsns);
        for (uint32_t &insn : b.insns)
            insn = r.getU32();
        b.primeIdx = r.getU32();
        b.isControlFlow = r.getU8() != 0;
        b.targetBlock = static_cast<int32_t>(r.getU32());
        b.position = r.getU32();
        if (!b.insns.empty() && b.primeIdx >= b.insns.size())
            return fail("prime index out of range");
        // A control-flow block must have a prime word to patch —
        // consumers index insns[primeIdx] unconditionally.
        if (b.isControlFlow && b.insns.empty())
            return fail("control-flow block without instructions");
    }
    return true;
}

uint64_t
Seed::contentHash() const
{
    // One multiply-and-xorshift step per 64-bit word of block
    // content; scheduling metadata (id, increment, age) and genealogy
    // are deliberately excluded so re-identified imports of the same
    // stimulus hash identically. Each step is a bijection of the
    // state for a fixed word, so any single-word difference always
    // moves the hash. Fields are packed losslessly: an instruction
    // count never reaches bit 63, and the 32-bit fields pair up two
    // to a word (the count disambiguates an odd last word).
    uint64_t h = 0x9e3779b97f4a7c15ull;
    auto mix = [&h](uint64_t v) {
        h = (h ^ v) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
    };
    mix(blocks.size());
    for (const SeedBlock &b : blocks) {
        const size_t n = b.insns.size();
        const uint32_t *w = b.insns.data();
        const uint64_t target = static_cast<uint32_t>(b.targetBlock);
        mix(static_cast<uint64_t>(n) |
            static_cast<uint64_t>(b.isControlFlow) << 63);
        mix(b.primeIdx | target << 32);
        mix(b.position);
        size_t i = 0;
        for (; i + 1 < n; i += 2)
            mix(w[i] | static_cast<uint64_t>(w[i + 1]) << 32);
        if (i < n)
            mix(w[i]);
    }
    return h;
}

SeedShare
makeSeedShare(Seed seed)
{
    const uint64_t hash = seed.contentHash();
    return {std::make_shared<const Seed>(std::move(seed)), hash};
}

std::vector<uint8_t>
Seed::serialize() const
{
    soc::SnapshotWriter w;
    w.putU64(id);
    w.putU64(coverageIncrement);
    w.putU64(insertedAt);
    w.putU64(parentId);
    w.putU8(originOp);
    w.putU32(lineageDepth);
    w.putU64(energyAtCreation);
    writeSeedBlocks(w, blocks);
    return w.takeBuffer();
}

std::optional<Seed>
Seed::tryDeserialize(const std::vector<uint8_t> &bytes,
                     std::string *error)
{
    soc::SnapshotReader r(bytes);
    Seed s;
    if (r.remaining() < 45) {
        if (error)
            *error = formatError("truncated seed header",
                                 r.remaining(), 45);
        return std::nullopt;
    }
    s.id = r.getU64();
    s.coverageIncrement = r.getU64();
    s.insertedAt = r.getU64();
    s.parentId = r.getU64();
    s.originOp = r.getU8();
    s.lineageDepth = r.getU32();
    s.energyAtCreation = r.getU64();
    if (!readSeedBlocks(r, s.blocks, error))
        return std::nullopt;
    if (!r.exhausted()) {
        if (error)
            *error = formatError("trailing bytes in serialized seed",
                                 r.remaining(), 0);
        return std::nullopt;
    }
    return s;
}

Seed
Seed::deserialize(const std::vector<uint8_t> &bytes)
{
    std::string error;
    auto s = tryDeserialize(bytes, &error);
    if (!s)
        throw SeedFormatError("seed deserialize: " + error);
    return std::move(*s);
}

} // namespace turbofuzz::fuzzer
