#include "fuzzer/seed.hh"

#include <cstdio>

#include "common/logging.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::fuzzer
{

namespace
{

/** Serialized block fields after the words: primeIdx + flag +
 *  targetBlock + position. */
constexpr size_t blockFieldBytes = 4 + 1 + 4 + 4;

/** Smallest serialized block shape: ninsns and the fields around an
 *  empty word array (which the parser then rejects by name). */
constexpr size_t minBlockBytes = 4 + blockFieldBytes;

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
Stimulus::appendBlocks(const Stimulus &from, size_t first, size_t n)
{
    TF_ASSERT(&from != this, "appending blocks of the same stimulus");
    if (n == 0)
        return;
    const uint32_t base = totalInstrs();
    const uint32_t begin = from.blocks[first].offset;
    const StimulusBlock &last = from.blocks[first + n - 1];
    words.insert(words.end(), from.words.begin() + begin,
                 from.words.begin() + last.offset + last.count);
    for (size_t k = first; k < first + n; ++k) {
        StimulusBlock &b = blocks.emplace_back(from.blocks[k]);
        b.offset = base + (b.offset - begin);
    }
}

void
Stimulus::truncate(size_t n)
{
    if (n >= blocks.size())
        return;
    words.resize(blocks[n].offset);
    blocks.resize(n);
}

void
Stimulus::eraseWord(size_t i, uint32_t j)
{
    StimulusBlock &b = blocks[i];
    TF_ASSERT(j < b.count && j != b.primeIdx,
              "erasing a missing or prime word");
    words.erase(words.begin() + b.offset + j);
    --b.count;
    if (j < b.primeIdx)
        --b.primeIdx;
    for (size_t k = i + 1; k < blocks.size(); ++k)
        --blocks[k].offset;
}

void
writeSeedBlocks(soc::SnapshotWriter &w, const Stimulus &stimulus)
{
    w.putU32(static_cast<uint32_t>(stimulus.blocks.size()));
    for (size_t i = 0; i < stimulus.blocks.size(); ++i) {
        const StimulusBlock &b = stimulus.blocks[i];
        w.putU32(b.count);
        w.putU32Array(stimulus.blockWords(i));
        w.putU32(b.primeIdx);
        w.putU8(b.isControlFlow ? 1 : 0);
        w.putU32(static_cast<uint32_t>(b.targetBlock));
        w.putU32(b.position);
    }
}

bool
readSeedBlocks(soc::SnapshotReader &r, Stimulus &stimulus,
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
    stimulus.clear();
    stimulus.blocks.resize(nblocks);
    for (StimulusBlock &b : stimulus.blocks) {
        if (r.remaining() < minBlockBytes)
            return fail(formatError("truncated block header",
                                    r.remaining(), minBlockBytes));
        const uint32_t ninsns = r.getU32();
        if (ninsns > (r.remaining() - blockFieldBytes) / 4)
            return fail(formatError(
                "instruction count exceeds buffer", r.remaining(),
                static_cast<unsigned long long>(ninsns) * 4 +
                    blockFieldBytes));
        // Every consumer indexes the block's prime word, and no
        // generator emits an empty block.
        if (ninsns == 0)
            return fail("block without instructions");
        b.offset = stimulus.totalInstrs();
        b.count = ninsns;
        stimulus.words.resize(b.offset + ninsns);
        r.getU32Array({stimulus.words.data() + b.offset, ninsns});
        b.primeIdx = r.getU32();
        b.isControlFlow = r.getU8() != 0;
        b.targetBlock = static_cast<int32_t>(r.getU32());
        b.position = r.getU32();
        if (b.primeIdx >= ninsns)
            return fail("prime index out of range");
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
    mix(stimulus.blocks.size());
    for (const StimulusBlock &b : stimulus.blocks) {
        const size_t n = b.count;
        const uint32_t *w = stimulus.words.data() + b.offset;
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
    writeSeedBlocks(w, stimulus);
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
    if (!readSeedBlocks(r, s.stimulus, error))
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
