/**
 * @file
 * Seeds and instruction blocks (paper §IV-A).
 *
 * An *instruction block* is the generation unit: a mandatory prime
 * instruction plus optional affiliated instructions that establish
 * its prerequisites (address materialization, alignment masking, ...).
 *
 * A *seed* stores one archived iteration's blocks together with the
 * metadata the mutation engine needs: each block records its position
 * in the iteration, its control-flow status and its branch-target
 * block index, enabling precise pattern reproduction while keeping
 * architectural context (the paper's "stimulus entry" layout).
 */

#ifndef TURBOFUZZ_FUZZER_SEED_HH
#define TURBOFUZZ_FUZZER_SEED_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace turbofuzz::soc
{
class SnapshotWriter;
class SnapshotReader;
} // namespace turbofuzz::soc

namespace turbofuzz::fuzzer
{

/**
 * Thrown by Seed::deserialize (and other stimulus parsers) on
 * corrupt or truncated input. Untrusted bytes — a damaged corpus
 * file, a truncated fleet transfer — must surface as a typed,
 * catchable error, never as a panic or a multi-gigabyte allocation
 * from a corrupted length field.
 */
class SeedFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One instruction block's record inside a Stimulus. */
struct StimulusBlock
{
    /** First word of the block within Stimulus::words. */
    uint32_t offset = 0;

    /** Prime + affiliated instruction words in the block. */
    uint32_t count = 0;

    /** Index of the prime instruction, relative to offset. */
    uint32_t primeIdx = 0;

    /** Whether the prime is a branch/jump. */
    bool isControlFlow = false;

    /**
     * For control-flow blocks: index of the target block within the
     * iteration, or -1 when the target is fall-through/unassigned.
     */
    int32_t targetBlock = -1;

    /** Position of this block within its original iteration. */
    uint32_t position = 0;

    bool operator==(const StimulusBlock &) const = default;
};

/**
 * An iteration's instruction blocks as one flat image: every block's
 * words in program order, plus one record per block. Blocks are
 * contiguous — block i+1 starts where block i ends — so laid out from
 * an iteration's firstBlockPc, block i starts at
 * firstBlockPc + 4 * blocks[i].offset and the whole stimulus is one
 * memory range. Copies, subsets and the wire format all work on the
 * two arrays, never block by block on the heap.
 */
struct Stimulus
{
    std::vector<uint32_t> words;
    std::vector<StimulusBlock> blocks;

    uint32_t
    totalInstrs() const
    {
        return static_cast<uint32_t>(words.size());
    }

    std::span<const uint32_t>
    blockWords(size_t i) const
    {
        return {words.data() + blocks[i].offset, blocks[i].count};
    }

    uint32_t &
    primeWord(size_t i)
    {
        return words[blocks[i].offset + blocks[i].primeIdx];
    }

    uint32_t
    primeWord(size_t i) const
    {
        return words[blocks[i].offset + blocks[i].primeIdx];
    }

    /** Open an empty block at the end; pushWord() fills it. */
    StimulusBlock &
    beginBlock()
    {
        StimulusBlock &b = blocks.emplace_back();
        b.offset = totalInstrs();
        return b;
    }

    /** Append a word to the last block. */
    void
    pushWord(uint32_t word)
    {
        words.push_back(word);
        ++blocks.back().count;
    }

    /** Append copies of blocks [first, first + n) of another
     *  stimulus @p from: one word-range copy plus their records. */
    void appendBlocks(const Stimulus &from, size_t first, size_t n);

    /** Keep only the first @p n blocks. */
    void truncate(size_t n);

    /** Remove word @p j of block @p i; later blocks move down. */
    void eraseWord(size_t i, uint32_t j);

    void
    clear()
    {
        words.clear();
        blocks.clear();
    }

    bool operator==(const Stimulus &) const = default;
};

/** An archived stimulus with scheduling metadata. */
struct Seed
{
    uint64_t id = 0;
    Stimulus stimulus;

    /**
     * Coverage improvement recorded when this seed last ran
     * (the corpus-scheduling priority signal, §IV-D).
     */
    uint64_t coverageIncrement = 0;

    /** Monotone counter of corpus insertion (FIFO age). */
    uint64_t insertedAt = 0;

    // --- genealogy (docs/provenance.md) — strictly observational:
    // nothing in selection or mutation reads these back. They are
    // excluded from contentHash() but carried by serialize() and the
    // corpus checkpoint, so lineage survives save/restore.

    /**
     * Id of the seed this one was mutated from, 0 for roots (direct
     * generation). Ids are corpus-local; a cross-shard import resets
     * parentId to 0 (the referenced id belongs to the exporting
     * shard's id space and would alias an unrelated local seed) while
     * keeping lineageDepth and originOp.
     */
    uint64_t parentId = 0;

    /** ProvenanceOp (coverage/provenance.hh) that created this seed:
     *  the dominant mutation operator, or Direct for roots. */
    uint8_t originOp = 0;

    /** Ancestry length: 0 for roots, parent's depth + 1 otherwise. */
    uint32_t lineageDepth = 0;

    /** Scheduler energy granted when this seed was archived. */
    uint64_t energyAtCreation = 0;

    uint32_t totalInstrs() const { return stimulus.totalInstrs(); }

    /**
     * Stable 64-bit hash of the stimulus content (the blocks and
     * their metadata) — independent of id, recorded increment,
     * insertion age and genealogy. Two seeds with equal hashes carry
     * the same stimulus for all practical purposes; the corpus uses
     * this to deduplicate cross-shard imports (see
     * Corpus::importShared). Values are compared for equality only
     * and never persisted.
     */
    uint64_t contentHash() const;

    /** Serialize to the byte layout used for BRAM/DDR storage. */
    std::vector<uint8_t> serialize() const;

    /**
     * Rebuild from serialize() output.
     * @throws SeedFormatError on corrupt or truncated input.
     */
    static Seed deserialize(const std::vector<uint8_t> &bytes);

    /**
     * Non-throwing variant: returns std::nullopt on malformed input
     * and, when @p error is non-null, stores a diagnostic there.
     * Every length field is validated against the remaining buffer
     * before any allocation, so hostile inputs cannot trigger
     * multi-gigabyte resize() calls.
     */
    static std::optional<Seed>
    tryDeserialize(const std::vector<uint8_t> &bytes,
                   std::string *error = nullptr);
};

/**
 * A published seed for zero-copy fleet exchange: an immutable
 * ref-counted snapshot of the exported seed, plus its content hash
 * precomputed at publish time. Cross-shard exchange passes these by
 * pointer — no per-epoch serialize/deserialize, no block copies for
 * importers that dedup the content away. The referenced Seed still
 * carries the exporter's id/insertedAt; importers re-identify a
 * private copy on admission (Corpus::importShared), so sharing never
 * leaks one shard's id space into another.
 */
struct SeedShare
{
    std::shared_ptr<const Seed> seed;
    uint64_t contentHash = 0;
};

/** Publish a standalone seed as a SeedShare (hashes it once). */
SeedShare makeSeedShare(Seed seed);

/** Append @p stimulus's block array in the Seed wire format. */
void writeSeedBlocks(soc::SnapshotWriter &w, const Stimulus &stimulus);

/**
 * Parse a block array written by writeSeedBlocks(), with full bounds
 * validation. Blocks without instructions are rejected: no generator
 * emits one, and every consumer indexes a block's prime word.
 * @return false (with @p error set when non-null) on malformed input.
 */
bool readSeedBlocks(soc::SnapshotReader &r, Stimulus &stimulus,
                    std::string *error = nullptr);

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_SEED_HH
