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
#include <stdexcept>
#include <string>
#include <vector>

#include "common/small_vec.hh"

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

/** One instruction block inside a seed or generated iteration. */
struct SeedBlock
{
    /**
     * Prime + affiliated instruction words, in program order.
     * Inline capacity 8 covers every block the builder emits
     * (≤3 filler + ≤3 affiliated + prime), so steady-state block
     * construction, copying and retention never touch the heap.
     */
    SmallVec<uint32_t, 8> insns;

    /** Index of the prime instruction within insns. */
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

    uint32_t instrCount() const
    {
        return static_cast<uint32_t>(insns.size());
    }
};

/** An archived stimulus with scheduling metadata. */
struct Seed
{
    uint64_t id = 0;
    std::vector<SeedBlock> blocks;

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

    uint32_t
    totalInstrs() const
    {
        uint32_t n = 0;
        for (const auto &b : blocks)
            n += b.instrCount();
        return n;
    }

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

/** Append the block array in the Seed wire format. */
void writeSeedBlocks(soc::SnapshotWriter &w,
                     const std::vector<SeedBlock> &blocks);

/**
 * Parse a block array written by writeSeedBlocks(), with full bounds
 * validation. @return false (with @p error set when non-null) on
 * malformed input.
 */
bool readSeedBlocks(soc::SnapshotReader &r,
                    std::vector<SeedBlock> &blocks,
                    std::string *error = nullptr);

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_SEED_HH
