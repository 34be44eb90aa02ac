/**
 * @file
 * The TurboFuzzer (paper §IV): the synthesizable hardware fuzzer's
 * behavioural model. One generateIteration() call corresponds to one
 * pass of the on-fabric generation pipeline: seed selection, per-
 * transition direct/mutation mode choice, instruction-block
 * construction, control-flow fix-up against block word offsets,
 * unified operand assignment, and commitment of the iteration into
 * the DDR instruction segment.
 */

#ifndef TURBOFUZZ_FUZZER_TURBOFUZZER_HH
#define TURBOFUZZ_FUZZER_TURBOFUZZER_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/lfsr.hh"
#include "common/rng.hh"
#include "fuzzer/block_builder.hh"
#include "fuzzer/context.hh"
#include "fuzzer/corpus.hh"
#include "fuzzer/mutation_scheduler.hh"
#include "fuzzer/seed.hh"
#include "isa/instruction_library.hh"
#include "soc/memory.hh"

namespace turbofuzz::fuzzer
{

/** Configuration of the fuzzer (paper defaults). */
struct FuzzerOptions
{
    /** Target instructions per iteration (paper: 4000; §IV-C). */
    uint32_t instrsPerIteration = 4000;

    /** P(mutation mode) per state transition; direct otherwise. */
    Prob mutationMode{7, 16};

    /** Mutation-engine operation mix over 16ths: generate/delete/
     *  retain = 3/16, 11/16, 2/16. Consumed by the Static scheduling
     *  policy; the Bandit policy adapts its own mix from observed
     *  coverage profit (see mutation_scheduler.hh). */
    uint32_t mutGenSixteenths = 3;
    uint32_t mutDelSixteenths = 11;

    /** Mutation-operator scheduling policy (paper default: Static). */
    SchedulerKind scheduler = SchedulerKind::Static;

    /** P(prioritize high-increment seed) in corpus selection. */
    Prob corpusPrioritize{3, 4};

    /** P(apply operand mutation to a retained block). */
    Prob retainMutate{1, 2};

    /** Control-flow jump-range limitation (§IV-C). */
    bool controlFlowOpt = true;
    uint32_t jumpRangeBlocks = 8;

    /** Corpus capacity and scheduling policy (§IV-D). */
    size_t corpusCapacity = 64;
    SchedulingPolicy scheduling = SchedulingPolicy::CoverageGuided;

    /**
     * Boilerplate instructions executed before the fuzzing region on
     * every iteration. The on-fabric TurboFuzzer keeps architectural
     * context alive in hardware, so it needs none; software flows
     * like DifuzzRTL regenerate register/CSR/memory init routines per
     * iteration (hundreds of instructions), which is what drags
     * their prevalence below 0.2 (Fig. 4/8). The on-fabric fuzzer
     * still needs a short context-sync sequence (~120 instructions),
     * matching its measured prevalence of ~0.97.
     */
    uint32_t bootstrapInstrs = 120;

    /** P(backward target) for generated control flow; forward bias
     *  keeps accidental tight loops rare. */
    Prob backwardJump{1, 8};

    /** Campaign RNG seed. */
    uint64_t seed = 1;

    /** Memory layout contract. */
    MemoryLayout layout;

    /** Generation probabilities. */
    GenProbs genProbs;
};

/**
 * The deterministic generation environment a campaign iteration ran
 * in. Together with an IterationInfo this is sufficient to rebuild
 * the iteration's complete memory image outside the fuzzer — the
 * contract the triage subsystem's replay harness relies on
 * (exception templates, LFSR data fill and preamble are pure
 * functions of these fields plus the iteration index).
 */
struct ReplayEnv
{
    uint64_t fuzzerSeed = 1;
    uint32_t bootstrapInstrs = 120;
    MemoryLayout layout;
};

/** Description of one generated iteration. */
struct IterationInfo
{
    uint64_t iterationIndex = 0;
    uint64_t parentSeedId = 0;  ///< 0 = pure direct generation

    /**
     * The fuzzing region's blocks, already fixed up. For generators
     * with a replayEnv() block i sits at
     * firstBlockPc + 4 * stimulus.blocks[i].offset.
     */
    Stimulus stimulus;

    uint32_t generatedInstrs = 0; ///< fuzzing instruction words
    uint64_t entryPc = 0;         ///< preamble start
    uint64_t firstBlockPc = 0;    ///< fuzzing region start
    uint64_t codeBoundary = 0;    ///< end of generated code

    /**
     * End of the fuzzing region for prevalence accounting; 0 means
     * the region extends to codeBoundary (generators with teardown
     * code set this to exclude it).
     */
    uint64_t fuzzRegionEnd = 0;

    /**
     * Mutation-operator picks this iteration's block choice made
     * (provenance attribution, docs/provenance.md). Always counted —
     * three register increments per transition — so results cannot
     * depend on whether provenance is enabled.
     */
    uint32_t opGenerate = 0;
    uint32_t opDelete = 0;
    uint32_t opRetain = 0;

    /**
     * Dominant operator of this iteration as a
     * coverage::ProvenanceOp value: Direct (0) for pure generation,
     * otherwise the most-picked of Generate (1) / Delete (2) /
     * Retain (3), ties broken toward the smaller value.
     */
    uint8_t
    dominantOp() const
    {
        if (parentSeedId == 0 ||
            (opGenerate | opDelete | opRetain) == 0)
            return 0;
        if (opGenerate >= opDelete && opGenerate >= opRetain)
            return 1;
        return opDelete >= opRetain ? 2 : 3;
    }
};

/** The fuzzer core. */
class TurboFuzzer
{
  public:
    TurboFuzzer(FuzzerOptions options,
                const isa::InstructionLibrary *library);

    /**
     * Generate the next iteration and commit it (preamble, handler,
     * blocks, LFSR data fill) into @p mem.
     */
    IterationInfo generateIteration(soc::Memory &mem);

    /**
     * Feedback after the iteration ran on the DUT: archive it as a
     * seed when it improved coverage and refresh its parent's
     * recorded increment (§IV-D).
     */
    void reportResult(const IterationInfo &info,
                      uint64_t cov_increment);

    /** Inject a pre-built seed (deepExplore stage-1 output). */
    void addSeed(Seed seed);

    /**
     * Import published peer-shard seed blocks (fleet seed exchange).
     * Each surviving seed is re-identified into this fuzzer's id
     * space before the corpus's normal admission control runs
     * (Corpus::importShared).
     * @return number of seeds admitted.
     */
    size_t importSharedSeeds(const std::vector<SeedShare> &shares);

    /** Publish the corpus's top @p k seeds as shared immutable
     *  blocks (zero-copy cross-shard exchange). */
    std::vector<SeedShare> exportTopSharedSeeds(size_t k);

    /** Forward the campaign's metric registry to the corpus. */
    void
    bindTelemetry(telemetry::MetricRegistry *reg)
    {
        seedCorpus.bindTelemetry(reg);
    }

    Corpus &corpus() { return seedCorpus; }
    const Corpus &corpus() const { return seedCorpus; }
    const FuzzerOptions &options() const { return opts; }
    const MutationScheduler &scheduler() const { return *sched; }

    uint64_t iterationsGenerated() const { return iterCounter; }

    /**
     * Checkpoint support: serialize every mutable field the next
     * generateIteration() reads (RNG stream, iteration counter, seed
     * id allocator, seed-energy bookkeeping, corpus, mutation
     * scheduler) so a resumed fuzzer generates the exact stimulus
     * sequence an uninterrupted one would.
     */
    void saveState(soc::SnapshotWriter &out) const;

    /** Restore a saveState() image. Configuration (options, library)
     *  comes from construction and must match the checkpointed run.
     *  @return false with @p error set on malformed input. */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

    /** The environment descriptor for triage reproducers. */
    ReplayEnv
    replayEnv() const
    {
        return {opts.seed, opts.bootstrapInstrs, opts.layout};
    }

    /**
     * The iteration preamble (context setup + bootstrap boilerplate
     * + FP register loads). Deterministic in @p env — identical every
     * iteration, which is what lets a reproducer omit it.
     *
     * Layout contract: the preamble is warmPrefixCode(env) followed
     * by the data-dependent FP load tail. The prefix's *execution* is
     * a pure function of the environment (no loads, no stores, no
     * traps when bug-free), so warm-started iterations restore a
     * captured post-prefix snapshot instead of re-executing it; the
     * FP loads read the per-iteration LFSR data fill and always
     * execute live. See engine::WarmStart and docs/snapshot.md.
     */
    static std::vector<uint32_t> preambleCode(const ReplayEnv &env);

    /**
     * The constant prefix of preambleCode(env): context registers,
     * mtvec install and the bootstrap boilerplate — everything before
     * the first instruction whose behaviour depends on the
     * iteration's data fill.
     */
    static std::vector<uint32_t> warmPrefixCode(const ReplayEnv &env);

    /**
     * Fill the data segment exactly as iteration @p iteration_index
     * filled it (uniquely reseeded LFSR + FP special salting).
     */
    static void fillDataSegment(const ReplayEnv &env,
                                uint64_t iteration_index,
                                soc::Memory &mem);

    /**
     * Rebuild the complete memory image of @p info: exception
     * templates, data segment, preamble and the (already fixed-up)
     * instruction blocks. This is the exact write sequence
     * generateIteration() commits, exposed standalone for
     * deterministic replay.
     * @return the end address of the generated code (code boundary).
     */
    static uint64_t materializeIteration(const ReplayEnv &env,
                                         const IterationInfo &info,
                                         soc::Memory &mem);

    /** As above with a prebuilt preambleCode(env) result, sparing
     *  the hot generation path a second preamble construction. */
    static uint64_t
    materializeIteration(const ReplayEnv &env,
                         const IterationInfo &info, soc::Memory &mem,
                         const std::vector<uint32_t> &preamble);

  private:
    /** Choose blocks for the iteration (direct + mutation modes)
     *  into @p info's stimulus; sets its parentSeedId and operator
     *  pick counts. */
    void chooseBlocks(IterationInfo &info);

    /** Assign control-flow targets and patch instruction words of
     *  @p stim, laid out from @p first_block_pc. */
    void fixupControlFlow(Stimulus &stim, uint64_t first_block_pc);

    FuzzerOptions opts;
    const isa::InstructionLibrary *lib;
    BlockBuilder builder;
    Corpus seedCorpus;
    std::unique_ptr<MutationScheduler> sched;
    FuzzContext ctx;
    Rng rng;
    uint64_t iterCounter = 0;
    uint64_t nextSeedId = 1;

    /**
     * Per-seed energy (bandit scheduling): the parent seed the fuzzer
     * is committed to and how many further iterations it owes it.
     * Static scheduling always assigns energy 1, which reduces to the
     * historical select-every-iteration behaviour bit-exactly.
     */
    uint64_t stickySeedId = 0;
    uint32_t stickyEnergy = 0;

    /** preambleCode(replayEnv()) — deterministic per campaign, so
     *  computed once instead of once per iteration. */
    std::vector<uint32_t> cachedPreamble;
    bool preambleCached = false;

    /** Block count of the previous iteration — reserve() guidance
     *  that keeps the blocks vector from reallocating as it grows. */
    size_t lastBlockCount = 0;
};

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_TURBOFUZZER_HH
