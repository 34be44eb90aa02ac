/**
 * @file
 * Abstract stimulus-generator interface.
 *
 * The campaign harness drives any test-generation strategy through
 * this interface: the TurboFuzzer, the DifuzzRTL-like and
 * Cascade-like baselines, and the deepExplore benchmark/interval
 * runners all implement it.
 */

#ifndef TURBOFUZZ_FUZZER_GENERATOR_HH
#define TURBOFUZZ_FUZZER_GENERATOR_HH

#include <optional>
#include <string_view>

#include "fuzzer/context.hh"
#include "fuzzer/turbofuzzer.hh"
#include "soc/memory.hh"

namespace turbofuzz::fuzzer
{

/** One test-generation strategy. */
class StimulusGenerator
{
  public:
    virtual ~StimulusGenerator() = default;

    /** Generate the next iteration into @p mem. */
    virtual IterationInfo generate(soc::Memory &mem) = 0;

    /** Coverage feedback after the iteration ran. */
    virtual void feedback(const IterationInfo &info,
                          uint64_t cov_increment) = 0;

    /** Memory layout contract of generated iterations. */
    virtual const MemoryLayout &layout() const = 0;

    /**
     * Whether generated code installs resume-style exception
     * templates. When false, the harness ends the iteration at the
     * first trap (baseline behaviour).
     */
    virtual bool usesExceptionTemplates() const = 0;

    /** Display name. */
    virtual std::string_view name() const = 0;

    /**
     * Telemetry binding: the campaign offers its metric registry so
     * the generator (and its corpus, if any) can register scheduler
     * instruments. Purely observational — binding must not change
     * generation behaviour. Default: no instruments.
     */
    virtual void bindTelemetry(telemetry::MetricRegistry * /*reg*/) {}

    /**
     * Value-copy convenience over importSharedSeeds(): the same
     * dedup, re-identification and admission for seeds held by
     * value. Generators without a corpus ignore the offer.
     * @return number of seeds admitted.
     */
    virtual size_t importSeeds(std::vector<Seed> /*seeds*/)
    {
        return 0;
    }

    /**
     * Value-copy convenience: copies of up to @p k of the most
     * productive archived seeds, in exportTopSharedSeeds() order.
     * Generators without a corpus export nothing.
     */
    virtual std::vector<Seed> exportTopSeeds(size_t /*k*/) const
    {
        return {};
    }

    /**
     * Fleet seed exchange (seed.hh SeedShare): accept shared
     * immutable seed blocks published by a peer shard. Generators
     * without a corpus ignore the offer.
     * @return number of seeds admitted.
     */
    virtual size_t
    importSharedSeeds(const std::vector<SeedShare> & /*shares*/)
    {
        return 0;
    }

    /**
     * Fleet seed exchange: publish up to @p k top seeds as shared
     * immutable blocks. Non-const because publication fills the
     * corpus's content-hash cache; observable corpus state is
     * untouched. Generators without a corpus export nothing.
     */
    virtual std::vector<SeedShare> exportTopSharedSeeds(size_t /*k*/)
    {
        return {};
    }

    /**
     * Triage support: the environment descriptor that allows an
     * archived IterationInfo to be re-materialized and replayed
     * standalone. Generators whose iterations cannot be rebuilt
     * deterministically return std::nullopt, which disables
     * reproducer capture for their campaigns.
     *
     * Warm-start contract: a generator that returns an environment
     * also guarantees every generated iteration starts with
     * TurboFuzzer::preambleCode(env) at layout().instrBase — the
     * same contract standalone replay already relies on. The
     * campaign uses it to capture a post-prefix snapshot once and
     * restore it each iteration (docs/snapshot.md).
     */
    virtual std::optional<ReplayEnv> replayEnv() const
    {
        return std::nullopt;
    }

    /**
     * Campaign checkpoint support: serialize the generator's mutable
     * state. Generators that cannot checkpoint return false (the
     * default), which disables campaign checkpointing for their
     * campaigns.
     */
    virtual bool checkpointSave(soc::SnapshotWriter & /*out*/) const
    {
        return false;
    }

    /** Restore checkpointSave() output into a freshly constructed
     *  generator with identical configuration. */
    virtual bool checkpointLoad(soc::SnapshotReader & /*in*/,
                                std::string * /*error*/)
    {
        return false;
    }
};

/** StimulusGenerator adapter over the TurboFuzzer. */
class TurboFuzzGenerator : public StimulusGenerator
{
  public:
    TurboFuzzGenerator(FuzzerOptions options,
                       const isa::InstructionLibrary *library)
        : fuzzer(options, library)
    {}

    IterationInfo
    generate(soc::Memory &mem) override
    {
        return fuzzer.generateIteration(mem);
    }

    void
    feedback(const IterationInfo &info, uint64_t cov_increment) override
    {
        fuzzer.reportResult(info, cov_increment);
    }

    const MemoryLayout &
    layout() const override
    {
        return fuzzer.options().layout;
    }

    bool usesExceptionTemplates() const override { return true; }
    std::string_view name() const override { return "TurboFuzz"; }

    void
    bindTelemetry(telemetry::MetricRegistry *reg) override
    {
        fuzzer.bindTelemetry(reg);
    }

    size_t
    importSeeds(std::vector<Seed> seeds) override
    {
        std::vector<SeedShare> shares;
        shares.reserve(seeds.size());
        for (Seed &s : seeds)
            shares.push_back(makeSeedShare(std::move(s)));
        return fuzzer.importSharedSeeds(shares);
    }

    std::vector<Seed>
    exportTopSeeds(size_t k) const override
    {
        const Corpus &corpus = fuzzer.corpus();
        std::vector<Seed> out;
        for (size_t idx : corpus.topK(k))
            out.push_back(corpus.entries()[idx]);
        return out;
    }

    size_t
    importSharedSeeds(const std::vector<SeedShare> &shares) override
    {
        return fuzzer.importSharedSeeds(shares);
    }

    std::vector<SeedShare>
    exportTopSharedSeeds(size_t k) override
    {
        return fuzzer.exportTopSharedSeeds(k);
    }

    std::optional<ReplayEnv>
    replayEnv() const override
    {
        return fuzzer.replayEnv();
    }

    bool
    checkpointSave(soc::SnapshotWriter &out) const override
    {
        fuzzer.saveState(out);
        return true;
    }

    bool
    checkpointLoad(soc::SnapshotReader &in, std::string *error) override
    {
        return fuzzer.loadState(in, error);
    }

    TurboFuzzer &underlying() { return fuzzer; }

  private:
    TurboFuzzer fuzzer;
};

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_GENERATOR_HH
