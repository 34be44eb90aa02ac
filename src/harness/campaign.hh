/**
 * @file
 * Fuzzing campaign harness: the end-to-end verification loop.
 *
 * One Campaign wires together everything the paper's Fig. 2 shows on
 * the FPGA board: a stimulus generator, the DUT core (with injected
 * bugs) and its golden reference, the structural RTL model driven by
 * commit events, coverage instrumentation + map, the differential
 * checker, and the platform timing model that charges simulated time
 * for every loop stage. Execution itself runs on the batched
 * engine::ExecutionEngine (docs/engine.md): DUT batch -> REF batch ->
 * batch diff -> coverage sweep, bit-identical to the historical
 * per-commit lockstep loop at every batch size.
 */

#ifndef TURBOFUZZ_HARNESS_CAMPAIGN_HH
#define TURBOFUZZ_HARNESS_CAMPAIGN_HH

#include <functional>
#include <memory>
#include <optional>

#include "checker/diff_checker.hh"
#include "common/sim_clock.hh"
#include "common/stats.hh"
#include "core/bugs.hh"
#include "core/iss.hh"
#include "coverage/coverage_map.hh"
#include "coverage/instrumentation.hh"
#include "coverage/provenance.hh"
#include "engine/execution_engine.hh"
#include "engine/warm_start.hh"
#include "fuzzer/generator.hh"
#include "rtl/cores.hh"
#include "rtl/driver.hh"
#include "soc/platform.hh"
#include "telemetry/forensics.hh"
#include "telemetry/instruments.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "triage/reproducer.hh"

namespace turbofuzz::harness
{

/** Campaign configuration. */
struct CampaignOptions
{
    core::CoreKind coreKind = core::CoreKind::Rocket;
    core::BugSet bugs;
    bool rv64aEnabled = true;

    /**
     * ISS decode cache + superblock fast path (core::Iss::Options).
     * Bit-identical either way (enforced by tests/engine/); exposed
     * so the equivalence suite can run both legs programmatically.
     * TURBOFUZZ_DECODE_CACHE=0/off overrides this to false.
     */
    bool decodeCache = true;

    coverage::Scheme covScheme = coverage::Scheme::Optimized;
    unsigned maxStateSize = 15;

    /**
     * Which feedback signal the corpus scheduler consumes
     * (docs/coverage.md). The mux CoverageMap is always maintained —
     * it is the reported coverage metric and drives the RTL event
     * model — so non-default kinds change only the increment fed
     * back to the generator: Csr schedules on CSR-transition
     * coverage, HitCount on bucketed control-flow-edge counts, and
     * Composite on the weighted sum of all three signals. The
     * default (Mux) takes the exact historical code path.
     */
    coverage::CoverageModelKind coverageModel =
        coverage::CoverageModelKind::Mux;

    /** Composite-mode signal weights: increment = sum(newly * w). */
    uint32_t feedbackWeightMux = 1;
    uint32_t feedbackWeightCsr = 1;
    uint32_t feedbackWeightHit = 1;

    checker::DiffChecker::Mode checkMode =
        checker::DiffChecker::Mode::PerInstruction;

    soc::TimingProfile timing;

    uint64_t seed = 1;
    bool stopOnMismatch = false;

    /** Iteration abort: executed > capFactor * generated + capSlack.
     *  Calibrated so a 4,000-instruction iteration retires ~4,122
     *  instructions (Table I's executed/iteration). */
    double stepCapFactor = 1.0;
    uint64_t stepCapSlack = 128;

    /** Iteration abort: too many traps (unresolvable situation). */
    uint32_t trapStormLimit = 400;

    /**
     * Commits per execution-engine pipeline batch. 1 reproduces the
     * classic lockstep loop; larger batches amortize the per-batch
     * stage costs and enable the engine's incremental coverage sweep.
     * Any value yields bit-identical campaign results (the engine's
     * equivalence contract, enforced by tests/engine/).
     */
    uint64_t batchSize = 64;

    /**
     * Coverage time-series decimation: run()/runSlice() keep every
     * Nth per-iteration sample (plus, always, the most recent one).
     * 1 keeps everything — bit-identical series to earlier releases;
     * larger values bound the series' memory growth on long
     * campaigns. See TimeSeries::setDecimation().
     */
    uint64_t sampleDecimation = 1;

    /**
     * Triage: retain up to this many mismatching iterations as
     * self-contained reproducers (stimulus + configuration +
     * divergence), ready for standalone replay, minimization and
     * deduplication. 0 disables capture; capture also requires the
     * generator to support replayEnv().
     */
    uint32_t maxReproducers = 8;

    /**
     * Warm-start iterations: capture a post-preamble-prefix snapshot
     * of the full lockstep state once (engine::captureWarmStart) and
     * begin each iteration by restoring it instead of cold reset +
     * prefix re-execution. Bit-identical campaign results to cold
     * start at every batch size (the engine's warm equivalence
     * contract, enforced by tests/engine/); requires a generator
     * with replayEnv(). Campaigns whose prefix cannot be captured
     * (e.g. a bug fires inside it) silently fall back to cold start.
     */
    bool warmStart = true;

    /**
     * Optional per-commit observer (DUT commits), e.g. for the
     * instruction-mix analyses of Fig. 4. Leave empty for speed.
     */
    std::function<void(const core::CommitInfo &)> commitObserver;

    /**
     * Stage-span sink (not owned). When set, sampled iterations
     * (TraceRecorder's sampling knob) emit "campaign.iteration",
     * "fuzzer.generate", "engine.iteration" and per-stage engine
     * spans into it. Null (the default) disables tracing at the cost
     * of one pointer test per span site.
     */
    telemetry::TraceRecorder *trace = nullptr;

    /**
     * Per-stage duration counters (engine.batch.*_ns,
     * campaign.generate_ns). Off by default: stage timing adds two
     * clock reads per pipeline stage per batch, which the default
     * build's throughput gate does not budget for.
     */
    bool stageTiming = false;

    /**
     * Coverage provenance (docs/provenance.md): bind a first-hit
     * ledger into the feedback models and keep a forensics event
     * ring. Strictly observational — campaign results (coverage,
     * corpus, reproducer bytes) are bit-identical on vs off, enforced
     * by tests/provenance/. Off by default: the models then never
     * touch the ledger (null-pointer gate) and the ring is never
     * pushed.
     */
    bool provenance = false;

    /** Shard index stamped into first-hit attributions (fleet). */
    uint32_t provenanceShard = 0;

    /** Forensics ring capacity (recent structured events kept). */
    uint32_t forensicsCapacity = 256;
};

/**
 * The instruction library configuration the benches and examples
 * share: the full RV64 IMAFD+Zicsr set, with mret reserved for the
 * exception templates and the System category down-weighted so trap
 * handling does not dominate iteration time.
 */
isa::InstructionLibrary makeDefaultLibrary();

/** Per-iteration outcome. */
struct IterationResult
{
    uint64_t generated = 0;
    uint64_t executedTotal = 0;
    uint64_t executedFuzz = 0; ///< commits inside the fuzzing region

    /**
     * Feedback increment of the iteration — the value the corpus
     * scheduler consumes. Under the default Mux model this is the
     * number of newly hit mux-coverage points; other models report
     * their (weighted) newly-hit counts instead.
     */
    uint64_t newCoverage = 0;
    uint64_t traps = 0;
    bool mismatch = false;
};

/** A full campaign instance. */
class Campaign
{
  public:
    Campaign(CampaignOptions options,
             std::unique_ptr<fuzzer::StimulusGenerator> generator);

    /** Generate + execute + check + feed back one iteration. */
    IterationResult runIteration();

    /**
     * Run until the simulated budget expires (or the first mismatch
     * when stopOnMismatch). Coverage samples are appended to the
     * returned series (time = simulated seconds).
     */
    TimeSeries run(double budget_sec);

    /**
     * Epoch-sliced run: iterate until the simulated clock reaches
     * @p deadline_sec (an absolute time), appending one coverage
     * sample per iteration to @p series. Slicing a budget into
     * consecutive deadlines reproduces run() bit-exactly — the fleet
     * orchestrator relies on this to keep single-shard fleets
     * identical to a plain campaign.
     * @return true unless stopped early by stopOnMismatch.
     */
    bool runSlice(double deadline_sec, TimeSeries &series);

    /**
     * Inject shared immutable seed blocks published by a peer shard
     * (fuzzer::SeedShare) into the generator's corpus (fleet seed
     * exchange). Safe to call between iterations only.
     * @return number of seeds admitted.
     */
    size_t
    injectSharedSeeds(const std::vector<fuzzer::SeedShare> &shares);

    /**
     * Publish everything the campaign's feedback models (and, when
     * provenance is on, its first-hit ledger) learned since the
     * previous publication into @p out — the shard side of the
     * fleet's O(new coverage) epoch barrier. Clears @p out first.
     * Safe between iterations only.
     */
    void publishCoverageDelta(coverage::CoverageDelta &out);

    // --- observers ---------------------------------------------------
    const coverage::CoverageMap &coverageMap() const { return *covMap; }

    /** The active feedback signal (the mux map by default). */
    const coverage::FeedbackModel &feedbackModel() const
    {
        return *feedback_;
    }

    /** CSR-transition model, or nullptr unless Csr/Composite. */
    const coverage::CsrTransitionModel *csrModel() const
    {
        return csrModel_.get();
    }

    /** Hit-count edge model, or nullptr unless HitCount/Composite. */
    const coverage::HitCountModel *hitCountModel() const
    {
        return hitModel_.get();
    }

    soc::Platform &platform() { return *plat; }
    double nowSec() const { return clock.seconds(); }

    uint64_t iterations() const { return iterCount; }
    uint64_t executedInstructions() const { return executedTotal; }
    uint64_t generatedInstructions() const { return generatedTotal; }

    /** Iterations that ended in a DUT/REF mismatch. */
    uint64_t mismatchedIterations() const { return mismatchCount; }

    /** Campaign-wide prevalence (Fig. 8 metric). */
    double prevalence() const;

    const std::optional<checker::Mismatch> &firstMismatch() const
    {
        return mismatchInfo;
    }
    const soc::Snapshot &mismatchSnapshot() const { return snapshot; }

    /**
     * Reproducers captured so far (one per mismatching iteration, up
     * to CampaignOptions::maxReproducers), in detection order. Each
     * retains the mismatching iteration's full stimulus for
     * deterministic standalone replay (src/triage/).
     */
    const std::vector<triage::Reproducer> &reproducers() const
    {
        return repros;
    }

    /**
     * Campaign-local metric registry (single-threaded; see
     * docs/telemetry.md for the instrument vocabulary). The fleet
     * snapshots and merges these at epoch barriers. Metric state
     * participates in saveState()/loadState().
     */
    telemetry::MetricRegistry &metrics() { return metrics_; }
    const telemetry::MetricRegistry &metrics() const
    {
        return metrics_;
    }

    /** Whether the provenance layer is recording. */
    bool provenanceEnabled() const { return opts.provenance; }

    /**
     * First-hit ledger (empty unless CampaignOptions::provenance).
     * Point keys and attributions: coverage/provenance.hh.
     */
    const coverage::FirstHitLedger &provenanceLedger() const
    {
        return ledger_;
    }

    /** Forensics event ring (empty unless provenance is on). */
    const telemetry::ForensicsRing &forensics() const
    {
        return forensics_;
    }

    /**
     * Forensics ring dumps captured at mismatch time (JSON, one per
     * captured mismatch up to maxReproducers), parallel to
     * reproducers() in detection order.
     */
    const std::vector<std::string> &forensicsDumps() const
    {
        return forensicsDumps_;
    }

    fuzzer::StimulusGenerator &generator() { return *gen; }
    core::Iss &dut() { return *dutCore; }
    core::Iss &ref() { return *refCore; }
    coverage::DesignInstrumentation &instrumentation()
    {
        return *instr;
    }
    rtl::EventDriver &eventDriver() { return *driver; }

    /** Whether a warm-start snapshot was captured and is in use. */
    bool warmStartActive() const { return warm.has_value(); }

    /** Iterations that began from the warm snapshot (diagnostics —
     *  cold fallbacks indicate a layout or step-cap conflict). */
    uint64_t warmIterations() const { return warmIterCount; }

    /**
     * Checkpoint support: serialize every mutable field of the
     * campaign (clock, counters, memories, driver and coverage
     * state, checker progress, mismatch evidence, reproducers,
     * generator state) so a freshly constructed campaign with the
     * same options can resume bit-exactly. Requires a generator that
     * supports checkpointing.
     * @return false when the generator cannot checkpoint.
     */
    bool saveState(soc::SnapshotWriter &out) const;

    /**
     * Restore a saveState() image into this freshly constructed
     * campaign (same options and generator configuration).
     * @return false with @p error set on malformed input.
     */
    bool loadState(soc::SnapshotReader &in,
                   std::string *error = nullptr);

  private:
    CampaignOptions opts;
    std::unique_ptr<fuzzer::StimulusGenerator> gen;

    soc::Memory dutMem;
    soc::Memory refMem;
    std::unique_ptr<core::Iss> dutCore;
    std::unique_ptr<core::Iss> refCore;

    std::unique_ptr<rtl::Module> design;
    std::unique_ptr<rtl::EventDriver> driver;
    std::unique_ptr<coverage::DesignInstrumentation> instr;
    std::unique_ptr<coverage::CoverageMap> covMap;

    /**
     * Pluggable feedback: the auxiliary models (when configured), the
     * composite combining them with the mux map, and the single model
     * pointer the engine's sweep stage consumes. Under the default
     * Mux kind, feedback_ is covMap itself — the historical path.
     */
    std::unique_ptr<coverage::CsrTransitionModel> csrModel_;
    std::unique_ptr<coverage::HitCountModel> hitModel_;
    std::unique_ptr<coverage::CompositeFeedback> composite_;
    coverage::FeedbackModel *feedback_ = nullptr;

    checker::DiffChecker checker_;
    std::unique_ptr<engine::ExecutionEngine> engine_;
    SimClock clock;
    std::unique_ptr<soc::Platform> plat;

    /**
     * Warm-start state captured once at construction (when enabled
     * and capturable): post-prefix hart snapshots plus the constant
     * prefix commit trace, and the firstBlockPc layout every
     * eligible iteration must present.
     */
    std::optional<engine::WarmStart> warm;
    uint64_t warmFirstBlockPc = 0;
    uint64_t warmIterCount = 0;

    uint64_t iterCount = 0;
    uint64_t executedTotal = 0;
    uint64_t executedFuzzTotal = 0;
    uint64_t generatedTotal = 0;
    uint64_t mismatchCount = 0;
    bool startupCharged = false;

    /**
     * High-water marks of bytes dirtied in the instruction segment
     * (by longer earlier iterations or stray stores) and past the
     * trap-handler code. Scrubbed to zero after each generation so
     * the memory an iteration runs on is a pure function of that
     * iteration's reproducer — the standalone-replay determinism
     * contract (triage) depends on this.
     */
    uint64_t instrDirtyHigh = 0;
    uint64_t handlerDirtyHigh = 0;

    std::optional<checker::Mismatch> mismatchInfo;
    soc::Snapshot snapshot;
    std::vector<triage::Reproducer> repros;

    /**
     * Provenance (docs/provenance.md). The ledger is bound into the
     * feedback models only when opts.provenance is set; otherwise
     * every structure below stays empty and untouched.
     */
    coverage::FirstHitLedger ledger_;
    telemetry::ForensicsRing forensics_;
    std::vector<std::string> forensicsDumps_;

    /**
     * Telemetry: the registry owns instrument storage (stable
     * pointers); the fields below cache resolved instruments so the
     * iteration loop never does name lookups. Bound components (the
     * generator's corpus) only touch their cached pointers inside
     * calls the campaign makes, never from destructors, so member
     * ordering is not load-bearing.
     */
    telemetry::MetricRegistry metrics_;
    telemetry::EngineInstruments engineIns;
    telemetry::FastPathInstruments fastPathIns;
    telemetry::Counter *mIterations = nullptr;
    telemetry::Counter *mCommits = nullptr;
    telemetry::Counter *mTraps = nullptr;
    telemetry::Counter *mMismatches = nullptr;
    telemetry::Counter *mNewCoverage = nullptr;
    telemetry::Counter *mWarmIters = nullptr;
    telemetry::Counter *mGenerateNs = nullptr;
    telemetry::Histogram *mIterCommits = nullptr;

    /** Retain the mismatching iteration as a replayable reproducer. */
    void captureReproducer(const checker::Mismatch &mm,
                           const fuzzer::IterationInfo &info,
                           uint64_t iteration_commit_index);
};

} // namespace turbofuzz::harness

#endif // TURBOFUZZ_HARNESS_CAMPAIGN_HH
