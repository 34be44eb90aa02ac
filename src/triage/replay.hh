/**
 * @file
 * Deterministic standalone replay of captured reproducers.
 *
 * Replay rebuilds the mismatching iteration's memory image through
 * the exact write path generation used (TurboFuzzer::
 * materializeIteration), instantiates a fresh DUT/REF pair with the
 * campaign's configuration, and re-runs the campaign's abort policy
 * on the SAME batched execution engine campaign iterations run on
 * (engine::ExecutionEngine) against a fresh differential checker —
 * replay and generation share one execution path and cannot drift.
 * Because every input is a pure function of the reproducer's fields,
 * two replays of the same reproducer are bit-identical — the
 * property the minimizer and the acceptance tests rely on.
 *
 * Replay deliberately omits the campaign's coverage instrumentation,
 * RTL event driver and platform timing model: none of them feed back
 * into architectural execution, so dropping them changes nothing
 * observable while making replay (and therefore delta debugging) an
 * order of magnitude cheaper than a campaign iteration.
 */

#ifndef TURBOFUZZ_TRIAGE_REPLAY_HH
#define TURBOFUZZ_TRIAGE_REPLAY_HH

#include "engine/warm_start.hh"
#include "soc/memory.hh"
#include "triage/reproducer.hh"

namespace turbofuzz::triage
{

/** Outcome of one standalone replay. */
struct ReplayResult
{
    bool mismatched = false;
    checker::Mismatch mismatch{}; ///< valid when mismatched
    uint64_t commitIndex = 0;     ///< commits into the iteration
    uint64_t executed = 0;
    uint64_t traps = 0;
};

class ReplayHarness
{
  public:
    /**
     * Engine batch size replays run at. The replay outcome is
     * batch-size-invariant (engine equivalence contract); a fixed
     * value simply keeps the execution path identical across runs.
     */
    static constexpr uint64_t replayBatchSize = 64;

    /** Re-execute @p r standalone. Pure: same input, same output. */
    static ReplayResult replay(const Reproducer &r);

    /**
     * Warm replay context: per-reproducer state that is identical
     * across every replay of the same stimulus family — the base
     * memory image (exception templates + the iteration's data fill
     * + preamble) and the post-prefix warm-start snapshot — captured
     * once and restored per replay. Delta debugging replays the same
     * iteration ~130 times with only the block list varying, so
     * rebuilding the full image and re-executing the preamble every
     * time is the dominant redundant cost this removes.
     *
     * Context::replay(r) is bit-identical to ReplayHarness::replay(r)
     * for any reproducer sharing the context's environment,
     * configuration and iteration index (the minimizer's rebuild()
     * preserves all three) — enforced by tests/triage/.
     */
    class Context
    {
      public:
        /** Capture base state for @p r's stimulus family. */
        explicit Context(const Reproducer &r);

        /** Re-execute @p r against the cached base state. */
        ReplayResult replay(const Reproducer &r) const;

        /** Whether @p r shares this context's base state. */
        bool compatible(const Reproducer &r) const;

      private:
        fuzzer::ReplayEnv env;
        uint64_t iterationIndex;
        uint64_t entryPc;
        uint64_t firstBlockPc;
        core::Iss::Options dutOpts;
        core::Iss::Options refOpts;

        /** Templates + data fill + preamble; each replay writes its
         *  stimulus onto a copy of this image as one range. */
        soc::Memory baseMem;

        /** Post-prefix snapshot; nullopt falls back to cold. */
        std::optional<engine::WarmStart> warm;
    };

    /**
     * Whether @p out reproduces exactly the divergence @p r recorded:
     * same kind, same PC, same instruction word, same values, at the
     * same within-iteration commit index.
     */
    static bool confirms(const Reproducer &r, const ReplayResult &out);

    /**
     * Replay twice and require both runs to be bit-identical AND to
     * confirm the recorded mismatch (the determinism guarantee).
     */
    static bool verifyDeterministic(const Reproducer &r);
};

} // namespace turbofuzz::triage

#endif // TURBOFUZZ_TRIAGE_REPLAY_HH
