/**
 * @file
 * Test-case minimization: delta debugging against the replay harness.
 *
 * A captured iteration carries ~4,000 instructions; typically a
 * handful matter. The minimizer shrinks the reproducer in two passes:
 *
 *  1. Block-level ddmin: remove chunks of instruction blocks with
 *     exponentially refined granularity, keeping a candidate whenever
 *     its replay still produces the *same bug signature*.
 *  2. Affiliated-instruction pruning: within each surviving block,
 *     drop non-prime (affiliated) instructions one at a time.
 *
 * Removing blocks shifts every following block's address, so each
 * candidate is re-laid-out and its control-flow immediates are
 * re-patched deterministically (branch targets remapped to the
 * nearest surviving block; no RNG anywhere). The reduced reproducer
 * is finalized with its own replay outcome, so it self-confirms: a
 * later ReplayHarness::verifyDeterministic() on the minimized record
 * passes on any host.
 */

#ifndef TURBOFUZZ_TRIAGE_MINIMIZER_HH
#define TURBOFUZZ_TRIAGE_MINIMIZER_HH

#include "triage/replay.hh"
#include "triage/signature.hh"

namespace turbofuzz::triage
{

struct MinimizeOptions
{
    /** Replay budget: the minimizer stops refining when spent. */
    uint32_t maxReplays = 256;

    /** Run the per-block affiliated-instruction pruning pass. */
    bool pruneAffiliated = true;
};

struct MinimizeResult
{
    /** The reduced, self-confirming reproducer. */
    Reproducer minimized;

    /** Whether the *original* reproducer replayed to its recorded
     *  mismatch before any reduction was attempted. When false the
     *  input is returned unreduced. */
    bool confirmed = false;

    uint32_t originalInstrs = 0;
    uint32_t minimizedInstrs = 0;
    uint32_t originalBlocks = 0;
    uint32_t minimizedBlocks = 0;
    uint32_t replays = 0; ///< replays spent (minimization cost)
};

class Minimizer
{
  public:
    explicit Minimizer(MinimizeOptions options = {})
        : opts(options)
    {}

    /** Delta-debug @p r down to a minimal mismatching stimulus. */
    MinimizeResult minimize(const Reproducer &r) const;

    /**
     * Rebuild @p r around its (edited) stimulus in place: re-lay the
     * blocks from firstBlockPc, deterministically re-patch control
     * flow (each block's targetBlock must index into the stimulus or
     * be -1), and recompute the iteration metadata. The mismatch
     * record is left untouched — callers replay the result to
     * refresh it.
     */
    static void rebuild(Reproducer &r);

  private:
    MinimizeOptions opts;
};

} // namespace turbofuzz::triage

#endif // TURBOFUZZ_TRIAGE_MINIMIZER_HH
