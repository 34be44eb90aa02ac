#include "triage/minimizer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fuzzer/block_builder.hh"
#include "isa/encoding.hh"

namespace turbofuzz::triage
{

namespace
{

using fuzzer::Stimulus;
using fuzzer::StimulusBlock;

/**
 * Deterministically re-patch the control-flow immediates of a freshly
 * laid-out stimulus. Target *selection* is the only difference from
 * the fuzzer's fix-up pass (whose encoding arms are shared via
 * fuzzer::patchBlockTarget): removed targets fall through to the next
 * block; surviving targets — including degenerate self-loops the
 * generator produced — are preserved.
 */
void
patchControlFlow(Stimulus &stim, uint64_t first_block_pc)
{
    const auto nblocks = static_cast<int64_t>(stim.blocks.size());
    for (int64_t i = 0; i < nblocks; ++i) {
        StimulusBlock &b = stim.blocks[i];
        b.position = static_cast<uint32_t>(i);
        if (!b.isControlFlow)
            continue;
        if (!isa::decode(stim.primeWord(i)).valid)
            continue; // a pruned operand broke decode; replay decides

        int64_t target = b.targetBlock;
        if (target < 0 || target >= nblocks)
            target = (i + 1 < nblocks) ? i + 1 : i;
        fuzzer::patchBlockTarget(stim, i, target, first_block_pc);
    }
}

/**
 * Fill @p out with the blocks of @p original listed in @p keep (sorted
 * original indices), one copy per run of consecutive kept blocks, and
 * remap branch targets onto surviving blocks. @p remap is scratch.
 */
void
subsetBlocks(const Stimulus &original, const std::vector<uint32_t> &keep,
             std::vector<int32_t> &remap, Stimulus &out)
{
    const size_t nblocks = original.blocks.size();
    remap.assign(nblocks, -1);
    for (size_t n = 0; n < keep.size(); ++n)
        remap[keep[n]] = static_cast<int32_t>(n);

    out.clear();
    for (size_t n = 0; n < keep.size();) {
        size_t end = n + 1;
        while (end < keep.size() && keep[end] == keep[end - 1] + 1)
            ++end;
        out.appendBlocks(original, keep[n], end - n);
        n = end;
    }
    for (StimulusBlock &b : out.blocks) {
        if (b.isControlFlow && b.targetBlock >= 0 &&
            static_cast<size_t>(b.targetBlock) < nblocks) {
            // Prefer the surviving image of the target; if it was
            // removed, the nearest surviving block at or after it.
            int32_t t = remap[b.targetBlock];
            for (size_t j = b.targetBlock; t < 0 && j < nblocks; ++j)
                t = remap[j];
            b.targetBlock = t; // -1 falls through in the re-patch
        }
    }
}

} // namespace

void
Minimizer::rebuild(Reproducer &r)
{
    fuzzer::IterationInfo &it = r.iteration;
    TF_ASSERT(!it.stimulus.blocks.empty(),
              "cannot rebuild an empty reproducer");
    patchControlFlow(it.stimulus, it.firstBlockPc);
    it.generatedInstrs = it.stimulus.totalInstrs();
    it.codeBoundary = it.firstBlockPc + 4ull * it.generatedInstrs;
    if (it.fuzzRegionEnd)
        it.fuzzRegionEnd = it.codeBoundary;
}

MinimizeResult
Minimizer::minimize(const Reproducer &r) const
{
    const Stimulus &original = r.iteration.stimulus;
    MinimizeResult result;
    result.originalInstrs = r.iteration.generatedInstrs;
    result.originalBlocks = static_cast<uint32_t>(original.blocks.size());
    result.minimizedInstrs = result.originalInstrs;
    result.minimizedBlocks = result.originalBlocks;

    // Warm replay context: ddmin replays the same stimulus family
    // ~130 times; the context captures the invariant state (base
    // memory image, post-prefix snapshot) once and restores it per
    // replay instead of rebuilding and re-executing it. Bit-identical
    // outcomes to ReplayHarness::replay (tests/triage/).
    const ReplayHarness::Context ctx(r);

    // 0. The original must reproduce before reduction means anything.
    ++result.replays;
    if (!ReplayHarness::confirms(r, ctx.replay(r))) {
        result.minimized = r;
        return result;
    }
    result.confirmed = true;

    const BugSignature target = canonicalize(r);
    auto budgetLeft = [&] { return result.replays < opts.maxReplays; };

    // A candidate survives when its replay still shows the same bug.
    auto stillFails = [&](const Reproducer &cand) {
        ++result.replays;
        const ReplayResult out = ctx.replay(cand);
        return out.mismatched &&
               canonicalize(out.mismatch, &cand) == target;
    };

    // Every candidate is built in one working copy of the reproducer:
    // only its stimulus changes between replays, rewritten in place.
    Reproducer cand = r;
    std::vector<int32_t> remap;

    // 1. Block-level ddmin.
    std::vector<uint32_t> keep(original.blocks.size());
    for (uint32_t i = 0; i < keep.size(); ++i)
        keep[i] = i;

    std::vector<uint32_t> trial;
    size_t granularity = 2;
    while (keep.size() >= 2 && budgetLeft()) {
        const size_t chunk =
            std::max<size_t>(1, keep.size() / granularity);
        bool reduced = false;
        for (size_t start = 0;
             start < keep.size() && budgetLeft(); start += chunk) {
            const size_t end = std::min(start + chunk, keep.size());
            if (end - start == keep.size())
                continue; // never test the empty stimulus
            trial.assign(keep.begin(), keep.begin() + start);
            trial.insert(trial.end(), keep.begin() + end, keep.end());
            subsetBlocks(original, trial, remap, cand.iteration.stimulus);
            rebuild(cand);
            if (stillFails(cand)) {
                keep.swap(trial);
                reduced = true;
                break; // chunk sizes changed; restart the sweep
            }
        }
        if (!reduced) {
            if (granularity >= keep.size())
                break; // minimal at block granularity
            granularity = std::min(keep.size(), granularity * 2);
        }
    }
    subsetBlocks(original, keep, remap, cand.iteration.stimulus);
    rebuild(cand);
    Reproducer best = cand;

    // 2. Affiliated-instruction pruning inside surviving blocks: erase
    //    one word from a copy of the current best.
    if (opts.pruneAffiliated) {
        for (size_t bi = 0;
             bi < best.iteration.stimulus.blocks.size() && budgetLeft();
             ++bi) {
            for (uint32_t j = best.iteration.stimulus.blocks[bi].count;
                 j-- > 0 && budgetLeft();) {
                const StimulusBlock &blk =
                    best.iteration.stimulus.blocks[bi];
                if (j == blk.primeIdx || blk.count <= 1)
                    continue;
                cand.iteration.stimulus = best.iteration.stimulus;
                cand.iteration.stimulus.eraseWord(bi, j);
                rebuild(cand);
                if (stillFails(cand))
                    std::swap(best, cand);
            }
        }
    }

    // 3. Finalize: stamp the reduced stimulus with its own replay
    //    outcome so the minimized record self-confirms.
    const ReplayResult out = ctx.replay(best);
    ++result.replays;
    if (!out.mismatched ||
        canonicalize(out.mismatch, &best) != target) {
        // Re-layout was not behavior-preserving for this stimulus
        // (possible only when ddmin accepted nothing, so `best` was
        // never gated by stillFails): ship the unreduced original
        // rather than a reproducer that no longer fires.
        result.minimized = r;
        return result;
    }
    best.mismatch = out.mismatch;
    best.commitIndex = out.commitIndex;

    result.minimized = std::move(best);
    result.minimizedInstrs =
        result.minimized.iteration.generatedInstrs;
    result.minimizedBlocks = static_cast<uint32_t>(
        result.minimized.iteration.stimulus.blocks.size());
    return result;
}

} // namespace turbofuzz::triage
