#include "triage/replay.hh"

#include "common/logging.hh"
#include "core/iss.hh"
#include "engine/execution_engine.hh"
#include "fuzzer/exception_templates.hh"
#include "soc/memory.hh"

namespace turbofuzz::triage
{

namespace
{

core::Iss::Options
dutOptionsFor(const Reproducer &r)
{
    core::Iss::Options o;
    o.bugs = r.bugs();
    o.rv64aEnabled = r.rv64aEnabled;
    o.resetPc = r.env.layout.instrBase;
    // Replay harts are constructed per replay and execute each pc
    // roughly once, so the decode cache never amortizes its fills —
    // measured, it costs more than the decodes it saves. Execution
    // is bit-identical either way (the cache is a pure speedup), so
    // replays still confirm campaign-found mismatches exactly.
    o.decodeCache = false;
    return o;
}

core::Iss::Options
refOptionsFor(const Reproducer &r)
{
    core::Iss::Options o;
    o.rv64aEnabled = r.rv64aEnabled;
    o.resetPc = r.env.layout.instrBase;
    o.decodeCache = false; // see dutOptionsFor
    return o;
}

/**
 * Steps 2..4 of a replay, shared by the cold path and the warm
 * context: fresh DUT/REF pair over the prepared memories, the
 * campaign's abort policy on the SAME batched engine campaign
 * execution uses (no coverage/RTL hooks: they never feed back into
 * architectural execution), against a zero-based checker. Replay
 * results are batch-size-invariant by the engine's equivalence
 * contract; one fixed size keeps replays bit-identical across runs.
 */
ReplayResult
runReplay(const Reproducer &r, soc::Memory &dut_mem,
          soc::Memory &ref_mem, const engine::WarmStart *warm)
{
    const fuzzer::MemoryLayout &lay = r.env.layout;

    core::Iss dut(&dut_mem, dutOptionsFor(r));
    core::Iss ref(&ref_mem, refOptionsFor(r));
    for (core::Iss *c : {&dut, &ref}) {
        c->addAccessRange(lay.instrBase, lay.instrSize);
        c->addAccessRange(lay.dataBase, lay.dataSize);
        c->addAccessRange(lay.handlerBase, 4096);
    }

    checker::DiffChecker checker(r.checkMode);
    engine::ExecutionEngine eng(&dut, &ref, &checker,
                                ReplayHarness::replayBatchSize);

    engine::IterationPolicy policy;
    policy.codeBoundary = r.iteration.codeBoundary;
    policy.handlerBase = lay.handlerBase;
    policy.resumeTraps = r.resumeTraps;
    policy.stepCap =
        static_cast<uint64_t>(
            r.stepCapFactor *
            static_cast<double>(r.iteration.generatedInstrs)) +
        r.stepCapSlack;
    policy.trapStormLimit = r.trapStormLimit;

    const bool use_warm = warm && warm->eligible(policy) &&
                          r.iteration.entryPc == warm->entryPc;
    if (!use_warm) {
        dut.reset(r.iteration.entryPc);
        ref.reset(r.iteration.entryPc);
    }

    const engine::IterationOutcome out =
        eng.runIteration(policy, {}, use_warm ? warm : nullptr);

    ReplayResult result;
    result.executed = out.executedTotal;
    result.traps = out.traps;
    if (out.mismatch) {
        result.mismatched = true;
        result.mismatch = *out.mismatch;
        result.commitIndex = out.mismatchCommitIndex;
    }
    return result;
}

} // namespace

ReplayResult
ReplayHarness::replay(const Reproducer &r)
{
    // Cold path: rebuild the iteration's memory image bit-exactly
    // through the exact write path generation used, then execute
    // from reset.
    soc::Memory dut_mem;
    fuzzer::TurboFuzzer::materializeIteration(r.env, r.iteration,
                                              dut_mem);
    soc::Memory ref_mem = dut_mem;
    return runReplay(r, dut_mem, ref_mem, nullptr);
}

ReplayHarness::Context::Context(const Reproducer &r)
    : env(r.env), iterationIndex(r.iteration.iterationIndex),
      entryPc(r.iteration.entryPc),
      firstBlockPc(r.iteration.firstBlockPc), dutOpts(dutOptionsFor(r)),
      refOpts(refOptionsFor(r))
{
    const fuzzer::MemoryLayout &lay = env.layout;

    // Base image: the prefix of materializeIteration()'s write
    // sequence that does not depend on the block list — exception
    // templates, this iteration index's data fill, and the preamble.
    // Per-replay, the candidate's stimulus is written onto a copy as
    // one range, reproducing the full materialization bit-exactly.
    fuzzer::ExceptionTemplates::install(baseMem, lay);
    fuzzer::TurboFuzzer::fillDataSegment(env, iterationIndex, baseMem);
    const std::vector<uint32_t> preamble =
        fuzzer::TurboFuzzer::preambleCode(env);
    TF_ASSERT(lay.instrBase + 4ull * preamble.size() == firstBlockPc,
              "replay context preamble disagrees with reproducer "
              "layout");
    baseMem.writeWords(lay.instrBase, preamble);

    engine::WarmStartSpec spec;
    spec.dutOpts = dutOpts;
    spec.refOpts = refOpts;
    spec.prefixCode = fuzzer::TurboFuzzer::warmPrefixCode(env);
    spec.entryPc = lay.instrBase;
    spec.accessRanges = {{lay.instrBase, lay.instrSize},
                         {lay.dataBase, lay.dataSize},
                         {lay.handlerBase, 4096}};
    warm = engine::captureWarmStart(spec);
}

bool
ReplayHarness::Context::compatible(const Reproducer &r) const
{
    const fuzzer::MemoryLayout &a = env.layout;
    const fuzzer::MemoryLayout &b = r.env.layout;
    return r.env.fuzzerSeed == env.fuzzerSeed &&
           r.env.bootstrapInstrs == env.bootstrapInstrs &&
           a.instrBase == b.instrBase && a.instrSize == b.instrSize &&
           a.dataBase == b.dataBase && a.dataSize == b.dataSize &&
           a.handlerBase == b.handlerBase &&
           r.iteration.iterationIndex == iterationIndex &&
           r.iteration.entryPc == entryPc &&
           r.iteration.firstBlockPc == firstBlockPc &&
           r.bugs().raw() == dutOpts.bugs.raw() &&
           r.rv64aEnabled == dutOpts.rv64aEnabled;
}

ReplayResult
ReplayHarness::Context::replay(const Reproducer &r) const
{
    TF_ASSERT(compatible(r),
              "reproducer does not share this replay context");

    soc::Memory dut_mem = baseMem;
    dut_mem.writeWords(firstBlockPc, r.iteration.stimulus.words);
    soc::Memory ref_mem = dut_mem;
    return runReplay(r, dut_mem, ref_mem,
                     warm ? &*warm : nullptr);
}

bool
ReplayHarness::confirms(const Reproducer &r, const ReplayResult &out)
{
    return out.mismatched && out.mismatch.kind == r.mismatch.kind &&
           out.mismatch.pc == r.mismatch.pc &&
           out.mismatch.insn == r.mismatch.insn &&
           out.mismatch.dutValue == r.mismatch.dutValue &&
           out.mismatch.refValue == r.mismatch.refValue &&
           out.commitIndex == r.commitIndex;
}

bool
ReplayHarness::verifyDeterministic(const Reproducer &r)
{
    const ReplayResult a = replay(r);
    const ReplayResult b = replay(r);
    const bool identical =
        a.mismatched == b.mismatched && a.executed == b.executed &&
        a.traps == b.traps && a.commitIndex == b.commitIndex &&
        a.mismatch.kind == b.mismatch.kind &&
        a.mismatch.pc == b.mismatch.pc &&
        a.mismatch.insn == b.mismatch.insn &&
        a.mismatch.dutValue == b.mismatch.dutValue &&
        a.mismatch.refValue == b.mismatch.refValue;
    return identical && confirms(r, a);
}

} // namespace turbofuzz::triage
