#include "deepexplore/deep_explore.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fuzzer/exception_templates.hh"
#include "isa/csr.hh"

namespace turbofuzz::deepexplore
{

using fuzzer::IterationInfo;
using fuzzer::MemoryLayout;
using isa::Opcode;
using isa::Operands;

// --- BenchmarkRunner ---------------------------------------------------

BenchmarkRunner::BenchmarkRunner(std::vector<Program> programs,
                                 MemoryLayout layout)
    : progs(std::move(programs)), memLayout(layout)
{
    TF_ASSERT(!progs.empty(), "BenchmarkRunner needs programs");
    // Profile dynamic lengths once (host-side, no simulated cost).
    for (const Program &p : progs) {
        const BenchmarkProfile prof =
            profileBenchmark(p, memLayout, 4096);
        dynLength.push_back(prof.totalInstructions);
    }
}

IterationInfo
BenchmarkRunner::generate(soc::Memory &mem)
{
    const Program &p = progs[cursor];
    const uint64_t dyn = dynLength[cursor];
    cursor = (cursor + 1) % progs.size();

    p.load(mem);
    IterationInfo info;
    info.iterationIndex = iterCounter++;
    info.entryPc = p.entry();
    info.firstBlockPc = p.entry();
    info.codeBoundary = p.end();
    info.generatedInstrs = static_cast<uint32_t>(
        std::min<uint64_t>(dyn, UINT32_MAX));
    return info;
}

// --- DeepExploreGenerator ------------------------------------------------

DeepExploreGenerator::DeepExploreGenerator(
    DeepExploreOptions options, const isa::InstructionLibrary *library,
    std::vector<Program> programs)
    : opts(options), inner(options.fuzzer, library),
      progs(std::move(programs)), rng(options.fuzzer.seed ^ 0xDEE9)
{
    TF_ASSERT(!progs.empty(), "deepExplore needs benchmarks");

    // Stage-1 preparation (host-side SimPoint tooling, as in the
    // paper): profile each benchmark and queue its representative
    // intervals.
    for (size_t pi = 0; pi < progs.size(); ++pi) {
        const BenchmarkProfile prof = profileBenchmark(
            progs[pi], inner.layout(), opts.intervalLen);
        const std::vector<SimPoint> points =
            selectSimPoints(prof.intervals, opts.simpoint);
        for (const SimPoint &sp : points) {
            const IntervalProfile &iv =
                prof.intervals[sp.intervalIndex];
            IntervalJob job;
            job.programIdx = pi;
            job.startState = iv.startState;
            job.startPc = iv.startPc;
            job.length = iv.instrCount;
            job.isMutation = false;
            job.markedIdx = SIZE_MAX;
            queue.push_back(std::move(job));
        }
    }
    inform("deepExplore: queued %zu representative intervals",
           queue.size());
}

const MemoryLayout &
DeepExploreGenerator::layout() const
{
    return inner.layout();
}

IterationInfo
DeepExploreGenerator::emitInterval(soc::Memory &mem,
                                   const IntervalJob &job)
{
    const Program &prog = progs[job.programIdx];
    prog.load(mem);

    // Exception templates keep mutated intervals recoverable (a
    // perturbed initialization state can make the replay fault).
    fuzzer::ExceptionTemplates::install(mem, inner.layout());

    // Initialization code sits after the program image, aligned up.
    const uint64_t init_base = (prog.end() + 0xFF) & ~uint64_t{0xFF};
    ProgramBuilder b(init_base);

    // mtvec first; the staging register is rewritten below.
    b.loadImm(30, inner.layout().handlerBase);
    {
        isa::Operands w;
        w.rd = 0;
        w.rs1 = 30;
        w.csr = isa::csr::mtvec;
        b.emit(Opcode::Csrrw, w);
    }

    const core::ArchState &st = job.startState;
    // GRF: x1..x29 (x30/x31 conventions rebuilt below too).
    for (unsigned r = 1; r < 32; ++r)
        b.loadImm(r, st.x(r));
    // FRF via x5 staging (x5 re-materialized afterwards).
    for (unsigned f = 0; f < 32; ++f) {
        b.loadImm(5, st.f(f));
        Operands mv;
        mv.rd = static_cast<uint8_t>(f);
        mv.rs1 = 5;
        b.emit(Opcode::FmvDX, mv);
    }
    b.loadImm(5, st.x(5));
    // fcsr.
    b.loadImm(6, (st.frm << 5) | st.fflags);
    Operands csr;
    csr.rd = 0;
    csr.rs1 = 6;
    csr.csr = isa::csr::fcsr;
    b.emit(Opcode::Csrrw, csr);
    b.loadImm(6, st.x(6));
    // Enter the interval body.
    {
        Operands j;
        j.rd = 0;
        j.imm = static_cast<int64_t>(job.startPc) -
                static_cast<int64_t>(b.here());
        b.emit(Opcode::Jal, j);
    }
    const Program init = b.finish("interval-init");
    init.load(mem);

    // Terminator at the program's end: replays that run the benchmark
    // to completion jump cleanly to the iteration boundary instead of
    // creeping through the gap before the init stub.
    {
        Operands j;
        j.rd = 0;
        j.imm = static_cast<int64_t>(init.end()) -
                static_cast<int64_t>(prog.end());
        mem.write32(prog.end(), isa::encode(Opcode::Jal, j));
    }

    IterationInfo info;
    info.entryPc = init.entry();
    info.firstBlockPc = job.startPc;
    // The init stub sits above the program image, so the iteration
    // region extends to its end; the interval body loops and the
    // harness's step cap bounds the replay length.
    info.codeBoundary = init.end();
    info.fuzzRegionEnd = prog.end();
    info.generatedInstrs = static_cast<uint32_t>(
        init.code.size() + job.length);
    return info;
}

IterationInfo
DeepExploreGenerator::generate(soc::Memory &mem)
{
    if (!inStage2 && !queue.empty()) {
        lastJob = queue.front();
        queue.pop_front();
        lastWasInterval = true;
        return emitInterval(mem, lastJob);
    }
    if (!inStage2)
        enterStage2();
    lastWasInterval = false;
    return inner.generate(mem);
}

void
DeepExploreGenerator::scheduleMutationRound()
{
    ++mutationRound;
    for (size_t mi = 0; mi < marked.size(); ++mi) {
        IntervalJob mutant = marked[mi];
        mutant.isMutation = true;
        mutant.markedIdx = mi;
        // Light mutation: perturb initialization values (register
        // contents, memory addresses) while preserving the interval's
        // dependency structure (§V).
        for (unsigned r = 1; r < 32; ++r) {
            if (rng.chance(1, 4)) {
                const uint64_t v = mutant.startState.x(r);
                mutant.startState.setX(
                    r, v ^ rng.range(1ull << (8 + rng.range(24))));
            }
        }
        for (unsigned f = 0; f < 32; ++f) {
            if (rng.chance(1, 8)) {
                mutant.startState.setF(
                    f, mutant.startState.f(f) ^ rng.next());
            }
        }
        queue.push_back(std::move(mutant));
    }
}

void
DeepExploreGenerator::enterStage2()
{
    // Decompose each marked interval's static window into instruction
    // blocks and seed the fuzzer corpus with them.
    soc::Memory scratch;
    size_t seeded = 0;
    for (const IntervalJob &job : marked) {
        const Program &prog = progs[job.programIdx];
        prog.load(scratch);

        // A block ends at each control-flow word (its prime) or at
        // the end of the window (prime: the last word).
        fuzzer::Seed seed;
        fuzzer::Stimulus &stim = seed.stimulus;
        bool open = false;
        uint64_t pc = job.startPc;
        uint32_t taken = 0;
        while (taken < opts.seedWindow && pc < prog.end()) {
            const uint32_t word = scratch.read32(pc);
            const isa::Decoded d = isa::decode(word);
            if (!open) {
                const auto position =
                    static_cast<uint32_t>(stim.blocks.size());
                stim.beginBlock().position = position;
                open = true;
            }
            stim.pushWord(word);
            stim.blocks.back().primeIdx = stim.blocks.back().count - 1;
            ++taken;
            pc += 4;
            if (d.valid && d.desc->isControlFlow()) {
                stim.blocks.back().isControlFlow = true;
                open = false;
            }
        }
        if (!stim.blocks.empty()) {
            inner.underlying().addSeed(std::move(seed));
            ++seeded;
        }
    }
    inform("deepExplore: stage 2 begins with %zu interval seeds "
           "(%llu mutation rounds)",
           seeded, static_cast<unsigned long long>(mutationRound));
    inStage2 = true;
}

void
DeepExploreGenerator::feedback(const IterationInfo &info,
                               uint64_t cov_increment)
{
    if (inStage2) {
        inner.feedback(info, cov_increment);
        return;
    }
    if (!lastWasInterval)
        return;

    if (lastJob.isMutation) {
        // Track whether this mutation round still improves coverage.
        if (cov_increment > opts.markThreshold) {
            bestRoundIncrement =
                std::max(bestRoundIncrement, cov_increment);
        }
        if (lastJob.markedIdx < markedBestIncrement.size()) {
            markedBestIncrement[lastJob.markedIdx] = std::max(
                markedBestIncrement[lastJob.markedIdx], cov_increment);
        }
    } else if (cov_increment >= opts.markThreshold) {
        // Significant interval: mark it for mutation and seeding.
        marked.push_back(lastJob);
        markedBestIncrement.push_back(cov_increment);
    }

    // Queue drained: decide between another mutation round and
    // plateau exit.
    if (queue.empty()) {
        if (marked.empty()) {
            enterStage2();
            return;
        }
        if (mutationRound > 0) {
            if (bestRoundIncrement <= opts.markThreshold)
                ++stagnantRounds;
            else
                stagnantRounds = 0;
        }
        bestRoundIncrement = 0;
        if (stagnantRounds >= opts.plateauRounds ||
            mutationRound >= opts.maxMutationRounds) {
            enterStage2();
        } else {
            scheduleMutationRound();
        }
    }
}

} // namespace turbofuzz::deepexplore
