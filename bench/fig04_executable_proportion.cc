/**
 * @file
 * Fig. 4 reproduction: proportion of executable instructions in
 * DifuzzRTL-generated programs, by instruction category — generated
 * vs executed vs control-flow-executed — plus the expected-jump-
 * distance analysis of eq. (1).
 *
 * Paper findings: only ~19.3% of generated instructions complete
 * execution; control-flow instructions comprise more than 1/6 of the
 * mix; unconstrained forward jumps skip most of each iteration.
 */

#include <map>
#include <set>

#include "bench_util.hh"

#include "baselines/difuzzrtl.hh"
#include "core/iss.hh"
#include "isa/encoding.hh"

using namespace turbofuzz;
using namespace turbofuzz::bench;

namespace
{

/** Category of an instruction for the figure's x-axis. */
std::string
categoryOf(const isa::InstrDesc &d)
{
    if (d.has(isa::FlagBranch))
        return "branch";
    if (d.has(isa::FlagJal) || d.has(isa::FlagJalr))
        return "jump";
    if (d.has(isa::FlagLoad))
        return "load";
    if (d.has(isa::FlagStore))
        return "store";
    if (d.has(isa::FlagFp))
        return "fp";
    if (d.has(isa::FlagMulDiv))
        return "muldiv";
    if (d.has(isa::FlagCsr))
        return "csr";
    if (d.has(isa::FlagSystem))
        return "system";
    return "alu";
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    const uint64_t seed = static_cast<uint64_t>(cfg.getInt("seed", 1));
    const int iterations =
        static_cast<int>(cfg.getInt("iterations", 200));

    banner("Fig. 4",
           "Proportion of executable instructions (DifuzzRTL-style "
           "generation)");

    static isa::InstructionLibrary lib = harness::makeDefaultLibrary();
    baselines::DifuzzRtlGenerator gen(seed, &lib);
    const fuzzer::MemoryLayout lay = gen.layout();

    std::map<std::string, uint64_t> generated;
    std::map<std::string, uint64_t> executed;
    std::map<std::string, uint64_t> executedCf;
    uint64_t gen_total = 0, exec_total = 0;

    soc::Memory mem;
    for (int it = 0; it < iterations; ++it) {
        const fuzzer::IterationInfo info = gen.generate(mem);

        // Generated mix, from the iteration's instruction blocks.
        for (uint32_t word : info.stimulus.words) {
            const isa::Decoded d = isa::decode(word);
            if (!d.valid)
                continue;
            ++generated[categoryOf(*d.desc)];
            ++gen_total;
        }

        // Executed mix: run the iteration the way the DifuzzRTL flow
        // does (first trap ends it), classifying only commits inside
        // the fuzzing region.
        core::Iss::Options iopts;
        iopts.resetPc = info.entryPc;
        core::Iss hart(&mem, iopts);
        hart.addAccessRange(lay.instrBase, lay.instrSize);
        hart.addAccessRange(lay.dataBase, lay.dataSize);
        const uint64_t cap = info.generatedInstrs + 1024;
        std::set<uint64_t> seen; // "completed execution" is per
                                 // generated instruction, not per
                                 // dynamic commit (loops re-execute)
        for (uint64_t n = 0; n < cap; ++n) {
            const core::CommitInfo ci = hart.step();
            if (ci.trapped)
                break;
            if (ci.decodeValid && ci.pc >= info.firstBlockPc &&
                ci.pc < info.codeBoundary && seen.insert(ci.pc).second) {
                const std::string cat = categoryOf(*ci.desc);
                ++executed[cat];
                ++exec_total;
                if (ci.desc->isControlFlow())
                    ++executedCf[cat];
            }
            if (hart.state().pc >= info.codeBoundary)
                break;
        }
        gen.feedback(info, 0);
    }

    TablePrinter table({"Category", "Generated", "Executed",
                        "Executed CF", "Exec/Gen"});
    for (const auto &[cat, g] : generated) {
        const uint64_t e = executed.count(cat) ? executed[cat] : 0;
        const uint64_t c =
            executedCf.count(cat) ? executedCf[cat] : 0;
        table.addRow({cat, TablePrinter::integer(g),
                      TablePrinter::integer(e),
                      TablePrinter::integer(c),
                      TablePrinter::num(
                          g ? static_cast<double>(e) / g : 0.0, 3)});
    }
    table.print();

    const double exec_frac =
        static_cast<double>(exec_total) / static_cast<double>(gen_total);
    std::printf("\noverall executed fraction: %.3f "
                "(paper: ~0.193)\n",
                exec_frac);

    const uint64_t cf_gen = generated["branch"] + generated["jump"];
    std::printf("control-flow share of generated: %.3f "
                "(paper: > 1/6 = 0.167)\n",
                static_cast<double>(cf_gen) /
                    static_cast<double>(gen_total));

    // Eq. (1): expected jump distance for unconstrained forward
    // jumps, E_j = 1 + (L - p)/2.
    std::printf("\neq. (1) expected jump distance, L = 912:\n");
    for (uint64_t p : {10ull, 100ull, 456ull, 800ull}) {
        std::printf("  p = %4llu -> E_j = %.1f instructions\n",
                    static_cast<unsigned long long>(p),
                    1.0 + static_cast<double>(912 - p) / 2.0);
    }
    return 0;
}
