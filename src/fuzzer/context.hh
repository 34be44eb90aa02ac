/**
 * @file
 * Global execution context metadata (paper §IV-B2) and the memory
 * layout contract between fuzzer, DUT and harness.
 *
 * During iteration generation the context checks that every emitted
 * instruction block is word aligned and fits the instruction segment,
 * and tracks the cumulative instruction count. Blocks are laid out
 * contiguously, so block i starts at firstBlockPc + 4 * (its word
 * offset in the stimulus); control-flow fix-up derives jump targets
 * from those offsets, so jumps always land on block boundaries. When
 * generation completes, the context holds the final instruction count
 * and the code-segment boundary.
 */

#ifndef TURBOFUZZ_FUZZER_CONTEXT_HH
#define TURBOFUZZ_FUZZER_CONTEXT_HH

#include <cstdint>

namespace turbofuzz::fuzzer
{

/**
 * Address-space contract for generated iterations.
 *
 * All segments live below 2 GiB so that lui/auipc-materialized
 * addresses survive RV64 sign extension without widening sequences —
 * the synthesizable generator relies on 2-instruction address
 * materialization.
 */
struct MemoryLayout
{
    uint64_t instrBase = 0x10000000ull; ///< instruction segment
    uint64_t instrSize = 1ull << 20;
    uint64_t dataBase = 0x20000000ull;  ///< LFSR-filled data segment
    uint64_t dataSize = 1ull << 12;
    uint64_t handlerBase = 0x10F00000ull; ///< exception template code

    /** Register conventions the generator reserves. */
    static constexpr unsigned regDataBase = 31; ///< x31 = dataBase
    static constexpr unsigned regScratch = 30;  ///< x30 = addr scratch
    static constexpr unsigned regHandlerTmp = 29; ///< handler-owned
};

/** Global context accumulated while one iteration is generated. */
class FuzzContext
{
  public:
    explicit FuzzContext(const MemoryLayout &layout);

    /** Begin a new iteration at the instruction segment base. */
    void beginIteration();

    /** Record a block of @p instr_count words at @p base_addr. */
    void recordBlock(uint64_t base_addr, uint32_t instr_count);

    /** Cumulative instructions generated this iteration. */
    uint64_t cumulativeInstrCount() const { return cumInstrs; }

    /** Next free address in the instruction segment. */
    uint64_t nextAddress() const { return cursor; }

    /** Close the iteration; records the code-segment boundary. */
    void finalize();

    /** End of generated code (valid after finalize()). */
    uint64_t codeBoundary() const { return boundary; }

    const MemoryLayout &layout() const { return memLayout; }

    /** True when another block of @p instrs words still fits. */
    bool hasRoom(uint32_t instrs) const;

  private:
    MemoryLayout memLayout;
    uint64_t cumInstrs = 0;
    uint64_t cursor = 0;
    uint64_t boundary = 0;
};

} // namespace turbofuzz::fuzzer

#endif // TURBOFUZZ_FUZZER_CONTEXT_HH
