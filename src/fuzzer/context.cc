#include "fuzzer/context.hh"

#include "common/logging.hh"

namespace turbofuzz::fuzzer
{

FuzzContext::FuzzContext(const MemoryLayout &layout) : memLayout(layout)
{
    beginIteration();
}

void
FuzzContext::beginIteration()
{
    cumInstrs = 0;
    cursor = memLayout.instrBase;
    boundary = 0;
}

void
FuzzContext::recordBlock(uint64_t base_addr, uint32_t instr_count)
{
    TF_ASSERT(base_addr % 4 == 0, "block base must be word aligned");
    TF_ASSERT(base_addr >= memLayout.instrBase &&
                  base_addr + 4ull * instr_count <=
                      memLayout.instrBase + memLayout.instrSize,
              "block escapes the instruction segment");
    cumInstrs += instr_count;
    cursor = base_addr + 4ull * instr_count;
}

void
FuzzContext::finalize()
{
    boundary = cursor;
}

bool
FuzzContext::hasRoom(uint32_t instrs) const
{
    return cursor + 4ull * instrs <=
           memLayout.instrBase + memLayout.instrSize;
}

} // namespace turbofuzz::fuzzer
