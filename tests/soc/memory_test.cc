/** @file Sparse memory and BRAM model tests. */

#include <gtest/gtest.h>

#include <vector>

#include "soc/memory.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::soc
{
namespace
{

TEST(Memory, UntouchedReadsZero)
{
    Memory m;
    EXPECT_EQ(m.read8(0), 0u);
    EXPECT_EQ(m.read64(0x80000000ull), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(Memory, ScalarRoundTrips)
{
    Memory m;
    m.write8(0x1000, 0xAB);
    m.write16(0x1002, 0xCDEF);
    m.write32(0x1004, 0x12345678);
    m.write64(0x1008, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(m.read8(0x1000), 0xABu);
    EXPECT_EQ(m.read16(0x1002), 0xCDEFu);
    EXPECT_EQ(m.read32(0x1004), 0x12345678u);
    EXPECT_EQ(m.read64(0x1008), 0xDEADBEEFCAFEF00Dull);
}

TEST(Memory, LittleEndianLayout)
{
    Memory m;
    m.write32(0x2000, 0x11223344);
    EXPECT_EQ(m.read8(0x2000), 0x44u);
    EXPECT_EQ(m.read8(0x2003), 0x11u);
}

TEST(Memory, PageStraddlingAccess)
{
    Memory m;
    const uint64_t addr = Memory::pageSize - 4;
    m.write64(addr, 0x0102030405060708ull);
    EXPECT_EQ(m.read64(addr), 0x0102030405060708ull);
    EXPECT_EQ(m.residentPages(), 2u);
}

std::vector<uint8_t>
imageOf(const Memory &m)
{
    SnapshotWriter w;
    m.saveState(w);
    return w.takeBuffer();
}

std::vector<uint32_t>
wordRun(size_t n, uint32_t salt)
{
    std::vector<uint32_t> words(n);
    for (size_t i = 0; i < n; ++i)
        words[i] = static_cast<uint32_t>(i * 0x9E3779B1u) ^ salt;
    return words;
}

TEST(Memory, WriteWordsMatchesWrite32Loop)
{
    // Within one page, across one and two page boundaries, from an
    // unaligned start whose word straddles a page, and over memory
    // that already holds data: bytes and page residency must equal
    // those of the write32 loop.
    const struct
    {
        uint64_t addr;
        size_t words;
    } cases[] = {
        {0x3000, 5},
        {0x3000 + Memory::pageSize - 8, 6},
        {0x8000 - 4, 2 * Memory::pageSize / 4 + 3},
        {0x6000 - 2, 3},
        {0x10000, 0},
    };
    for (const auto &c : cases) {
        const std::vector<uint32_t> words = wordRun(c.words, 0xA5A5);
        Memory bulk, loop;
        for (Memory *m : {&bulk, &loop})
            m->write64(0x3010, 0x1122334455667788ull);
        bulk.writeWords(c.addr, words);
        for (size_t i = 0; i < words.size(); ++i)
            loop.write32(c.addr + 4 * i, words[i]);
        EXPECT_EQ(imageOf(bulk), imageOf(loop))
            << "addr 0x" << std::hex << c.addr;
        EXPECT_EQ(bulk.residentPages(), loop.residentPages());
        for (size_t i = 0; i < words.size(); ++i)
            ASSERT_EQ(bulk.read32(c.addr + 4 * i), words[i]);
    }
}

TEST(Memory, WriteWordsBumpsFetchEpochOncePerCall)
{
    Memory m;
    const uint64_t before = m.fetchEpochOfSlot(0);
    m.writeWords(0x1000, wordRun(3 * Memory::pageSize / 4, 1));
    EXPECT_EQ(m.fetchEpochOfSlot(0), before + 1);

    // A range that runs past a watch bumps the watch and the global
    // slot, since fetches outside every watch read the global epoch.
    m.addFetchWatch(0x1000, Memory::pageSize);
    const uint32_t slot = m.fetchSlotFor(0x1000);
    const uint64_t watch_before = m.fetchEpochOfSlot(slot);
    const uint64_t global_before = m.fetchEpochOfSlot(0);
    m.writeWords(0x1000, wordRun(8, 2));
    EXPECT_EQ(m.fetchEpochOfSlot(slot), watch_before + 1);
    EXPECT_EQ(m.fetchEpochOfSlot(0), global_before);
    m.writeWords(0x1000 + Memory::pageSize - 8, wordRun(4, 3));
    EXPECT_EQ(m.fetchEpochOfSlot(slot), watch_before + 2);
    EXPECT_EQ(m.fetchEpochOfSlot(0), global_before + 1);
}

TEST(Memory, SparseDistantAddresses)
{
    Memory m;
    m.write8(0x0, 1);
    m.write8(0xFFFFFFFF0000ull, 2);
    EXPECT_EQ(m.read8(0x0), 1u);
    EXPECT_EQ(m.read8(0xFFFFFFFF0000ull), 2u);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(Memory, SnapshotRoundTrip)
{
    Memory m;
    m.write64(0x1000, 0xAABBCCDDEEFF0011ull);
    m.write8(0x999999, 0x77);

    SnapshotWriter w;
    m.saveState(w);

    Memory m2;
    m2.write8(0x5, 0x5); // will be replaced by load
    const auto buf = w.buffer();
    SnapshotReader r(buf);
    m2.loadState(r);
    EXPECT_EQ(m2.read64(0x1000), 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(m2.read8(0x999999), 0x77u);
    EXPECT_EQ(m2.read8(0x5), 0u);
    EXPECT_EQ(m2.residentPages(), m.residentPages());
}

TEST(Memory, Reset)
{
    Memory m;
    m.write8(0x42, 9);
    m.reset();
    EXPECT_EQ(m.read8(0x42), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(MemoryJournal, UndoRestoresPriorContents)
{
    Memory m;
    m.write64(0x1000, 0x1111111111111111ull);
    m.write32(0x2000, 0x22222222u);
    m.write8(0x3000, 0x33);

    MemWriteJournal j;
    m.setJournal(&j);
    // Overlapping rewrites of existing bytes, fresh bytes, a
    // page-straddling store and repeated writes to one address.
    m.write64(0x1000, 0xAAAAAAAAAAAAAAAAull);
    m.write32(0x1004, 0xBBBBBBBBu);
    m.write16(0x2000, 0xCCCC);
    m.write8(0x3000, 0xDD);
    m.write8(0x3000, 0xEE);
    // Page-straddling store into otherwise untouched pages.
    m.write64(5 * Memory::pageSize - 3, 0x0123456789ABCDEFull);
    m.write64(0x9000, 0x4444444444444444ull);
    m.setJournal(nullptr);
    EXPECT_FALSE(j.empty());

    m.undo(j);
    EXPECT_EQ(m.read64(0x1000), 0x1111111111111111ull);
    EXPECT_EQ(m.read32(0x2000), 0x22222222u);
    EXPECT_EQ(m.read8(0x3000), 0x33u);
    EXPECT_EQ(m.read64(5 * Memory::pageSize - 3), 0u);
    EXPECT_EQ(m.read64(0x9000), 0u);
}

TEST(MemoryJournal, DetachedWritesAreNotJournaled)
{
    Memory m;
    m.write8(0x0, 0); // page resident before the journal attaches
    MemWriteJournal j;
    m.setJournal(&j);
    m.write8(0x10, 1);
    m.setJournal(nullptr);
    m.write8(0x20, 2); // not journaled
    EXPECT_EQ(j.size(), 1u);

    m.undo(j);
    EXPECT_EQ(m.read8(0x10), 0u); // undone
    EXPECT_EQ(m.read8(0x20), 2u); // untouched
}

TEST(MemoryJournal, UndoDropsPagesTheWritesCreated)
{
    Memory m;
    m.write8(0x1000, 0x11); // resident before the journal attaches
    const size_t resident_before = m.residentPages();

    MemWriteJournal j;
    m.setJournal(&j);
    m.write8(0x1001, 0x22);  // existing page: stays after undo
    m.write64(0x8000, 0x99); // fresh page: must vanish on undo
    m.setJournal(nullptr);
    EXPECT_EQ(m.residentPages(), resident_before + 1);

    // Snapshots serialize page residency, so undo must restore it
    // too — not just byte contents (mismatch-snapshot equivalence).
    m.undo(j);
    EXPECT_EQ(m.residentPages(), resident_before);
    EXPECT_EQ(m.read8(0x1000), 0x11u);
    EXPECT_EQ(m.read8(0x1001), 0u);
    EXPECT_EQ(m.read64(0x8000), 0u);
}

TEST(MemoryJournal, UndoRestoresBulkWrite)
{
    Memory m;
    m.write64(0x2000, 0x0102030405060708ull);
    m.write32(0x2ffc, 0xCAFEF00Du);
    const std::vector<uint8_t> before = imageOf(m);

    MemWriteJournal j;
    m.setJournal(&j);
    // Overwrites resident words, runs into a fresh page, and is
    // followed by a second bulk write over part of the first.
    m.writeWords(0x2ff8, wordRun(Memory::pageSize / 4, 7));
    m.writeWords(0x2000, wordRun(4, 9));
    m.setJournal(nullptr);
    EXPECT_EQ(j.size(), Memory::pageSize / 4 + 4);
    EXPECT_GT(m.residentPages(), 1u);

    m.undo(j);
    EXPECT_EQ(imageOf(m), before);
    EXPECT_EQ(m.residentPages(), 1u);
}

TEST(MemoryJournal, CopyDoesNotTransferJournal)
{
    Memory a;
    MemWriteJournal j;
    a.setJournal(&j);
    Memory b = a;
    b.write8(0x10, 7); // b has no journal attached
    EXPECT_TRUE(j.empty());
    a.setJournal(nullptr);
}

TEST(Bram, CapacityEnforced)
{
    Bram b(16);
    EXPECT_EQ(b.append({1, 2, 3, 4, 5, 6, 7, 8}), 0u);
    EXPECT_EQ(b.append({9, 10, 11, 12, 13, 14, 15, 16}), 8u);
    EXPECT_EQ(b.append({17}), SIZE_MAX);
    EXPECT_EQ(b.used(), 16u);
    EXPECT_EQ(b.capacity(), 16u);
}

TEST(Bram, ReadBack)
{
    Bram b(64);
    const std::vector<uint8_t> rec = {5, 6, 7};
    const size_t off = b.append(rec);
    EXPECT_EQ(b.read(off, 3), rec);
    b.clear();
    EXPECT_EQ(b.used(), 0u);
}

} // namespace
} // namespace turbofuzz::soc
