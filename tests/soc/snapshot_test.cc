/** @file Snapshot serialization tests. */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "soc/snapshot.hh"

namespace turbofuzz::soc
{
namespace
{

TEST(SnapshotWriter, ScalarRoundTrip)
{
    SnapshotWriter w;
    w.putU8(0x12);
    w.putU16(0x3456);
    w.putU32(0x789ABCDE);
    w.putU64(0x0123456789ABCDEFull);
    w.putString("turbofuzz");

    const auto buf = w.buffer();
    SnapshotReader r(buf);
    EXPECT_EQ(r.getU8(), 0x12u);
    EXPECT_EQ(r.getU16(), 0x3456u);
    EXPECT_EQ(r.getU32(), 0x789ABCDEu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getString(), "turbofuzz");
    EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotWriter, ScalarBytesAreLittleEndian)
{
    SnapshotWriter w;
    w.putU16(0x0102);
    w.putU32(0x03040506);
    w.putU64(0x0708090A0B0C0D0Eull);
    EXPECT_EQ(w.buffer(),
              (std::vector<uint8_t>{0x02, 0x01, 0x06, 0x05, 0x04, 0x03,
                                    0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09,
                                    0x08, 0x07}));
}

TEST(SnapshotWriter, U32ArrayRoundTrip)
{
    // Random arrays, including empty ones, written in bulk: the bytes
    // equal a putU32 loop's, and the bulk get reads them back.
    Rng rng(0x5EED);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<uint32_t> values(rng.range(300));
        for (uint32_t &v : values)
            v = static_cast<uint32_t>(rng.next());
        SnapshotWriter bulk, loop;
        bulk.putU8(0x7F);
        loop.putU8(0x7F);
        bulk.putU32Array(values);
        for (const uint32_t v : values)
            loop.putU32(v);
        ASSERT_EQ(bulk.buffer(), loop.buffer());

        const auto buf = bulk.buffer();
        SnapshotReader r(buf);
        EXPECT_EQ(r.getU8(), 0x7Fu);
        std::vector<uint32_t> back(values.size());
        r.getU32Array(back);
        EXPECT_EQ(back, values);
        EXPECT_TRUE(r.exhausted());
    }
}

TEST(Snapshot, SectionsAndMetadata)
{
    Snapshot s;
    s.setSection("dut", {1, 2, 3});
    s.setSection("ref", {4, 5});
    s.setTrigger("fflags mismatch at pc 0x80000010");
    s.setCaptureTime(12.5);

    EXPECT_TRUE(s.hasSection("dut"));
    EXPECT_FALSE(s.hasSection("coverage"));
    EXPECT_EQ(s.section("ref").size(), 2u);
    EXPECT_EQ(s.sectionCount(), 2u);
}

TEST(Snapshot, SerializeDeserialize)
{
    Snapshot s;
    s.setSection("mem", std::vector<uint8_t>(1000, 0xAB));
    s.setSection("arch", {9, 8, 7});
    s.setTrigger("rd value mismatch");
    s.setCaptureTime(3.25);

    const auto image = s.serialize();
    const Snapshot s2 = Snapshot::deserialize(image);
    EXPECT_EQ(s2.trigger(), "rd value mismatch");
    EXPECT_NEAR(s2.captureTime(), 3.25, 1e-9);
    EXPECT_EQ(s2.section("mem"), s.section("mem"));
    EXPECT_EQ(s2.section("arch"), s.section("arch"));
}

TEST(Snapshot, BadMagicRejected)
{
    std::vector<uint8_t> garbage = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EXIT(Snapshot::deserialize(garbage),
                testing::ExitedWithCode(1), "bad snapshot magic");
}

TEST(Snapshot, FileRoundTrip)
{
    Snapshot s;
    s.setSection("x", {42});
    s.setTrigger("test");
    const std::string path = testing::TempDir() + "/tf_snapshot_test.bin";
    s.saveFile(path);
    const Snapshot s2 = Snapshot::loadFile(path);
    EXPECT_EQ(s2.section("x"), std::vector<uint8_t>{42});
    std::remove(path.c_str());
}

TEST(Snapshot, MissingSectionIsFatal)
{
    Snapshot s;
    EXPECT_EXIT((void)s.section("nope"), testing::ExitedWithCode(1),
                "no section");
}

// ---------------------------------------------------------------------
// Malformed-input suite: snapshot images come from disk (checkpoint
// files, archived captures), so every length field must be validated
// against the remaining buffer BEFORE any allocation, and parse
// failures must surface as recoverable errors — never as a crash or a
// multi-gigabyte allocation.
// ---------------------------------------------------------------------

/** A healthy serialized snapshot to corrupt. */
std::vector<uint8_t>
sampleImage()
{
    Snapshot s;
    s.setSection("arch", {9, 8, 7, 6, 5});
    s.setSection("mem", std::vector<uint8_t>(64, 0xCD));
    s.setTrigger("sample");
    s.setCaptureTime(1.5);
    return s.serialize();
}

TEST(SnapshotHardening, ReaderGetBytesRejectsOverflowingSize)
{
    // The historical bounds check `cursor + size <= source.size()`
    // wrapped for sizes near SIZE_MAX and accepted the read; the
    // rewritten `size <= remaining()` must reject it.
    std::vector<uint8_t> buf = {1, 2, 3, 4};
    SnapshotReader r(buf);
    r.getU8(); // cursor != 0 so the historical form could wrap
    uint8_t out[4];
    EXPECT_THROW(r.getBytes(out, SIZE_MAX - 2), SnapshotFormatError);
}

TEST(SnapshotHardening, U32ArrayRejectsOversizedCountWithoutConsuming)
{
    const std::vector<uint8_t> buf = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    SnapshotReader r(buf);
    r.getU8();
    const size_t remaining = r.remaining();
    std::vector<uint32_t> out(3); // 12 bytes wanted, 9 left
    EXPECT_THROW(r.getU32Array(out), SnapshotFormatError);
    EXPECT_EQ(r.remaining(), remaining);
    std::vector<uint32_t> huge(1u << 20);
    EXPECT_THROW(r.getU32Array(huge), SnapshotFormatError);
    EXPECT_EQ(r.remaining(), remaining);
    // The buffer is still readable where it was.
    std::vector<uint32_t> two(2);
    r.getU32Array(two);
    EXPECT_EQ(two[0], 0x05040302u);
    EXPECT_EQ(r.remaining(), 1u);
}

TEST(SnapshotHardening, ScalarUnderrunLeavesCursor)
{
    const std::vector<uint8_t> buf = {1, 2, 3};
    SnapshotReader r(buf);
    EXPECT_THROW(r.getU32(), SnapshotFormatError);
    EXPECT_THROW(r.getU64(), SnapshotFormatError);
    EXPECT_EQ(r.remaining(), 3u);
    EXPECT_EQ(r.getU16(), 0x0201u);
    EXPECT_THROW(r.getU16(), SnapshotFormatError);
    EXPECT_EQ(r.getU8(), 3u);
    EXPECT_THROW(r.getU8(), SnapshotFormatError);
    EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotHardening, GetStringRejectsOversizedLengthBeforeAlloc)
{
    // Length field 0xFFFFFFFF with only a handful of payload bytes:
    // must throw instead of attempting a 4 GiB allocation.
    SnapshotWriter w;
    w.putU32(0xFFFFFFFFu);
    w.putU8(0xAA);
    const auto buf = w.buffer();
    SnapshotReader r(buf);
    EXPECT_THROW(r.getString(), SnapshotFormatError);
}

TEST(SnapshotHardening, TryDeserializeTruncatedHeader)
{
    std::string error;
    EXPECT_FALSE(Snapshot::tryDeserialize({0x50, 0x53}, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(SnapshotHardening, TryDeserializeBadMagic)
{
    std::string error;
    EXPECT_FALSE(
        Snapshot::tryDeserialize({0, 1, 2, 3, 4, 5, 6, 7}, &error));
    EXPECT_NE(error.find("bad snapshot magic"), std::string::npos);
}

TEST(SnapshotHardening, TryDeserializeBadVersion)
{
    auto image = sampleImage();
    image[4] = 0x7F; // version field follows the 4-byte magic
    std::string error;
    EXPECT_FALSE(Snapshot::tryDeserialize(image, &error));
    EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(SnapshotHardening, TryDeserializeTruncatedSection)
{
    auto image = sampleImage();
    image.resize(image.size() - 10); // cut into the last section
    std::string error;
    EXPECT_FALSE(Snapshot::tryDeserialize(image, &error));
    EXPECT_FALSE(error.empty());
}

TEST(SnapshotHardening, TryDeserializeTrailingBytes)
{
    auto image = sampleImage();
    image.push_back(0x00);
    std::string error;
    EXPECT_FALSE(Snapshot::tryDeserialize(image, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(SnapshotHardening, TryDeserializeOversizedSectionCount)
{
    SnapshotWriter w;
    w.putU32(0x54465350);
    w.putU16(Snapshot::formatVersion);
    w.putString("t");
    w.putU64(0);
    w.putU32(0xFFFFFFFFu); // section count that cannot fit
    const auto image = w.takeBuffer();
    std::string error;
    EXPECT_FALSE(Snapshot::tryDeserialize(image, &error));
    EXPECT_NE(error.find("section count"), std::string::npos);
}

TEST(SnapshotHardening, TryDeserializeOversizedSectionSize)
{
    SnapshotWriter w;
    w.putU32(0x54465350);
    w.putU16(Snapshot::formatVersion);
    w.putString("t");
    w.putU64(0);
    w.putU32(1);
    w.putString("mem");
    w.putU32(0xFFFFFFF0u); // section size far past the buffer end
    w.putU8(0xEE);
    const auto image = w.takeBuffer();
    std::string error;
    EXPECT_FALSE(Snapshot::tryDeserialize(image, &error));
    EXPECT_NE(error.find("section size"), std::string::npos);
}

TEST(SnapshotHardening, RoundTripProperty)
{
    // Pseudo-random snapshots must round-trip bit-exactly through
    // serialize -> tryDeserialize.
    uint64_t state = 0x1234;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int round = 0; round < 20; ++round) {
        Snapshot s;
        const unsigned nsections = 1 + next() % 5;
        for (unsigned i = 0; i < nsections; ++i) {
            std::vector<uint8_t> data(next() % 300);
            for (auto &b : data)
                b = static_cast<uint8_t>(next());
            s.setSection("sec" + std::to_string(next() % 8),
                         std::move(data));
        }
        s.setTrigger("round " + std::to_string(round));
        s.setCaptureTime(static_cast<double>(next() % 1000) / 8.0);

        const auto image = s.serialize();
        std::string error;
        const auto back = Snapshot::tryDeserialize(image, &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_EQ(back->trigger(), s.trigger());
        EXPECT_EQ(back->sectionCount(), s.sectionCount());
        EXPECT_EQ(back->serialize(), image);
    }
}

TEST(SnapshotHardening, TryLoadFileMissingAndCorrupt)
{
    std::string error;
    EXPECT_FALSE(
        Snapshot::tryLoadFile("/nonexistent/tf.ckpt", &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    const std::string path =
        testing::TempDir() + "/tf_corrupt_snapshot.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint8_t junk[] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_FALSE(Snapshot::tryLoadFile(path, &error));
    EXPECT_NE(error.find("bad snapshot magic"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace turbofuzz::soc
