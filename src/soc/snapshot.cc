#include "soc/snapshot.hh"

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace turbofuzz::soc
{

namespace
{

constexpr uint32_t snapshotMagic = 0x54465350; // "TFSP"

// The u32 array put/get copy words as they sit in host memory, as
// soc::Memory does for guest words.
static_assert(std::endian::native == std::endian::little,
              "snapshot word arrays assume a little-endian host");

std::string
formatError(const char *what, unsigned long long have,
            unsigned long long need)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s (need %llu bytes, have %llu)",
                  what, need, have);
    return buf;
}

/** Little-endian store of an unsigned integer into @p out. */
template <typename T>
void
storeLE(uint8_t *out, T v)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Little-endian load of an unsigned integer from @p in. */
template <typename T>
T
loadLE(const uint8_t *in)
{
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(in[i]) << (8 * i);
    return v;
}

} // namespace

void
SnapshotWriter::putU8(uint8_t v)
{
    bytes.push_back(v);
}

template <typename T>
void
SnapshotWriter::putLE(T v)
{
    uint8_t b[sizeof(T)];
    storeLE(b, v);
    bytes.insert(bytes.end(), b, b + sizeof(T));
}

void
SnapshotWriter::putU16(uint16_t v)
{
    putLE(v);
}

void
SnapshotWriter::putU32(uint32_t v)
{
    putLE(v);
}

void
SnapshotWriter::putU64(uint64_t v)
{
    putLE(v);
}

void
SnapshotWriter::putF64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
SnapshotWriter::putU32Array(std::span<const uint32_t> values)
{
    if (values.empty())
        return;
    const size_t at = bytes.size();
    bytes.resize(at + 4 * values.size());
    std::memcpy(bytes.data() + at, values.data(), 4 * values.size());
}

void
SnapshotWriter::putBytes(const uint8_t *data, size_t size)
{
    bytes.insert(bytes.end(), data, data + size);
}

void
SnapshotWriter::putString(const std::string &s)
{
    putU32(static_cast<uint32_t>(s.size()));
    putBytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

SnapshotReader::SnapshotReader(const std::vector<uint8_t> &data)
    : source(data)
{
}

const uint8_t *
SnapshotReader::take(size_t size)
{
    // `size <= remaining()` cannot wrap, unlike the historical
    // `cursor + size <= source.size()` form, which overflowed for
    // sizes near SIZE_MAX and let a hostile length walk off the end.
    if (size > remaining())
        throw SnapshotFormatError(
            formatError("snapshot underrun", remaining(), size));
    const uint8_t *p = source.data() + cursor;
    cursor += size;
    return p;
}

uint8_t
SnapshotReader::getU8()
{
    return *take(1);
}

uint16_t
SnapshotReader::getU16()
{
    return loadLE<uint16_t>(take(2));
}

uint32_t
SnapshotReader::getU32()
{
    return loadLE<uint32_t>(take(4));
}

uint64_t
SnapshotReader::getU64()
{
    return loadLE<uint64_t>(take(8));
}

double
SnapshotReader::getF64()
{
    const uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
SnapshotReader::getU32Array(std::span<uint32_t> out)
{
    if (out.empty())
        return;
    // One check for the whole array, before the cursor moves.
    std::memcpy(out.data(), take(4 * out.size()), 4 * out.size());
}

void
SnapshotReader::getBytes(uint8_t *out, size_t size)
{
    std::memcpy(out, take(size), size);
}

std::string
SnapshotReader::getString()
{
    const uint32_t n = getU32();
    // Validate against the remaining bytes BEFORE allocating: a
    // corrupted length of 0xFFFFFFFF must fail here, not attempt a
    // 4 GiB allocation and assert inside getBytes afterwards.
    if (n > remaining())
        throw SnapshotFormatError(
            formatError("string length exceeds buffer", remaining(),
                        n));
    std::string s(n, '\0');
    getBytes(reinterpret_cast<uint8_t *>(s.data()), n);
    return s;
}

void
Snapshot::setSection(const std::string &name, std::vector<uint8_t> data)
{
    sections[name] = std::move(data);
}

bool
Snapshot::hasSection(const std::string &name) const
{
    return sections.count(name) != 0;
}

const std::vector<uint8_t> &
Snapshot::section(const std::string &name) const
{
    auto it = sections.find(name);
    if (it == sections.end())
        fatal("snapshot has no section '%s'", name.c_str());
    return it->second;
}

std::vector<uint8_t>
Snapshot::serialize() const
{
    SnapshotWriter w;
    w.putU32(snapshotMagic);
    w.putU16(formatVersion);
    w.putString(triggerReason);
    w.putU64(static_cast<uint64_t>(captureTimeSec * 1e9));
    w.putU32(static_cast<uint32_t>(sections.size()));
    for (const auto &[name, data] : sections) {
        w.putString(name);
        w.putU32(static_cast<uint32_t>(data.size()));
        w.putBytes(data.data(), data.size());
    }
    return w.takeBuffer();
}

std::optional<Snapshot>
Snapshot::tryDeserialize(const std::vector<uint8_t> &image,
                         std::string *error)
{
    auto fail = [&](std::string msg) -> std::optional<Snapshot> {
        if (error)
            *error = std::move(msg);
        return std::nullopt;
    };

    SnapshotReader r(image);
    try {
        Snapshot snap;
        if (r.remaining() < 6)
            return fail(formatError("truncated snapshot header",
                                    r.remaining(), 6));
        const uint32_t magic = r.getU32();
        if (magic != snapshotMagic) {
            char buf[48];
            std::snprintf(buf, sizeof(buf),
                          "bad snapshot magic 0x%08x", magic);
            return fail(buf);
        }
        const uint16_t version = r.getU16();
        if (version != formatVersion) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "unsupported snapshot version %u", version);
            return fail(buf);
        }
        snap.triggerReason = r.getString();
        snap.captureTimeSec =
            static_cast<double>(r.getU64()) / 1e9;
        const uint32_t count = r.getU32();
        // Every section costs at least a name length + data length
        // (8 bytes); a count larger than that bound cannot describe
        // this buffer.
        if (count > r.remaining() / 8)
            return fail(formatError("section count exceeds buffer",
                                    r.remaining(),
                                    static_cast<unsigned long long>(
                                        count) * 8));
        for (uint32_t i = 0; i < count; ++i) {
            std::string name = r.getString();
            const uint32_t size = r.getU32();
            if (size > r.remaining())
                return fail(formatError(
                    "section size exceeds buffer", r.remaining(),
                    size));
            std::vector<uint8_t> data(size);
            r.getBytes(data.data(), size);
            if (snap.sections.count(name))
                return fail("duplicate section '" + name + "'");
            snap.sections[std::move(name)] = std::move(data);
        }
        if (!r.exhausted())
            return fail(formatError(
                "trailing bytes after snapshot sections",
                r.remaining(), 0));
        return snap;
    } catch (const SnapshotFormatError &e) {
        return fail(e.what());
    }
}

Snapshot
Snapshot::deserialize(const std::vector<uint8_t> &image)
{
    std::string error;
    auto snap = tryDeserialize(image, &error);
    if (!snap)
        fatal("snapshot deserialize: %s", error.c_str());
    return std::move(*snap);
}

void
Snapshot::saveFile(const std::string &path) const
{
    std::string error;
    if (!trySaveFile(path, &error))
        fatal("%s", error.c_str());
}

bool
Snapshot::trySaveFile(const std::string &path, std::string *error) const
{
    auto fail = [&](std::string msg) {
        if (error)
            *error = std::move(msg);
        return false;
    };
    const auto image = serialize();
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return fail("cannot open snapshot file '" + path +
                    "' for writing");
    const size_t written = std::fwrite(image.data(), 1, image.size(), f);
    const bool closed_ok = std::fclose(f) == 0;
    if (written != image.size() || !closed_ok)
        return fail("short write to snapshot file '" + path + "'");
    return true;
}

Snapshot
Snapshot::loadFile(const std::string &path)
{
    std::string error;
    auto snap = tryLoadFile(path, &error);
    if (!snap)
        fatal("%s", error.c_str());
    return std::move(*snap);
}

std::optional<Snapshot>
Snapshot::tryLoadFile(const std::string &path, std::string *error)
{
    auto fail = [&](std::string msg) -> std::optional<Snapshot> {
        if (error)
            *error = std::move(msg);
        return std::nullopt;
    };

    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return fail("cannot open snapshot file '" + path + "'");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        return fail("cannot size snapshot file '" + path + "'");
    }
    std::vector<uint8_t> image(static_cast<size_t>(size));
    const size_t got = std::fread(image.data(), 1, image.size(), f);
    std::fclose(f);
    if (got != image.size())
        return fail("short read from snapshot file '" + path + "'");
    std::string parse_error;
    auto snap = tryDeserialize(image, &parse_error);
    if (!snap)
        return fail("snapshot file '" + path + "': " + parse_error);
    return snap;
}

} // namespace turbofuzz::soc
