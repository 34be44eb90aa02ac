/**
 * @file
 * Hardware snapshot capture (the StateMover/ENCORE readback analogue).
 *
 * A Snapshot is an ordered set of named binary sections. Components
 * implement saveState()/loadState() against SnapshotWriter/Reader;
 * the checker triggers a capture when a DUT/REF mismatch occurs so the
 * exact failing state can be reloaded and replayed offline
 * (paper §III "Fine-grained self-checking" and §II-C). Snapshots are
 * also the container for the campaign checkpoint/resume files the
 * fleet orchestrator writes at epoch barriers (docs/snapshot.md).
 *
 * The wire format is versioned and fully length-validated: snapshot
 * images come from disk (checkpoint files, archived mismatch
 * captures), so every length field is checked against the remaining
 * buffer *before* any allocation, and parse failures surface as a
 * typed, catchable SnapshotFormatError — never as a panic or a
 * multi-gigabyte resize from a corrupted length field.
 */

#ifndef TURBOFUZZ_SOC_SNAPSHOT_HH
#define TURBOFUZZ_SOC_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace turbofuzz::soc
{

/**
 * Thrown on corrupt or truncated snapshot input: reader underruns and
 * length fields that cannot fit the remaining buffer. Callers that
 * parse untrusted images (checkpoint loading, component loadState)
 * catch this and surface a recoverable error.
 */
class SnapshotFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Serializer for one snapshot section stream. */
class SnapshotWriter
{
  public:
    void putU8(uint8_t v);
    void putU16(uint16_t v);
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    /** IEEE-754 bit pattern of @p v (serialization-safe doubles). */
    void putF64(double v);
    /** @p values as consecutive little-endian u32s, in one append. */
    void putU32Array(std::span<const uint32_t> values);
    void putBytes(const uint8_t *data, size_t size);
    void putString(const std::string &s);

    const std::vector<uint8_t> &buffer() const { return bytes; }
    std::vector<uint8_t> takeBuffer() { return std::move(bytes); }

  private:
    template <typename T> void putLE(T v);

    std::vector<uint8_t> bytes;
};

/**
 * Deserializer over a snapshot section stream. Every read is bounds
 * checked once; consuming past the end throws SnapshotFormatError
 * and leaves the cursor where it was.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::vector<uint8_t> &data);

    uint8_t getU8();
    uint16_t getU16();
    uint32_t getU32();
    uint64_t getU64();
    double getF64();
    /** Fill @p out with consecutive little-endian u32s. */
    void getU32Array(std::span<uint32_t> out);
    void getBytes(uint8_t *out, size_t size);

    /** Length-prefixed string; the length is validated against the
     *  remaining buffer before the string is allocated. */
    std::string getString();

    /** True when every byte has been consumed. */
    bool exhausted() const { return cursor == source.size(); }

    /** Bytes left to consume (for length-field validation). */
    size_t remaining() const { return source.size() - cursor; }

  private:
    /** Bounds-check and consume @p size bytes; returns their start. */
    const uint8_t *take(size_t size);

    const std::vector<uint8_t> &source;
    size_t cursor = 0;
};

/**
 * A complete design-state capture: named sections plus capture
 * metadata (simulated time, trigger reason).
 */
class Snapshot
{
  public:
    /** Wire-format version written by serialize(). */
    static constexpr uint16_t formatVersion = 1;

    /** Add or replace a section. */
    void setSection(const std::string &name, std::vector<uint8_t> data);

    /** True if a section exists. */
    bool hasSection(const std::string &name) const;

    /** Retrieve a section; fatal() if missing. */
    const std::vector<uint8_t> &section(const std::string &name) const;

    void setTrigger(const std::string &reason) { triggerReason = reason; }
    const std::string &trigger() const { return triggerReason; }

    void setCaptureTime(double t) { captureTimeSec = t; }
    double captureTime() const { return captureTimeSec; }

    /** Serialize the whole snapshot to a flat byte image. */
    std::vector<uint8_t> serialize() const;

    /**
     * Rebuild a snapshot from a flat byte image.
     * Fatal on malformed input — use tryDeserialize() for images that
     * come from outside the process (checkpoint files).
     */
    static Snapshot deserialize(const std::vector<uint8_t> &image);

    /**
     * Non-fatal variant: returns std::nullopt on corrupt, truncated
     * or version-mismatched input and, when @p error is non-null,
     * stores a diagnostic there. Every length field is validated
     * against the remaining buffer before any allocation.
     */
    static std::optional<Snapshot>
    tryDeserialize(const std::vector<uint8_t> &image,
                   std::string *error = nullptr);

    /** Write/read the flat image to/from a file. */
    void saveFile(const std::string &path) const;
    static Snapshot loadFile(const std::string &path);

    /**
     * Non-fatal file write (periodic checkpoint path): I/O failures
     * — unwritable directory, disk full — return false with a
     * diagnostic instead of killing the campaign whose progress the
     * checkpoint exists to protect.
     */
    bool trySaveFile(const std::string &path,
                     std::string *error = nullptr) const;

    /**
     * Non-fatal file load (checkpoint/resume path): I/O errors and
     * malformed images return std::nullopt with a diagnostic.
     */
    static std::optional<Snapshot>
    tryLoadFile(const std::string &path, std::string *error = nullptr);

    size_t sectionCount() const { return sections.size(); }

  private:
    std::map<std::string, std::vector<uint8_t>> sections;
    std::string triggerReason;
    double captureTimeSec = 0.0;
};

} // namespace turbofuzz::soc

#endif // TURBOFUZZ_SOC_SNAPSHOT_HH
