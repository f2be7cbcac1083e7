/**
 * @file
 * Versioned binary snapshot stream: the serialization substrate for
 * checkpoint/restore (ROADMAP item 3, DESIGN.md "Snapshot format &
 * versioning").
 *
 * Layout of a snapshot blob:
 *
 *   u32 magic    "GRSN" (0x4E535247 little-endian)
 *   u32 version  FORMAT_VERSION at write time
 *   ...          sequential tagged sections (see beginSection)
 *   u64 checksum FNV-1a over every preceding byte (header included)
 *
 * The stream is strictly sequential — readers must consume sections in
 * the exact order writers emitted them; a section tag acts as a
 * checkpoint that converts "reader and writer disagree about layout"
 * into a named SnapshotError instead of silently misaligned integers.
 * All integers are little-endian fixed width. Containers are written
 * as a u64 count followed by the elements; unordered containers must
 * be emitted in sorted key order so that re-serializing restored state
 * is byte-identical to the original snapshot.
 *
 * Every failure mode (truncation, corruption, bad magic, version
 * mismatch, tag mismatch, trailing garbage) throws SnapshotError with
 * a message naming what was expected — restore never crashes on bad
 * input.
 *
 * Components do not call the writer and reader directly: each defines
 * its format once, in a serialize(Archive&) that the Archive runs in
 * either direction.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace graphite
{
namespace snapshot
{

/** Thrown on any malformed, truncated or incompatible snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** "GRSN" little-endian. */
inline constexpr std::uint32_t SNAPSHOT_MAGIC = 0x4E535247u;

/**
 * On-disk format version. Bump on ANY layout change — the golden
 * fixture test (tests/test_snapshot.cpp) fails when the layout drifts
 * without a bump.
 */
inline constexpr std::uint32_t FORMAT_VERSION = 3;

/** Build a four-character section tag, e.g. sectionTag("MEM "). */
constexpr std::uint32_t
sectionTag(const char (&s)[5])
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[1]))
               << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[2]))
               << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[3]))
               << 24;
}

/** FNV-1a 64-bit over a byte range (the checksum trailer). */
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len);

/**
 * Append-only snapshot serializer. Construct, write sections, then
 * finish() exactly once to seal the checksum trailer.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { raw(&v, sizeof v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i64(std::int64_t v) { raw(&v, sizeof v); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** Length-prefixed raw byte run. */
    void bytes(const void* data, std::size_t len);

    /** Length-prefixed UTF-8 string. */
    void str(const std::string& s) { bytes(s.data(), s.size()); }

    /** Mark the start of a named section. */
    void beginSection(std::uint32_t tag) { u32(tag); }

    /** Seal the stream with the checksum trailer and return it. */
    std::vector<std::uint8_t> finish();

  private:
    void raw(const void* data, std::size_t len)
    {
        const auto* p = static_cast<const std::uint8_t*>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    std::vector<std::uint8_t> buf_;
    bool finished_ = false;
};

/**
 * Sequential snapshot deserializer. The constructor validates magic,
 * version and checksum up front, so a reader that gets past
 * construction is working on an intact stream of the right version.
 */
class SnapshotReader
{
  public:
    /**
     * @throws SnapshotError on short input, bad magic, version
     *         mismatch, or checksum failure.
     */
    explicit SnapshotReader(std::vector<std::uint8_t> data);

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    bool b() { return u8() != 0; }

    /** Read a length-prefixed byte run written by bytes(). */
    std::vector<std::uint8_t> bytes();

    /** Read a length-prefixed byte run into @p out (size must match). */
    void bytesInto(void* out, std::size_t expected_len);

    /**
     * @return @p count, once the rest of the stream can hold that many
     * elements of @p element_bytes each; a damaged count throws here
     * instead of sizing an allocation.
     */
    std::size_t checkCount(std::uint64_t count, std::size_t element_bytes)
        const;

    std::string str();

    /**
     * Consume a section tag; @p name labels the SnapshotError when the
     * stream holds a different tag (layout drift or corruption).
     */
    void expectSection(std::uint32_t tag, const char* name);

    /** Assert the payload is fully consumed (no trailing garbage). */
    void expectEnd() const;

    /** Stream format version (always FORMAT_VERSION today). */
    std::uint32_t version() const { return version_; }

  private:
    void need(std::size_t n, const char* what) const;
    void raw(void* out, std::size_t len, const char* what);

    std::vector<std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::size_t payloadEnd_ = 0; ///< offset of the checksum trailer
    std::uint32_t version_ = 0;
};

/**
 * One serialization body for both directions. An Archive wraps a
 * SnapshotWriter (save) or a SnapshotReader (restore) and moves each
 * field in that direction, so the same calls that write a component's
 * fields on save read them back on restore, and a format cannot drift
 * between its writer and its reader. A step that only a restore takes
 * sits in a short `if (ar.loading())` tail.
 */
class Archive
{
  public:
    explicit Archive(SnapshotWriter& w) : writer_(&w) {}
    explicit Archive(SnapshotReader& r) : reader_(&r) {}

    /** True on restore, when every field is read into its reference. */
    bool loading() const { return reader_ != nullptr; }

    /**
     * @name Fields
     * Any integer or enum, or a relaxed atomic of one, at the named
     * wire width.
     * @{
     */
    template <class T> void u8(T& v) { field<std::uint8_t>(v); }
    template <class T> void u32(T& v) { field<std::uint32_t>(v); }
    template <class T> void u64(T& v) { field<std::uint64_t>(v); }
    template <class T> void i64(T& v) { field<std::int64_t>(v); }
    void b(bool& v) { field<std::uint8_t>(v); }
    /** @} */

    /** A length-prefixed run of exactly @p len bytes at @p data. */
    void bytes(void* data, std::size_t len);

    /** A length-prefixed byte run of any length. */
    void bytes(std::vector<std::uint8_t>& v);

    /** A length-prefixed string. */
    void str(std::string& s);

    /** A section tag; a restore names @p name if the stream differs. */
    void section(std::uint32_t tag, const char* name);

    /**
     * A value the configuration fixes, at wire width W. A save writes
     * @p configured; a restore throws SnapshotError "snapshot: <what>
     * mismatch (snapshot X, configured Y)" when the stream differs.
     */
    template <class W = std::uint64_t, class T>
    void
    expect(const T& configured, std::string_view what)
    {
        const W want = static_cast<W>(configured);
        W got = want;
        field<W>(got);
        if (got != want)
            mismatch(what, std::to_string(got), std::to_string(want));
    }
    void expect(const std::string& configured, std::string_view what);

    /**
     * A keyed container: a u64 count, then every entry in ascending key
     * order through @p each(key, value), or @p each(key) for a set,
     * which moves the key too. A restore clears @p c and inserts every
     * entry it reads.
     */
    template <class C, class Fn>
    void
    sorted(C& c, Fn each)
    {
        using Key = typename C::key_type;
        constexpr bool is_map = requires { typename C::mapped_type; };
        std::uint64_t n = c.size();
        u64(n);
        if (loading()) {
            c.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                Key key{};
                if constexpr (is_map) {
                    typename C::mapped_type value{};
                    each(key, value);
                    c.emplace(std::move(key), std::move(value));
                } else {
                    each(key);
                    c.insert(std::move(key));
                }
            }
        } else if constexpr (is_map) {
            std::vector<typename C::value_type*> entries;
            entries.reserve(c.size());
            for (auto& e : c)
                entries.push_back(&e);
            std::sort(entries.begin(), entries.end(),
                      [](auto* a, auto* b) { return a->first < b->first; });
            for (auto* e : entries) {
                Key key = e->first;
                each(key, e->second);
            }
        } else {
            std::vector<Key> keys(c.begin(), c.end());
            std::sort(keys.begin(), keys.end());
            for (Key& key : keys)
                each(key);
        }
    }

    /** A vector: a u64 count, then every element at wire width W. */
    template <class W, class T>
    void
    seq(std::vector<T>& v)
    {
        std::uint64_t n = v.size();
        u64(n);
        if (loading())
            v.resize(reader_->checkCount(n, sizeof(W)));
        for (T& x : v)
            field<W>(x);
    }

  private:
    template <class W, class T>
    void
    field(T& v)
    {
        if (reader_ != nullptr)
            v = static_cast<T>(read<W>());
        else
            write(static_cast<W>(v));
    }

    template <class W, class T>
    void
    field(std::atomic<T>& v)
    {
        if (reader_ != nullptr)
            v.store(static_cast<T>(read<W>()), std::memory_order_relaxed);
        else
            write(static_cast<W>(v.load(std::memory_order_relaxed)));
    }

    template <class W>
    W
    read()
    {
        if constexpr (std::is_same_v<W, std::uint8_t>)
            return reader_->u8();
        else if constexpr (std::is_same_v<W, std::uint32_t>)
            return reader_->u32();
        else if constexpr (std::is_same_v<W, std::uint64_t>)
            return reader_->u64();
        else
            return reader_->i64();
    }

    void write(std::uint8_t v) { writer_->u8(v); }
    void write(std::uint32_t v) { writer_->u32(v); }
    void write(std::uint64_t v) { writer_->u64(v); }
    void write(std::int64_t v) { writer_->i64(v); }

    [[noreturn]] static void mismatch(std::string_view what,
                                      const std::string& snapshot,
                                      const std::string& configured);

    SnapshotWriter* writer_ = nullptr;
    SnapshotReader* reader_ = nullptr;
};

/** Write a sealed snapshot blob to @p path. @throws SnapshotError */
void writeFile(const std::string& path,
               const std::vector<std::uint8_t>& data);

/** Read a whole file into memory. @throws SnapshotError */
std::vector<std::uint8_t> readFile(const std::string& path);

} // namespace snapshot
} // namespace graphite
