#include "snapshot/snapshot.h"

#include <cstdio>

#include "common/strfmt.h"

namespace graphite
{
namespace snapshot
{
namespace
{

std::string
tagName(std::uint32_t tag)
{
    char s[5];
    for (int i = 0; i < 4; ++i) {
        char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
        s[i] = (c >= 0x20 && c < 0x7F) ? c : '?';
    }
    s[4] = '\0';
    return std::string(s);
}

/**
 * The magic and version words every snapshot starts with. Built whole,
 * so no insert into an empty buffer is inlined: GCC 12 reads that as a
 * write into a region of size 0 (-Wstringop-overflow).
 */
std::vector<std::uint8_t>
headerBytes()
{
    const std::uint32_t header[2] = {SNAPSHOT_MAGIC, FORMAT_VERSION};
    const auto* p = reinterpret_cast<const std::uint8_t*>(header);
    return std::vector<std::uint8_t>(p, p + sizeof header);
}

} // namespace

std::uint64_t
fnv1a(const std::uint8_t* data, std::size_t len)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

// ---------------------------------------------------------------- writer

SnapshotWriter::SnapshotWriter() : buf_(headerBytes())
{
}

void
SnapshotWriter::bytes(const void* data, std::size_t len)
{
    u64(static_cast<std::uint64_t>(len));
    raw(data, len);
}

std::vector<std::uint8_t>
SnapshotWriter::finish()
{
    if (finished_)
        throw SnapshotError("snapshot: finish() called twice");
    finished_ = true;
    std::uint64_t sum = fnv1a(buf_.data(), buf_.size());
    raw(&sum, sizeof sum);
    return std::move(buf_);
}

// ---------------------------------------------------------------- reader

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> data)
    : data_(std::move(data))
{
    // header (magic + version) + checksum trailer
    constexpr std::size_t MIN_SIZE = 4 + 4 + 8;
    if (data_.size() < MIN_SIZE)
        throw SnapshotError(
            strfmt("snapshot: truncated ({} bytes, need at least {})",
                   data_.size(), MIN_SIZE));

    payloadEnd_ = data_.size() - 8;
    std::uint64_t stored = 0;
    std::memcpy(&stored, data_.data() + payloadEnd_, sizeof stored);
    std::uint64_t computed = fnv1a(data_.data(), payloadEnd_);
    if (stored != computed)
        throw SnapshotError(
            strfmt("snapshot: checksum mismatch (stored {}, "
                   "computed {}) — file is corrupted or truncated",
                   stored, computed));

    std::uint32_t magic = u32();
    if (magic != SNAPSHOT_MAGIC)
        throw SnapshotError(
            strfmt("snapshot: bad magic {} (expected 'GRSN'); not a "
                   "snapshot file",
                   magic));
    version_ = u32();
    if (version_ != FORMAT_VERSION)
        throw SnapshotError(
            strfmt("snapshot: format version {} unsupported (this "
                   "build reads version {}); re-create the checkpoint",
                   version_, FORMAT_VERSION));
}

void
SnapshotReader::need(std::size_t n, const char* what) const
{
    if (payloadEnd_ - pos_ < n)
        throw SnapshotError(
            strfmt("snapshot: truncated reading {} at offset {} "
                   "(need {} bytes, {} left)",
                   what, pos_, n, payloadEnd_ - pos_));
}

void
SnapshotReader::raw(void* out, std::size_t len, const char* what)
{
    need(len, what);
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
}

std::uint8_t
SnapshotReader::u8()
{
    std::uint8_t v = 0;
    raw(&v, sizeof v, "u8");
    return v;
}

std::uint16_t
SnapshotReader::u16()
{
    std::uint16_t v = 0;
    raw(&v, sizeof v, "u16");
    return v;
}

std::uint32_t
SnapshotReader::u32()
{
    std::uint32_t v = 0;
    raw(&v, sizeof v, "u32");
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    std::uint64_t v = 0;
    raw(&v, sizeof v, "u64");
    return v;
}

std::int64_t
SnapshotReader::i64()
{
    std::int64_t v = 0;
    raw(&v, sizeof v, "i64");
    return v;
}

std::vector<std::uint8_t>
SnapshotReader::bytes()
{
    std::uint64_t len = u64();
    need(len, "byte run");
    std::vector<std::uint8_t> out(data_.begin() +
                                      static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() +
                                      static_cast<std::ptrdiff_t>(pos_ +
                                                                  len));
    pos_ += len;
    return out;
}

void
SnapshotReader::bytesInto(void* out, std::size_t expected_len)
{
    std::uint64_t len = u64();
    if (len != expected_len)
        throw SnapshotError(
            strfmt("snapshot: byte run length {} does not match the "
                   "expected {} at offset {}",
                   len, expected_len, pos_));
    raw(out, expected_len, "byte run");
}

std::size_t
SnapshotReader::checkCount(std::uint64_t count,
                           std::size_t element_bytes) const
{
    if (count > (payloadEnd_ - pos_) / element_bytes)
        throw SnapshotError(
            strfmt("snapshot: count {} at offset {} needs more than the "
                   "{} bytes left",
                   count, pos_, payloadEnd_ - pos_));
    return static_cast<std::size_t>(count);
}

std::string
SnapshotReader::str()
{
    std::vector<std::uint8_t> raw_bytes = bytes();
    return std::string(raw_bytes.begin(), raw_bytes.end());
}

void
SnapshotReader::expectSection(std::uint32_t tag, const char* name)
{
    std::uint32_t got = u32();
    if (got != tag)
        throw SnapshotError(
            strfmt("snapshot: expected section '{}' ({}) but found "
                   "'{}' — layout drift or corruption",
                   tagName(tag), name, tagName(got)));
}

void
SnapshotReader::expectEnd() const
{
    if (pos_ != payloadEnd_)
        throw SnapshotError(
            strfmt("snapshot: {} trailing bytes after the last section",
                   payloadEnd_ - pos_));
}

// --------------------------------------------------------------- archive

void
Archive::bytes(void* data, std::size_t len)
{
    if (reader_ != nullptr)
        reader_->bytesInto(data, len);
    else
        writer_->bytes(data, len);
}

void
Archive::bytes(std::vector<std::uint8_t>& v)
{
    if (reader_ != nullptr)
        v = reader_->bytes();
    else
        writer_->bytes(v.data(), v.size());
}

void
Archive::str(std::string& s)
{
    if (reader_ != nullptr)
        s = reader_->str();
    else
        writer_->str(s);
}

void
Archive::section(std::uint32_t tag, const char* name)
{
    if (reader_ != nullptr)
        reader_->expectSection(tag, name);
    else
        writer_->beginSection(tag);
}

void
Archive::expect(const std::string& configured, std::string_view what)
{
    std::string got = configured;
    str(got);
    if (got != configured)
        mismatch(what, "'" + got + "'", "'" + configured + "'");
}

void
Archive::mismatch(std::string_view what, const std::string& snapshot,
                  const std::string& configured)
{
    throw SnapshotError(
        strfmt("snapshot: {} mismatch (snapshot {}, configured {})", what,
               snapshot, configured));
}

// ------------------------------------------------------------------ file

void
writeFile(const std::string& path,
          const std::vector<std::uint8_t>& data)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw SnapshotError(
            strfmt("snapshot: cannot open '{}' for writing", path));
    std::size_t n = std::fwrite(data.data(), 1, data.size(), f);
    bool ok = n == data.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw SnapshotError(
            strfmt("snapshot: short write to '{}'", path));
}

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SnapshotError(
            strfmt("snapshot: cannot open '{}' for reading", path));
    std::vector<std::uint8_t> out;
    std::uint8_t chunk[65536];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        out.insert(out.end(), chunk, chunk + n);
    bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err)
        throw SnapshotError(strfmt("snapshot: read error on '{}'", path));
    return out;
}

} // namespace snapshot
} // namespace graphite
