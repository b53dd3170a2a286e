#include "serial/record_io.hh"

#include <cstdio>
#include <cstring>

#ifdef __unix__
#include <unistd.h>
#endif

#include "serve/fault.hh"
#include "util/logging.hh"

namespace mixq {

namespace {

constexpr size_t kMagicLen = 8;
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// Header: magic | u32 version | u64 count | u64 checksum. Count and
// checksum are patched at close, so their offsets are fixed.
constexpr long kCountOfs = long(kMagicLen) + 4;
constexpr long kChecksumOfs = kCountOfs + 8;

uint64_t
fnv1a(uint64_t h, const void* data, size_t n)
{
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

size_t
dtypeSize(RecDType t)
{
    switch (t) {
    case RecDType::F32:
        return 4;
    case RecDType::F64:
        return 8;
    case RecDType::U8:
        return 1;
    }
    panic("record: unknown dtype");
}

/** Payload bytes of a @p shape record of @p dtype into @p bytes;
    false when the product overflows size_t (a crafted shape could
    otherwise wrap to a small size that matches its payload). */
bool
shapeBytes(std::span<const uint64_t> shape, RecDType dtype,
           size_t& bytes)
{
    bytes = dtypeSize(dtype);
    for (uint64_t d : shape)
        if (__builtin_mul_overflow(bytes, d, &bytes))
            return false;
    return true;
}

} // namespace

const char*
loadStatusName(LoadStatus s)
{
    switch (s) {
    case LoadStatus::Ok:
        return "ok";
    case LoadStatus::OpenFailed:
        return "open-failed";
    case LoadStatus::Foreign:
        return "foreign";
    case LoadStatus::VersionMismatch:
        return "version-mismatch";
    case LoadStatus::Truncated:
        return "truncated";
    case LoadStatus::ChecksumMismatch:
        return "checksum-mismatch";
    case LoadStatus::Corrupt:
        return "corrupt";
    case LoadStatus::Mismatch:
        return "mismatch";
    case LoadStatus::WriteFailed:
        return "write-failed";
    case LoadStatus::Unavailable:
        return "unavailable";
    }
    panic("record: unknown load status");
}

size_t
Record::elems() const
{
    size_t n = 1;
    for (uint64_t d : shape)
        n *= size_t(d);
    return n;
}

std::span<const float>
Record::f32() const
{
    MIXQ_ASSERT(dtype == RecDType::F32, "record is not f32");
    return {reinterpret_cast<const float*>(bytes.data()),
            bytes.size() / 4};
}

std::span<const double>
Record::f64() const
{
    MIXQ_ASSERT(dtype == RecDType::F64, "record is not f64");
    return {reinterpret_cast<const double*>(bytes.data()),
            bytes.size() / 8};
}

// ---------------------------------------------------------- RecordWriter

RecordWriter::RecordWriter(const std::string& path, const char* magic,
                           uint32_t version)
    : path_(path), tmpPath_(path + ".tmp"), checksum_(kFnvOffset)
{
    MIXQ_ASSERT(std::strlen(magic) == kMagicLen,
                "record magic must be 8 bytes");
    // Stream into a sibling temp file; close() renames it onto the
    // final path. A same-directory temp keeps the rename atomic
    // (same filesystem) and means a crash leaves the old artifact —
    // if any — untouched at the final path.
    f_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!f_)
        fatal("cannot open " + tmpPath_ + " for writing");
    if (std::fwrite(magic, 1, kMagicLen, f_) != kMagicLen)
        fatal("write failed on " + tmpPath_);
    uint32_t v = version;
    uint64_t zero = 0;
    put(&v, sizeof(v));
    put(&zero, sizeof(zero)); // record count, patched in close()
    put(&zero, sizeof(zero)); // checksum, patched in close()
}

RecordWriter::~RecordWriter()
{
    abandon();
}

void
RecordWriter::put(const void* data, size_t n)
{
    if (std::fwrite(data, 1, n, f_) != n)
        fatal("write failed on " + tmpPath_);
}

void
RecordWriter::add(const std::string& name, RecDType dtype,
                  std::span<const uint64_t> shape, const void* data,
                  size_t dataBytes)
{
    MIXQ_ASSERT(f_ != nullptr, "record writer already closed");
    faultOnRecordWrite(count_);
    size_t expected = 0;
    MIXQ_ASSERT(shapeBytes(shape, dtype, expected) &&
                    dataBytes == expected,
                "record payload does not match its shape");

    // The checksum covers the record region byte for byte, in file
    // order — any truncation or flip after the header breaks it.
    auto emit = [&](const void* p, size_t n) {
        checksum_ = fnv1a(checksum_, p, n);
        put(p, n);
    };
    uint32_t nameLen = uint32_t(name.size());
    uint8_t dt = uint8_t(dtype);
    uint8_t rank = uint8_t(shape.size());
    uint64_t payload = dataBytes;
    emit(&nameLen, sizeof(nameLen));
    emit(name.data(), name.size());
    emit(&dt, sizeof(dt));
    emit(&rank, sizeof(rank));
    for (uint64_t d : shape)
        emit(&d, sizeof(d));
    emit(&payload, sizeof(payload));
    emit(data, dataBytes);
    ++count_;
}

void
RecordWriter::addF32(const std::string& name,
                     std::span<const uint64_t> shape,
                     std::span<const float> v)
{
    add(name, RecDType::F32, shape, v.data(), v.size_bytes());
}

void
RecordWriter::addF64(const std::string& name,
                     std::span<const uint64_t> shape,
                     std::span<const double> v)
{
    add(name, RecDType::F64, shape, v.data(), v.size_bytes());
}

void
RecordWriter::addU8(const std::string& name,
                    std::span<const uint64_t> shape,
                    std::span<const uint8_t> v)
{
    add(name, RecDType::U8, shape, v.data(), v.size_bytes());
}

void
RecordWriter::close()
{
    if (!f_)
        return;
    if (std::fseek(f_, kCountOfs, SEEK_SET) != 0)
        fatal("seek failed on " + tmpPath_);
    put(&count_, sizeof(count_));
    put(&checksum_, sizeof(checksum_));
    // Commit point: everything the rename publishes must be durable
    // first, or a crash after the rename could still expose a torn
    // file through the final path.
    if (std::fflush(f_) != 0)
        fatal("flush failed on " + tmpPath_);
#ifdef __unix__
    ::fsync(::fileno(f_));
#endif
    if (std::fclose(f_) != 0)
        fatal("close failed on " + tmpPath_);
    f_ = nullptr;
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0)
        fatal("cannot rename " + tmpPath_ + " to " + path_);
}

void
RecordWriter::abandon()
{
    if (!f_)
        return;
    std::fclose(f_);
    f_ = nullptr;
    std::remove(tmpPath_.c_str());
}

// ------------------------------------------------------------ RecordFile

RecordFile::RecordFile(const std::string& path, const char* magic,
                       uint32_t version, const std::string& kind)
{
    try {
        parse(path, magic, version, kind);
    } catch (const RecordLoadError& e) {
        fatal(e.what());
    }
}

std::unique_ptr<RecordFile>
RecordFile::tryOpen(const std::string& path, const char* magic,
                    uint32_t version, const std::string& kind,
                    LoadResult& err)
{
    std::unique_ptr<RecordFile> rf(new RecordFile());
    try {
        rf->parse(path, magic, version, kind);
    } catch (const RecordLoadError& e) {
        err = {e.status(), e.what()};
        return nullptr;
    }
    err = {};
    return rf;
}

void
RecordFile::parse(const std::string& path, const char* magic,
                  uint32_t version, const std::string& kind)
{
    MIXQ_ASSERT(std::strlen(magic) == kMagicLen,
                "record magic must be 8 bytes");
    path_ = path;
    recs_.clear();

    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw RecordLoadError(LoadStatus::OpenFailed,
                              "cannot open " + path);
    // A stream that cannot seek (a pipe) reports -1: an open failure,
    // never a size.
    long fsize = -1;
    if (std::fseek(f, 0, SEEK_END) == 0)
        fsize = std::ftell(f);
    if (fsize < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
        std::fclose(f);
        throw RecordLoadError(LoadStatus::OpenFailed,
                              "cannot size " + path);
    }
    std::vector<uint8_t> buf;
    buf.resize(size_t(fsize));
    if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
        std::fclose(f);
        throw RecordLoadError(LoadStatus::OpenFailed,
                              "read failed on " + path);
    }
    std::fclose(f);
    faultOnRecordFileRead(buf);

    if (buf.size() < kMagicLen + 4 + 8 + 8 ||
        std::memcmp(buf.data(), magic, kMagicLen) != 0)
        throw RecordLoadError(LoadStatus::Foreign,
                              path + " is not a mixq " + kind + " file");
    uint32_t v;
    std::memcpy(&v, buf.data() + kMagicLen, 4);
    if (v != version)
        throw RecordLoadError(
            LoadStatus::VersionMismatch,
            path + ": unsupported " + kind + " format version " +
                std::to_string(v) + " (this build reads version " +
                std::to_string(version) + ")");
    uint64_t count, checksum;
    std::memcpy(&count, buf.data() + kCountOfs, 8);
    std::memcpy(&checksum, buf.data() + kChecksumOfs, 8);

    // Parse before checksumming: a cut-off file then reports
    // "truncated" (the record walk runs out of bytes) while a
    // bit-flip in a structurally intact file reports "checksum
    // mismatch" below.
    size_t pos = size_t(kChecksumOfs) + 8;
    const size_t regionStart = pos;

    auto need = [&](size_t n) {
        if (buf.size() - pos < n)
            throw RecordLoadError(LoadStatus::Truncated,
                                  path + ": truncated " + kind +
                                      " file");
    };
    for (uint64_t r = 0; r < count; ++r) {
        Record rec;
        need(4);
        uint32_t nameLen;
        std::memcpy(&nameLen, buf.data() + pos, 4);
        pos += 4;
        need(nameLen);
        rec.name.assign(reinterpret_cast<const char*>(buf.data() + pos),
                        nameLen);
        pos += nameLen;
        need(2);
        uint8_t dt = buf[pos++];
        uint8_t rank = buf[pos++];
        if (dt > uint8_t(RecDType::U8))
            throw RecordLoadError(LoadStatus::Corrupt,
                                  path + ": unknown record dtype — the " +
                                      kind + " file is corrupted");
        rec.dtype = RecDType(dt);
        need(size_t(rank) * 8);
        rec.shape.resize(rank);
        std::memcpy(rec.shape.data(), buf.data() + pos,
                    size_t(rank) * 8);
        pos += size_t(rank) * 8;
        need(8);
        uint64_t payload;
        std::memcpy(&payload, buf.data() + pos, 8);
        pos += 8;
        size_t expected = 0;
        if (!shapeBytes(rec.shape, rec.dtype, expected) ||
            payload != expected)
            throw RecordLoadError(
                LoadStatus::Corrupt,
                path + ": record payload does not match its shape — "
                       "the " +
                    kind + " file is corrupted");
        need(size_t(payload));
        rec.bytes.assign(buf.data() + pos, buf.data() + pos + payload);
        pos += size_t(payload);
        recs_.push_back(std::move(rec));
    }
    if (pos != buf.size())
        throw RecordLoadError(LoadStatus::Corrupt,
                              path +
                                  ": trailing bytes after the last "
                                  "record — the " +
                                  kind + " file is corrupted");

    uint64_t h = fnv1a(kFnvOffset, buf.data() + regionStart,
                       buf.size() - regionStart);
    if (h != checksum)
        throw RecordLoadError(LoadStatus::ChecksumMismatch,
                              path + ": checksum mismatch — the " +
                                  kind + " file is corrupted");
}

const Record*
RecordFile::find(const std::string& name) const
{
    for (const Record& r : recs_)
        if (r.name == name)
            return &r;
    return nullptr;
}

const Record&
RecordFile::require(const std::string& name) const
{
    const Record* r = find(name);
    if (!r)
        throw RecordLoadError(LoadStatus::Mismatch,
                              path_ + ": missing record \"" + name +
                                  "\" — the file does not match this "
                                  "model");
    return *r;
}

} // namespace mixq
