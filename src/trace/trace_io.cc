#include "trace/trace_io.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace bpsim {

namespace {

constexpr char magic[8] = {'B', 'P', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t version = 3;
/** magic, version, reserved (0), op count. */
constexpr std::size_t headerBytes = 24;
/** v3 sections sit at multiples of this (cache-line) alignment. */
constexpr std::size_t v3Align = 64;
/** v3 checksum granularity: one blockHash64 per 64 KiB block. */
constexpr std::size_t v3BlockBytes = 64 * 1024;
/** v3 section count: branchPc, branchTaken, opMeta, opPcDelta,
 *  opExtraDelta, blockSums. */
constexpr std::size_t v3NumSections = 6;
/** v3 directory: branchCount + section table + checksum. */
constexpr std::size_t v3DirOffset = headerBytes;
constexpr std::size_t v3DirPayloadBytes = 8 + v3NumSections * 16;
constexpr std::size_t v3DirEnd =
    v3DirOffset + v3DirPayloadBytes + 8;

constexpr std::size_t
alignUp(std::size_t v, std::size_t a)
{
    return (v + a - 1) / a * a;
}

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * Close a stream opened for writing, throwing when the final flush
 * or the close fails: a write error that surfaces only there (disk
 * full, I/O error) must not pass for a complete file, or the trace
 * cache would publish the truncated temp file as a good entry.
 */
void
closeWritten(FilePtr &f, const std::string &path)
{
    if (std::fclose(f.release()) != 0)
        throw TraceIoError("cannot flush '" + path + "'");
}

// Little-endian field access. memcpy plus a byte swap only on
// big-endian hosts, so each load or store compiles to one
// instruction: a byte-at-a-time loop is not always merged back into
// a word load, and blockHash64 lives on these.

template <class T>
T
fromLittle(T v)
{
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 8)
            return __builtin_bswap64(v);
        else
            return __builtin_bswap32(v);
    }
    return v;
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    v = fromLittle(v);
    std::memcpy(p, &v, 4);
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    v = fromLittle(v);
    std::memcpy(p, &v, 8);
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return fromLittle(v);
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return fromLittle(v);
}

std::uint64_t
fnv1a64(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

std::uint64_t
blockHash64(const std::uint8_t *p, std::size_t n)
{
    constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ull;
    constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4Full;
    const auto round = [](std::uint64_t h, std::uint64_t w) {
        h ^= w * k1;
        return (h << 27 | h >> 37) * k2;
    };
    // Four named lanes, not an array, and words read by getU64's
    // memcpy: GCC keeps the lanes in registers and issues one 8-byte
    // load per word. An array of lanes fed byte-assembled words kept
    // it from merging the loads (BM_BlockHash64 times both).
    std::uint64_t h0 = 0x736F6D6570736575ull ^ n;
    std::uint64_t h1 = 0x646F72616E646F6Dull;
    std::uint64_t h2 = 0x6C7967656E657261ull;
    std::uint64_t h3 = 0x7465646279746573ull;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        h0 = round(h0, getU64(p + i));
        h1 = round(h1, getU64(p + i + 8));
        h2 = round(h2, getU64(p + i + 16));
        h3 = round(h3, getU64(p + i + 24));
    }
    if (i < n) {
        std::uint8_t tail[32] = {};
        std::memcpy(tail, p + i, n - i);
        h0 = round(h0, getU64(tail));
        h1 = round(h1, getU64(tail + 8));
        h2 = round(h2, getU64(tail + 16));
        h3 = round(h3, getU64(tail + 24));
    }
    std::uint64_t r = (h0 ^ h1) * k1 ^ (h2 ^ h3) * k2;
    r ^= r >> 29;
    r *= k1;
    r ^= r >> 32;
    return r;
}

namespace {

/** Signed delta -> small unsigned value (zigzag). */
std::uint64_t
zigzag(std::uint64_t delta)
{
    const std::int64_t s = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

/** Bytes putVarint spends on @p v: ceil(bits / 7), computed as
 *  (9 * bits + 64) / 64, which is exact for 1..64 bits and cheaper
 *  than the division in the sizing pass. */
std::size_t
varintBytes(std::uint64_t v)
{
    return (static_cast<std::size_t>(std::bit_width(v | 1)) * 9 + 64) /
           64;
}

/** LEB128-encode @p v into a buffer sized by varintBytes; returns
 *  the byte past the encoding. */
std::uint8_t *
putVarint(std::uint8_t *out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *out++ = static_cast<std::uint8_t>(v);
    return out;
}

/** Strict LEB128 decode: advances @p pos, throws on truncation or a
 *  varint running past the 10-byte limit of a 64-bit value. */
std::uint64_t
getVarint(const std::uint8_t *p, std::size_t size, std::size_t &pos,
          const std::string &path)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (pos >= size)
            throw TraceIoError("truncated varint in '" + path + "'");
        const std::uint8_t b = p[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throw TraceIoError("oversized varint in '" + path + "'");
}

/** An open file descriptor, closed on scope exit. */
struct Fd
{
    explicit Fd(const std::string &path)
        : fd(::open(path.c_str(), O_RDONLY))
    {
        if (fd < 0)
            throw TraceIoError("cannot open '" + path +
                               "' for reading");
    }
    ~Fd() { ::close(fd); }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    /** pread @p n bytes at @p offset; throws on error or early EOF. */
    void
    readAt(std::uint8_t *dst, std::size_t n, std::size_t offset,
           const std::string &path) const
    {
        for (std::size_t done = 0; done < n;) {
            const ssize_t got =
                ::pread(fd, dst + done, n - done,
                        static_cast<off_t>(offset + done));
            if (got <= 0)
                throw TraceIoError("cannot read '" + path + "'");
            done += static_cast<std::size_t>(got);
        }
    }

    const int fd;
};

/**
 * Read-only bytes of a whole trace file in an owned 8-byte-aligned
 * buffer, so the branch pc column can be served in place. Never
 * memory-mapped: a mapping's pages track the inode, so another
 * process truncating the file in place (a racing writer in a shared
 * trace-cache directory) would turn a later access into SIGBUS,
 * where a read turns it into a short read and a clean TraceIoError.
 * Immutable after read(), so shareable across threads.
 */
class FileBytes
{
  public:
    /**
     * Read @p path whole. The 24-byte header is read and checked
     * first (magic, version, reserved field), so a foreign or
     * old-format file is rejected before a buffer the size of the
     * file is allocated.
     */
    static std::shared_ptr<const FileBytes>
    read(const std::string &path)
    {
        const Fd fd(path);
        struct stat st;
        if (::fstat(fd.fd, &st) != 0 || st.st_size < 0)
            throw TraceIoError("cannot stat '" + path + "'");
        const auto size = static_cast<std::size_t>(st.st_size);

        std::uint8_t header[headerBytes];
        if (size < headerBytes)
            throw TraceIoError("truncated header in '" + path + "'");
        fd.readAt(header, headerBytes, 0, path);
        if (std::memcmp(header, magic, 8) != 0)
            throw TraceIoError("'" + path + "' is not a bpsim trace");
        if (const std::uint32_t v = getU32(header + 8); v != version)
            throw TraceIoError("unsupported trace version " +
                               std::to_string(v) + " in '" + path +
                               "' (this build reads version " +
                               std::to_string(version) + " only)");
        if (getU32(header + 12) != 0)
            throw TraceIoError("corrupt header in '" + path + "'");

        // Left uninitialized: the header copy and readAt fill every
        // byte or throw.
        auto fb = std::make_shared<FileBytes>();
        fb->bytes_ = std::make_unique_for_overwrite<std::uint64_t[]>(
            (size + 7) / 8);
        fb->size_ = size;
        auto *dst = reinterpret_cast<std::uint8_t *>(fb->bytes_.get());
        std::memcpy(dst, header, headerBytes);
        fd.readAt(dst + headerBytes, size - headerBytes, headerBytes,
                  path);
        return fb;
    }

    const std::uint8_t *
    data() const
    {
        return reinterpret_cast<const std::uint8_t *>(bytes_.get());
    }
    std::size_t size() const { return size_; }

  private:
    std::unique_ptr<std::uint64_t[]> bytes_;
    std::size_t size_ = 0;
};

/** Pack one op's non-delta fields into its 4 meta bytes. */
void
packOpMeta(const MicroOp &op, std::uint8_t out[4])
{
    const auto cls = static_cast<std::uint8_t>(op.cls);
    const std::uint8_t srcA = op.srcA & 0x3f;
    const std::uint8_t srcB = op.srcB & 0x7f;
    out[0] = static_cast<std::uint8_t>((cls & 0x07) |
                                       (op.taken ? 0x08 : 0) |
                                       ((op.dst & 0x0f) << 4));
    out[1] = static_cast<std::uint8_t>(((op.dst >> 4) & 0x0f) |
                                       ((srcA & 0x0f) << 4));
    out[2] = static_cast<std::uint8_t>(((srcA >> 4) & 0x03) |
                                       ((srcB & 0x3f) << 2));
    out[3] = static_cast<std::uint8_t>((srcB >> 6) & 0x01);
}

/** Unpack 4 meta bytes; throws on non-canonical spare bits. */
MicroOp
unpackOpMeta(const std::uint8_t *b, const std::string &path)
{
    MicroOp op;
    const std::uint8_t cls = b[0] & 0x07;
    if (cls > static_cast<std::uint8_t>(InstClass::UncondBranch) ||
        (b[3] & 0xfe) != 0)
        throw TraceIoError("corrupt record in '" + path + "'");
    op.cls = static_cast<InstClass>(cls);
    op.taken = (b[0] >> 3) & 1;
    op.dst = static_cast<std::uint8_t>((b[0] >> 4) |
                                       ((b[1] & 0x0f) << 4));
    op.srcA =
        static_cast<std::uint8_t>((b[1] >> 4) | ((b[2] & 0x03) << 4));
    op.srcB = static_cast<std::uint8_t>(((b[2] >> 2) & 0x3f) |
                                        ((b[3] & 0x01) << 6));
    return op;
}

/** One v3 section: resolved location inside the file bytes. */
struct V3Section
{
    std::size_t offset = 0;
    std::size_t size = 0;
};

/** v3 backing: serves branch columns in place and decodes the op
 *  stream on demand (TraceBuffer materialization). */
class V3Backing final : public TraceBacking
{
  public:
    V3Backing(std::shared_ptr<const FileBytes> bytes,
              std::string path, std::size_t op_count,
              std::size_t branch_count,
              const V3Section (&sec)[v3NumSections])
        : bytes_(std::move(bytes)),
          path_(std::move(path)),
          opCount_(op_count),
          branchCount_(branch_count)
    {
        for (std::size_t i = 0; i < v3NumSections; ++i)
            sec_[i] = sec[i];
    }

    const Addr *
    branchPc() const override
    {
        return reinterpret_cast<const Addr *>(bytes_->data() +
                                              sec_[0].offset);
    }
    const std::uint8_t *
    branchTaken() const override
    {
        return bytes_->data() + sec_[1].offset;
    }
    std::size_t branchCount() const override { return branchCount_; }
    std::size_t opCount() const override { return opCount_; }

    std::vector<MicroOp>
    decodeOps() const override
    {
        std::vector<MicroOp> ops;
        ops.reserve(opCount_);
        const std::uint8_t *meta = bytes_->data() + sec_[2].offset;
        const std::uint8_t *pcs = bytes_->data() + sec_[3].offset;
        const std::uint8_t *extras = bytes_->data() + sec_[4].offset;
        std::size_t pcPos = 0, extraPos = 0;
        std::uint64_t prevPc = 0;
        std::uint64_t prevExtra[6] = {};
        for (std::size_t r = 0; r < opCount_; ++r) {
            MicroOp op = unpackOpMeta(meta + 4 * r, path_);
            const auto cls = static_cast<std::uint8_t>(op.cls);
            op.pc = prevPc + unzigzag(getVarint(pcs, sec_[3].size,
                                                pcPos, path_));
            op.extra =
                prevExtra[cls] +
                unzigzag(getVarint(extras, sec_[4].size, extraPos,
                                   path_));
            prevPc = op.pc;
            prevExtra[cls] = op.extra;
            ops.push_back(op);
        }
        if (pcPos != sec_[3].size || extraPos != sec_[4].size)
            throw TraceIoError("trailing garbage in '" + path_ +
                               "'");
        return ops;
    }

  private:
    std::shared_ptr<const FileBytes> bytes_;
    std::string path_;
    std::size_t opCount_;
    std::size_t branchCount_;
    V3Section sec_[v3NumSections];
};

} // namespace

TraceBuffer
readTrace(const std::string &path)
{
    auto bytes = FileBytes::read(path);
    const std::uint8_t *p = bytes->data();
    const std::size_t fileSize = bytes->size();
    if (fileSize < v3DirEnd)
        throw TraceIoError("truncated header in '" + path + "'");
    const std::uint64_t count64 = getU64(p + 16);

    // Directory: checksummed, then cross-checked structurally — the
    // section layout is fully determined by (count, branchCount), so
    // recompute it and demand an exact match, padding included. Any
    // cut or flip lands in a validated field, a checksummed block or
    // a zero-checked pad.
    if (getU64(p + v3DirOffset + v3DirPayloadBytes) !=
        fnv1a64(p + v3DirOffset, v3DirPayloadBytes))
        throw TraceIoError("checksum mismatch in '" + path + "'");
    const std::uint64_t branchCount64 = getU64(p + v3DirOffset);
    if (count64 > fileSize / 4 || branchCount64 > fileSize / 8 ||
        branchCount64 > count64)
        throw TraceIoError("record count in '" + path +
                           "' exceeds file size (corrupt header?)");
    const auto count = static_cast<std::size_t>(count64);
    const auto branchCount = static_cast<std::size_t>(branchCount64);

    V3Section sec[v3NumSections];
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        sec[i].offset = static_cast<std::size_t>(
            getU64(p + v3DirOffset + 8 + 16 * i));
        sec[i].size = static_cast<std::size_t>(
            getU64(p + v3DirOffset + 8 + 16 * i + 8));
    }
    if (sec[0].size != branchCount * 8 ||
        sec[1].size != branchCount || sec[2].size != count * 4)
        throw TraceIoError("corrupt section table in '" + path +
                           "'");
    for (std::size_t i = 3; i <= 4; ++i) {
        if (count == 0 ? sec[i].size != 0 : sec[i].size < count)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
        if (sec[i].size > fileSize)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
    }
    std::size_t blocks = 0;
    for (std::size_t i = 0; i < 5; ++i)
        blocks += (sec[i].size + v3BlockBytes - 1) / v3BlockBytes;
    if (sec[5].size != blocks * 8)
        throw TraceIoError("corrupt section table in '" + path +
                           "'");
    std::size_t cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        const std::size_t expect = alignUp(cursor, v3Align);
        // expect > fileSize first: the padding below is read up to
        // expect, and fileSize - expect must not wrap.
        if (sec[i].offset != expect || expect > fileSize ||
            sec[i].size > fileSize - expect)
            throw TraceIoError("corrupt section table in '" + path +
                               "'");
        // Canonical padding: the bytes between sections are zero.
        for (std::size_t b = cursor; b < expect; ++b)
            if (p[b] != 0)
                throw TraceIoError("corrupt padding in '" + path +
                                   "'");
        cursor = expect + sec[i].size;
    }
    if (cursor != fileSize)
        throw TraceIoError("truncated records in '" + path + "'");

    // Per-block payload checksums.
    const std::uint8_t *sums = p + sec[5].offset;
    std::size_t sumIdx = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t pos = 0; pos < sec[i].size;
             pos += v3BlockBytes, ++sumIdx) {
            const std::size_t n =
                std::min(v3BlockBytes, sec[i].size - pos);
            if (blockHash64(p + sec[i].offset + pos, n) !=
                getU64(sums + 8 * sumIdx))
                throw TraceIoError("checksum mismatch in '" + path +
                                   "'");
        }
    }

    // The taken column feeds bool comparisons; only 0/1 are
    // canonical.
    const std::uint8_t *taken = p + sec[1].offset;
    for (std::size_t i = 0; i < branchCount; ++i)
        if (taken[i] > 1)
            throw TraceIoError("corrupt record in '" + path + "'");

    auto backing = std::make_shared<const V3Backing>(
        bytes, path, count, branchCount, sec);
    TraceBuffer trace;
    if constexpr (std::endian::native == std::endian::little) {
        trace.adoptBacking(std::move(backing));
    } else {
        // Big-endian host: the raw u64 pc column cannot be served in
        // place; decode everything eagerly instead.
        trace.reserve(count);
        for (const MicroOp &op : backing->decodeOps())
            trace.push(op);
    }
    return trace;
}

void
writeTraceV3(const TraceBuffer &trace, const std::string &path)
{
    // Size every section exactly first, so the (deterministic,
    // canonical) file image is allocated once; then encode all five
    // data sections straight into their final offsets in one pass,
    // hash the blocks in place and write the image in one go.
    const auto first = trace.begin();
    const auto last = trace.end();
    std::size_t branches = 0;
    std::size_t pcBytes = 0;
    std::size_t extraBytes = 0;
    {
        std::uint64_t prevPc = 0;
        std::uint64_t prevExtra[6] = {};
        for (auto it = first; it != last; ++it) {
            const auto cls = static_cast<std::uint8_t>(it->cls);
            pcBytes += varintBytes(zigzag(it->pc - prevPc));
            extraBytes += varintBytes(zigzag(it->extra - prevExtra[cls]));
            prevPc = it->pc;
            prevExtra[cls] = it->extra;
            branches += it->cls == InstClass::CondBranch;
        }
    }

    std::size_t sizes[v3NumSections] = {
        8 * branches, branches, 4 * trace.size(), pcBytes, extraBytes, 0};
    for (std::size_t i = 0; i < 5; ++i)
        sizes[5] += 8 * ((sizes[i] + v3BlockBytes - 1) / v3BlockBytes);
    std::size_t offsets[v3NumSections];
    std::size_t cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        offsets[i] = alignUp(cursor, v3Align);
        cursor = offsets[i] + sizes[i];
    }
    const std::size_t fileSize = cursor;

    // Every byte is written below: the header and directory, the
    // zero padding before each section, and each section.
    const auto file = std::make_unique_for_overwrite<std::uint8_t[]>(
        fileSize);
    std::uint8_t *const img = file.get();
    cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        std::memset(img + cursor, 0, offsets[i] - cursor);
        cursor = offsets[i] + sizes[i];
    }

    std::uint8_t *branchPc = img + offsets[0];
    std::uint8_t *branchTaken = img + offsets[1];
    std::uint8_t *opMeta = img + offsets[2];
    std::uint8_t *opPc = img + offsets[3];
    std::uint8_t *opExtra = img + offsets[4];
    std::uint64_t prevPc = 0;
    std::uint64_t prevExtra[6] = {};
    for (auto it = first; it != last; ++it) {
        const MicroOp &op = *it;
        packOpMeta(op, opMeta);
        opMeta += 4;
        opPc = putVarint(opPc, zigzag(op.pc - prevPc));
        const auto cls = static_cast<std::uint8_t>(op.cls);
        opExtra = putVarint(opExtra, zigzag(op.extra - prevExtra[cls]));
        prevPc = op.pc;
        prevExtra[cls] = op.extra;
        if (op.cls == InstClass::CondBranch) {
            putU64(branchPc, op.pc);
            branchPc += 8;
            *branchTaken++ = op.taken ? 1 : 0;
        }
    }
    assert(opPc == img + offsets[3] + sizes[3] &&
           opExtra == img + offsets[4] + sizes[4]);

    std::uint8_t *sum = img + offsets[5];
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t pos = 0; pos < sizes[i]; pos += v3BlockBytes) {
            putU64(sum, blockHash64(img + offsets[i] + pos,
                                    std::min(v3BlockBytes,
                                             sizes[i] - pos)));
            sum += 8;
        }
    }

    std::memcpy(img, magic, 8);
    putU32(img + 8, version);
    putU32(img + 12, 0);
    putU64(img + 16, trace.size());
    putU64(img + v3DirOffset, branches);
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        putU64(img + v3DirOffset + 8 + 16 * i, offsets[i]);
        putU64(img + v3DirOffset + 8 + 16 * i + 8, sizes[i]);
    }
    putU64(img + v3DirOffset + v3DirPayloadBytes,
           fnv1a64(img + v3DirOffset, v3DirPayloadBytes));

    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for writing");
    if (std::fwrite(img, 1, fileSize, f.get()) != fileSize)
        throw TraceIoError("short write on records");
    closeWritten(f, path);
}

} // namespace bpsim
