#include "reference_trace_v3.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "trace/trace_io.hh"

namespace bpsim {

namespace {

constexpr char magic[8] = {'B', 'P', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t versionColumnar = 3;
constexpr std::size_t v3Align = 64;
constexpr std::size_t v3BlockBytes = 64 * 1024;
constexpr std::size_t v3NumSections = 6;
constexpr std::size_t v3DirOffset = 24;
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

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
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

std::uint64_t
zigzag(std::uint64_t delta)
{
    const std::int64_t s = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

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

} // namespace

std::uint64_t
referenceBlockHash64(const std::uint8_t *p, std::size_t n)
{
    constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ull;
    constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4Full;
    const auto round = [](std::uint64_t h, std::uint64_t w) {
        h ^= w * k1;
        return (h << 27 | h >> 37) * k2;
    };
    std::uint64_t h[4] = {0x736F6D6570736575ull ^ n,
                          0x646F72616E646F6Dull,
                          0x6C7967656E657261ull,
                          0x7465646279746573ull};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        for (int l = 0; l < 4; ++l)
            h[l] = round(h[l], getU64(p + i + 8 * l));
    if (i < n) {
        std::uint8_t tail[32] = {};
        std::memcpy(tail, p + i, n - i);
        for (int l = 0; l < 4; ++l)
            h[l] = round(h[l], getU64(tail + 8 * l));
    }
    std::uint64_t r = (h[0] ^ h[1]) * k1 ^ (h[2] ^ h[3]) * k2;
    r ^= r >> 29;
    r *= k1;
    r ^= r >> 32;
    return r;
}

namespace {

std::vector<std::uint8_t>
encodeTraceV3(const TraceBuffer &trace)
{
    std::vector<std::uint8_t> branchPc, branchTaken, opMeta, opPc,
        opExtra;
    opMeta.reserve(trace.size() * 4);
    std::uint64_t prevPc = 0;
    std::uint64_t prevExtra[6] = {};
    for (const MicroOp &op : trace) {
        std::uint8_t meta[4];
        packOpMeta(op, meta);
        opMeta.insert(opMeta.end(), meta, meta + 4);
        putVarint(opPc, zigzag(op.pc - prevPc));
        const auto cls = static_cast<std::uint8_t>(op.cls);
        putVarint(opExtra, zigzag(op.extra - prevExtra[cls]));
        prevPc = op.pc;
        prevExtra[cls] = op.extra;
        if (op.cls == InstClass::CondBranch) {
            std::uint8_t pc[8];
            putU64(pc, op.pc);
            branchPc.insert(branchPc.end(), pc, pc + 8);
            branchTaken.push_back(op.taken ? 1 : 0);
        }
    }

    const std::vector<std::uint8_t> *data[5] = {
        &branchPc, &branchTaken, &opMeta, &opPc, &opExtra};
    std::vector<std::uint8_t> blockSums;
    for (const auto *d : data) {
        for (std::size_t pos = 0; pos < d->size();
             pos += v3BlockBytes) {
            const std::size_t n =
                std::min(v3BlockBytes, d->size() - pos);
            std::uint8_t sum[8];
            putU64(sum, referenceBlockHash64(d->data() + pos, n));
            blockSums.insert(blockSums.end(), sum, sum + 8);
        }
    }

    std::size_t offsets[v3NumSections];
    std::size_t sizes[v3NumSections];
    std::size_t cursor = v3DirEnd;
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        sizes[i] = i < 5 ? data[i]->size() : blockSums.size();
        cursor = alignUp(cursor, v3Align);
        offsets[i] = cursor;
        cursor += sizes[i];
    }

    std::vector<std::uint8_t> file(cursor, 0);
    std::memcpy(file.data(), magic, 8);
    putU32(file.data() + 8, versionColumnar);
    putU32(file.data() + 12, 0);
    putU64(file.data() + 16, trace.size());
    putU64(file.data() + v3DirOffset, branchTaken.size());
    for (std::size_t i = 0; i < v3NumSections; ++i) {
        putU64(file.data() + v3DirOffset + 8 + 16 * i, offsets[i]);
        putU64(file.data() + v3DirOffset + 8 + 16 * i + 8, sizes[i]);
    }
    putU64(file.data() + v3DirOffset + v3DirPayloadBytes,
           fnv1a64(file.data() + v3DirOffset, v3DirPayloadBytes));
    // The one departure from the old writer: it also copied empty
    // sections, passing memcpy the null data() of an empty vector,
    // which UBSan rejects. Skipping them writes the same bytes.
    for (std::size_t i = 0; i < 5; ++i)
        if (sizes[i] != 0)
            std::memcpy(file.data() + offsets[i], data[i]->data(),
                        sizes[i]);
    if (sizes[5] != 0)
        std::memcpy(file.data() + offsets[5], blockSums.data(),
                    sizes[5]);
    return file;
}

} // namespace

void
referenceWriteTraceV3(const TraceBuffer &trace, const std::string &path)
{
    const std::vector<std::uint8_t> file = encodeTraceV3(trace);
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        throw TraceIoError("cannot open '" + path + "' for writing");
    if (!file.empty() &&
        std::fwrite(file.data(), 1, file.size(), f.get()) !=
            file.size())
        throw TraceIoError("short write on records");
}

} // namespace bpsim
