/** @file Differential tests of the v3 trace codec: writeTraceV3 and
 *  blockHash64 against the pre-rewrite writer and hash kept in
 *  tests/reference_trace_v3.cc. Every file must match byte for byte
 *  and every hash value exactly. */

#include "trace/trace_io.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "reference_trace_v3.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Write @p trace with both writers; the files must be identical.
 *  Reports the first differing offset rather than two dumps. */
void
expectSameFile(const TraceBuffer &trace, const std::string &label)
{
    const std::string cur = tempPath("codec_current.bpt");
    const std::string ref = tempPath("codec_reference.bpt");
    writeTraceV3(trace, cur);
    referenceWriteTraceV3(trace, ref);
    const auto a = readBytes(cur);
    const auto b = readBytes(ref);
    std::remove(cur.c_str());
    std::remove(ref.c_str());
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << label << ": first difference at byte "
                              << i << " of " << a.size();
}

/** A synthetic op with random register fields (including bits the
 *  packing masks off) and outcome. */
MicroOp
randomOp(Rng &rng, InstClass cls, Addr pc, Addr extra)
{
    MicroOp op;
    op.cls = cls;
    op.pc = pc;
    op.extra = extra;
    op.taken = rng.nextBool(0.5);
    op.dst = static_cast<std::uint8_t>(rng.next());
    op.srcA = static_cast<std::uint8_t>(rng.next());
    op.srcB = static_cast<std::uint8_t>(rng.next());
    return op;
}

TEST(TraceCodecEquivalence, AllWorkloadsAtEveryLength)
{
    for (const std::string &name : specint2000Names()) {
        const auto w = makeWorkload(name);
        for (Counter ops : {0, 1, 40, 20000, 200000}) {
            const TraceBuffer trace = generateTrace(*w, ops, 42);
            expectSameFile(trace,
                           name + " @ " + std::to_string(ops) + " ops");
        }
    }
}

TEST(TraceCodecEquivalence, NoBranchesAndOnlyBranches)
{
    Rng rng(11);
    const InstClass nonBranch[] = {InstClass::IntAlu, InstClass::IntMul,
                                   InstClass::Load, InstClass::Store,
                                   InstClass::UncondBranch};
    TraceBuffer none, only;
    Addr pc = 0x400000;
    for (int i = 0; i < 30000; ++i) {
        pc += 4 * rng.nextRange(8);
        none.push(randomOp(rng, nonBranch[rng.nextRange(5)], pc,
                           rng.next() & 0xffffff));
        only.push(randomOp(rng, InstClass::CondBranch, pc,
                           pc + 4 * rng.nextRange(64)));
    }
    ASSERT_EQ(none.condBranches(), 0u);
    expectSameFile(none, "no branches");
    expectSameFile(only, "only branches");
}

TEST(TraceCodecEquivalence, TenByteVarints)
{
    // Deltas of -2^63 and random 64-bit jumps zigzag to values whose
    // LEB128 encoding needs all ten bytes, in both delta streams.
    Rng rng(12);
    constexpr Addr half = Addr{1} << 63;
    TraceBuffer trace;
    for (int i = 0; i < 5000; ++i) {
        const auto cls = static_cast<InstClass>(rng.nextRange(6));
        const Addr pc = i % 3 == 0 ? (i % 2 ? half : 0) : rng.next();
        const Addr extra = i % 4 == 0 ? half - 1 : rng.next();
        trace.push(randomOp(rng, cls, pc, extra));
    }
    expectSameFile(trace, "ten-byte varints");
}

TEST(TraceCodecEquivalence, SectionsOnAndAroundBlockBoundaries)
{
    // Branch-only traces with one-byte deltas: the taken, pc-delta and
    // extra-delta sections are n bytes, the meta section 4n and the
    // branch pc section 8n. These n put each of them exactly on, just
    // below and just above a 64 KiB block boundary. The ALU-only twin
    // empties the branch sections at the same op-stream sizes.
    for (std::size_t n : {8191u, 8192u, 8193u, 16383u, 16384u, 16385u,
                          65535u, 65536u, 65537u}) {
        Rng rng(n);
        TraceBuffer branches, alu;
        for (std::size_t i = 0; i < n; ++i) {
            const Addr pc = 0x1000 + 4 * i;
            branches.push(
                randomOp(rng, InstClass::CondBranch, pc, 0));
            alu.push(randomOp(rng, InstClass::IntAlu, pc, 0));
        }
        expectSameFile(branches, "branches n=" + std::to_string(n));
        expectSameFile(alu, "alu n=" + std::to_string(n));
    }
    // One two-byte varint (zigzag(+64) = 128) among 65536 one-byte
    // ones puts the extra-delta section one byte past the boundary
    // that the pc-delta section lands on exactly.
    Rng rng(13);
    TraceBuffer trace;
    for (std::size_t i = 0; i < 65536; ++i)
        trace.push(randomOp(rng, InstClass::IntAlu, 4 * i,
                            i == 100 ? 64 : 0));
    expectSameFile(trace, "one long varint");
}

// ---------------------------------------------------------------
// blockHash64

using HashFn = std::uint64_t (*)(const std::uint8_t *, std::size_t);

/** Lengths 0-300 and around one block, each at start offsets 0-7:
 *  the number of (offset, length) cases where @p hash disagrees
 *  with the reference. */
int
hashMismatches(HashFn hash)
{
    std::vector<std::uint8_t> buf(65537 + 8);
    Rng rng(14);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 300; ++n)
        lengths.push_back(n);
    lengths.insert(lengths.end(), {65535, 65536, 65537});
    int bad = 0;
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t n : lengths)
            bad += hash(buf.data() + off, n) !=
                   referenceBlockHash64(buf.data() + off, n);
    return bad;
}

TEST(TraceCodecEquivalence, BlockHashMatchesReference)
{
    EXPECT_EQ(hashMismatches(blockHash64), 0);
}

// Deliberately broken variants of the hash: the mismatch harness
// must catch each, or the test above proves nothing.

enum class Mutation { SwappedLanes, ShortTail };

template <Mutation M>
std::uint64_t
mutantHash(const std::uint8_t *p, std::size_t n)
{
    constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ull;
    constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4Full;
    const auto round = [](std::uint64_t h, std::uint64_t w) {
        h ^= w * k1;
        return (h << 27 | h >> 37) * k2;
    };
    const auto word = [](const std::uint8_t *q) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(q[i]) << (8 * i);
        return v;
    };
    constexpr bool swap = M == Mutation::SwappedLanes;
    std::uint64_t h0 = 0x736F6D6570736575ull ^ n;
    std::uint64_t h1 = 0x646F72616E646F6Dull;
    std::uint64_t h2 = 0x6C7967656E657261ull;
    std::uint64_t h3 = 0x7465646279746573ull;
    const auto block = [&](const std::uint8_t *q) {
        h0 = round(h0, word(q));
        h1 = round(h1, word(q + (swap ? 16 : 8)));
        h2 = round(h2, word(q + (swap ? 8 : 16)));
        h3 = round(h3, word(q + 24));
    };
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        block(p + i);
    if (i < n) {
        std::uint8_t tail[32] = {};
        std::memcpy(tail, p + i,
                    n - i - (M == Mutation::ShortTail ? 1 : 0));
        block(tail);
    }
    std::uint64_t r = (h0 ^ h1) * k1 ^ (h2 ^ h3) * k2;
    r ^= r >> 29;
    r *= k1;
    r ^= r >> 32;
    return r;
}

TEST(TraceCodecEquivalence, HarnessCatchesMutatedHashes)
{
    EXPECT_GT(hashMismatches(mutantHash<Mutation::SwappedLanes>), 0);
    EXPECT_GT(hashMismatches(mutantHash<Mutation::ShortTail>), 0);
}

} // namespace
} // namespace bpsim
