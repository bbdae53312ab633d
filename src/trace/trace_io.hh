/**
 * @file
 * Binary trace file I/O.
 *
 * Traces can be expensive to generate at paper scale, and external
 * traces (e.g. converted ChampSim/SimpleScalar traces) are the other
 * way to feed this simulator. There is one little-endian, columnar
 * format, written by writeTraceV3() and read by readTrace(); it is
 * also the trace cache's entry format. The header:
 *
 *   offset  size  field
 *   0       8     magic "BPSTRACE"
 *   8       4     version (3; readTrace rejects any other value)
 *   12      4     reserved (0)
 *   16      8     op count
 *
 * After the header, a directory (branch count, section table,
 * FNV-1a-64 directory checksum) names six sections, each at a
 * 64-byte-aligned offset, zero-padded between:
 *
 *   0  branchPc     raw u64 LE per conditional branch
 *   1  branchTaken  one byte (0/1) per conditional branch
 *   2  opMeta       4 packed bytes per op: class (3b), taken (1b),
 *                   dst (8b), srcA (6b), srcB (7b); the top 7 bits
 *                   must be zero
 *   3  opPcDelta    LEB128 zigzag(pc - previous pc) stream
 *   4  opExtraDelta LEB128 zigzag(extra - previous extra *of this
 *                   class*) stream
 *   5  blockSums    64-bit block hash per 64 KiB block of sections
 *                   0-4 (blockHash64 below)
 *
 * The per-class extra baseline keeps interleaved streams (branch
 * targets vs memory addresses vs constant-zero ALU extras) each
 * delta-small. Sections 0-1 duplicate the conditional-branch columns
 * of the op stream so accuracy replay never decodes ops at all:
 * readTrace() reads the file into an owned buffer, validates
 * structure, padding and every block checksum, and returns a
 * TraceBuffer whose branchView() points straight into that buffer
 * (zero decode). The op stream (sections 2-4) is decoded lazily,
 * only when a consumer touches micro-ops. Truncation and bit flips
 * surface as TraceIoError instead of a silently wrong trace, and
 * decode also rejects non-canonical spare bits, oversized varints
 * and trailing garbage. The encoding is canonical: re-encoding a
 * decoded trace reproduces the file byte for byte.
 *
 * Versions 1 (raw records) and 2 (one delta+varint stream) were
 * earlier formats of this header; files in them are rejected with
 * TraceIoError. Regenerate such traces, or convert them with a build
 * that still reads them.
 */

#ifndef BPSIM_TRACE_TRACE_IO_HH
#define BPSIM_TRACE_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "trace/trace_buffer.hh"

namespace bpsim {

/** Thrown on malformed trace files or I/O failures. */
class TraceIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Write @p trace in the columnar layout (see file comment);
 *  throws TraceIoError when the file cannot be opened, written,
 *  flushed or closed, so a file it returns from is complete.
 *  Reading it back yields a bit-identical trace. */
void writeTraceV3(const TraceBuffer &trace, const std::string &path);

/**
 * The v3 per-block checksum over @p n bytes at @p p: four
 * independent multiply-rotate lanes over little-endian 64-bit words
 * (tail zero-padded, length mixed into lane 0's seed), folded with a
 * final avalanche. Any alignment of @p p is fine.
 *
 * FNV-1a is byte-serial, one multiply per byte on the critical path,
 * which made checksum validation the dominant cost of a warm cache
 * load. Four lanes of word-wide multiplies pipeline to several bytes
 * per cycle with the same corruption-detection power for this
 * purpose: any flipped or truncated byte perturbs its lane, and the
 * fold propagates it through the final value. The tiny directory
 * keeps FNV-1a (negligible size). Its values are part of the file
 * format.
 */
std::uint64_t blockHash64(const std::uint8_t *p, std::size_t n);

/**
 * Read a trace written by writeTraceV3 into an owned buffer (never a
 * memory mapping, so a concurrent in-place truncation of the file
 * surfaces as a short read, not SIGBUS); throws TraceIoError on any
 * malformed, foreign or other-version file and on I/O failure.
 */
TraceBuffer readTrace(const std::string &path);

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_IO_HH
