/**
 * @file
 * Binary trace file I/O.
 *
 * Traces can be expensive to generate at paper scale, and external
 * traces (e.g. converted ChampSim/SimpleScalar traces) are the other
 * way to feed this simulator. Three little-endian formats share one
 * header; readTrace() dispatches on the version field:
 *
 *   offset  size  field
 *   0       8     magic "BPSTRACE"
 *   8       4     version (1 = raw, 2 = compressed, 3 = columnar)
 *   12      4     reserved (0)
 *   16      8     record count
 *
 * Version 1 (writeTrace) is a fixed record stream, 20 bytes each:
 *   pc (8), extra (8), class (1),
 *   flags (1: bit0 = taken, bits1-6 = srcB low),
 *   dst (1), srcA low 6 bits + srcB bit6 (1)
 * Register ids are 6 bits (0..63), so the two sources pack into the
 * spare flag bits (srcB carries a 7th bit).
 *
 * Version 2 (writeTraceCompressed) delta+varint encodes the same
 * field domain — a compact archival/interchange format. Per record:
 *   4 packed bytes: class (3b), taken (1b), dst (8b), srcA (6b),
 *                   srcB (7b); the top 7 bits must be zero
 *   LEB128 varint:  zigzag(pc - previous pc)
 *   LEB128 varint:  zigzag(extra - previous extra *of this class*)
 * The per-class extra baseline keeps interleaved streams (branch
 * targets vs memory addresses vs constant-zero ALU extras) each
 * delta-small. The payload ends with a FNV-1a-64 checksum (8 bytes),
 * so truncation and bit flips surface as TraceIoError instead of a
 * silently wrong trace; decode also rejects non-canonical spare
 * bits, oversized varints and trailing garbage.
 *
 * Version 3 (writeTraceV3) is columnar and mmap-able — the trace
 * cache's on-disk format. After the common header, a directory
 * (branch count, section table, FNV-1a-64 directory checksum) names
 * six sections, each at a 64-byte-aligned offset, zero-padded
 * between:
 *
 *   0  branchPc     raw u64 LE per conditional branch
 *   1  branchTaken  one byte (0/1) per conditional branch
 *   2  opMeta       4 packed bytes per op (v2's packing)
 *   3  opPcDelta    LEB128 zigzag(pc delta) stream
 *   4  opExtraDelta LEB128 zigzag(per-class extra delta) stream
 *   5  blockSums    64-bit block hash per 64 KiB block of sections
 *                   0-4 (blockHash64 below)
 *
 * Sections 0-1 duplicate the conditional-branch columns of the op
 * stream so accuracy replay never decodes ops at all: readTrace()
 * memory-maps the file, validates structure, padding and every block
 * checksum, and returns a TraceBuffer whose branchView() points
 * straight into the mapping (zero copy, zero decode). The op stream
 * (sections 2-4) is decoded lazily, only when a consumer touches
 * micro-ops. The encoding is canonical: re-encoding a decoded trace
 * reproduces the file byte for byte.
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

// Every writer throws TraceIoError when the file cannot be opened,
// written, flushed or closed, so a file a writer returns from is
// complete.

/** Write @p trace to @p path (raw v1); throws TraceIoError. */
void writeTrace(const TraceBuffer &trace, const std::string &path);

/** Write @p trace delta+varint compressed (v2) with a trailing
 *  checksum; throws TraceIoError on failure. Reading it back yields
 *  a bit-identical trace (same domain as the v1 format). */
void writeTraceCompressed(const TraceBuffer &trace,
                          const std::string &path);

/** Write @p trace in the columnar mmap-able v3 layout (see file
 *  comment); throws TraceIoError on failure. Reading it back yields
 *  a bit-identical trace served zero-copy. */
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
 * fold propagates it through the final value. v2 payloads and the
 * tiny v3 directory keep FNV-1a (compatibility and negligible size,
 * respectively). Its values are part of the file format.
 */
std::uint64_t blockHash64(const std::uint8_t *p, std::size_t n);

/**
 * How readTrace may back the returned buffer.
 *
 * ZeroCopy memory-maps a v3 file: branchView() is served from the
 * file and the op stream decodes lazily on first use. That is only
 * safe for files the caller owns for the buffer's lifetime — a
 * mapping's pages track the inode, so an external in-place truncate
 * (a stomping writer in a shared cache directory) turns every later
 * access into SIGBUS, not an error return. PrivateCopy reads the
 * bytes into an owned buffer instead: a concurrent truncation
 * surfaces as a short read and throws TraceIoError, which shared
 * consumers (the trace cache) heal by regenerating.
 */
enum class TraceReadMode { ZeroCopy, PrivateCopy };

/** Read a trace written by any writer; throws TraceIoError. */
TraceBuffer readTrace(const std::string &path,
                      TraceReadMode mode = TraceReadMode::ZeroCopy);

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_IO_HH
