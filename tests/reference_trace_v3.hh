/**
 * @file
 * The pre-rewrite v3 trace writer and block hash, kept as a
 * test-only reference for the codec in trace/trace_io.cc.
 */

#ifndef BPSIM_TESTS_REFERENCE_TRACE_V3_HH
#define BPSIM_TESTS_REFERENCE_TRACE_V3_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/trace_buffer.hh"

namespace bpsim {

/**
 * blockHash64 as it stood before the word-wide rewrite: byte-wise
 * little-endian word loads into an array of four lanes. Test-only
 * reference code (the differential oracle of
 * test_trace_codec_equivalence and the baseline of
 * BM_BlockHash64/reference); it is never linked into bpsim_trace.
 * Keep it unchanged: its value is that it is the old hash.
 */
std::uint64_t referenceBlockHash64(const std::uint8_t *p,
                                   std::size_t n);

/**
 * writeTraceV3 as it stood before the single-pass rewrite: five
 * section vectors filled by push_back, a block-sum table, then a
 * zero-filled copy assembled from them and written with one fwrite.
 * Throws TraceIoError when the file cannot be opened or written.
 * Same contract as referenceBlockHash64, except that empty sections
 * are no longer copied (the old code passed memcpy a null pointer
 * for them; the bytes are the same).
 */
void referenceWriteTraceV3(const TraceBuffer &trace,
                           const std::string &path);

} // namespace bpsim

#endif // BPSIM_TESTS_REFERENCE_TRACE_V3_HH
