/**
 * @file
 * Bit-packed saturating-counter tables for PHT storage.
 *
 * The seed implementation stored every two-bit counter in its own
 * byte (TwoBitCounter), so a 2^21-entry PHT occupied 2 MB of host
 * memory — 4× the simulated SRAM. At the paper's large budgets
 * (Figures 5-8 sweep up to 512 KB of predictor state) the replay
 * working set then blows past the host L2, and the accuracy loop
 * becomes a cache-miss benchmark. PackedPhtStorage packs four
 * counters per byte so the host working set matches the simulated
 * budget exactly; PackedSatStorage generalizes to any 1..8-bit
 * counter width (the EV6 local predictor uses 3-bit counters) with
 * bit-granular packing.
 *
 * Semantics are bit-identical to the byte-per-counter classes in
 * sat_counter.hh (verified by tests/test_packed_pht.cc and the
 * golden-equivalence suite): taken/weak thresholds, saturation and
 * reset values all match, so predictors switching to packed storage
 * produce exactly the prediction stream they did before.
 */

#ifndef BPSIM_COMMON_PACKED_PHT_HH
#define BPSIM_COMMON_PACKED_PHT_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"

namespace bpsim {

/**
 * A table of two-bit saturating counters, four per byte.
 *
 * Counter i lives at bits [2*(i%4), 2*(i%4)+2) of byte i/4.
 * Semantics match TwoBitCounter exactly: 0,1 predict not-taken;
 * 2,3 taken; 1,2 are the weak states.
 */
class PackedPhtStorage
{
  public:
    /** @param entries Counter count. @param init Reset value (0..3);
     *  the conventional reset is 1, weakly not-taken. */
    explicit PackedPhtStorage(std::size_t entries,
                              std::uint8_t init = 1)
        : entries_(entries),
          bytes_((entries + 3) / 4,
                 static_cast<std::uint8_t>((init & 3) * 0x55u))
    {
    }

    std::size_t size() const { return entries_; }

    /** Raw counter value (0..3). */
    std::uint8_t
    value(std::size_t i) const
    {
        return (bytes_[i >> 2] >> ((i & 3) * 2)) & 3;
    }

    /** Direction hint: counters 2,3 predict taken. */
    bool taken(std::size_t i) const { return value(i) >= 2; }

    /** Weak (boundary-adjacent) state, as TwoBitCounter::weak(). */
    bool
    weak(std::size_t i) const
    {
        const std::uint8_t v = value(i);
        return v == 1 || v == 2;
    }

    /** Train counter @p i toward @p taken with saturation. */
    void
    update(std::size_t i, bool taken)
    {
        const unsigned shift = (i & 3) * 2;
        std::uint8_t &b = bytes_[i >> 2];
        std::uint8_t v = (b >> shift) & 3;
        if (taken) {
            if (v < 3)
                ++v;
        } else {
            if (v > 0)
                --v;
        }
        b = static_cast<std::uint8_t>(
            (b & ~(3u << shift)) | (v << shift));
    }

    /** Overwrite counter @p i (fault injection / tests). */
    void
    set(std::size_t i, std::uint8_t v)
    {
        const unsigned shift = (i & 3) * 2;
        std::uint8_t &b = bytes_[i >> 2];
        b = static_cast<std::uint8_t>(
            (b & ~(3u << shift)) | ((v & 3u) << shift));
    }

    /** SRAM bits this table charges the hardware budget. */
    std::size_t storageBits() const { return entries_ * 2; }

  private:
    std::size_t entries_;
    std::vector<std::uint8_t> bytes_;
};

/**
 * A table of @p bits wide (1..8) unsigned saturating counters packed
 * bit-granularly into 64-bit words, so an n-bit counter costs
 * exactly n bits of host memory even when n does not divide 8.
 *
 * Semantics match SatCounter(bits): the counter saturates in
 * [0, 2^bits - 1], taken() is value > max/2 and weak() is the two
 * boundary-adjacent values.
 */
class PackedSatStorage
{
  public:
    PackedSatStorage(std::size_t entries, unsigned bits,
                     std::uint8_t init = 0)
        : entries_(entries),
          bits_(bits),
          max_(static_cast<std::uint8_t>((1u << bits) - 1)),
          // One pad word so a straddling access never reads past the
          // end.
          words_((entries * bits + 63) / 64 + 1, 0)
    {
        assert(bits >= 1 && bits <= 8);
        assert(init <= max_);
        for (std::size_t i = 0; i < entries_; ++i)
            set(i, init);
    }

    std::size_t size() const { return entries_; }
    unsigned bits() const { return bits_; }
    std::uint8_t maxValue() const { return max_; }

    std::uint8_t
    value(std::size_t i) const
    {
        const std::size_t bitpos = i * bits_;
        const std::size_t w = bitpos >> 6;
        const unsigned off = bitpos & 63;
        // Unconditional straddle merge: the double shift is
        // (64 - off) split as 1 + (63 - off) so off == 0 stays
        // defined, and when the counter does not straddle the
        // contribution lands above bits_ and the & max_ drops it.
        // The branchy form mispredicted constantly — off is
        // index-derived, effectively random in replay loops — and
        // the pad word makes words_[w + 1] always readable.
        const std::uint64_t v =
            (words_[w] >> off) |
            ((words_[w + 1] << 1) << (63 - off));
        return static_cast<std::uint8_t>(v & max_);
    }

    bool taken(std::size_t i) const { return value(i) > max_ / 2; }

    bool
    weak(std::size_t i) const
    {
        const std::uint8_t v = value(i);
        return v == max_ / 2 || v == max_ / 2 + 1;
    }

    void
    update(std::size_t i, bool taken)
    {
        std::uint8_t v = value(i);
        if (taken) {
            if (v < max_)
                ++v;
        } else {
            if (v > 0)
                --v;
        }
        set(i, v);
    }

    void
    set(std::size_t i, std::uint8_t v)
    {
        const std::size_t bitpos = i * bits_;
        const std::size_t w = bitpos >> 6;
        const unsigned off = bitpos & 63;
        const std::uint64_t m = std::uint64_t{max_};
        const std::uint64_t vv = v & max_;
        words_[w] = (words_[w] & ~(m << off)) | (vv << off);
        // Unconditional straddle write-back (same double-shift trick
        // as value()): when nothing straddles, mhi is zero and the
        // read-modify-write leaves the pad/next word untouched.
        const std::uint64_t mhi = (m >> 1) >> (63 - off);
        words_[w + 1] =
            (words_[w + 1] & ~mhi) | ((vv >> 1) >> (63 - off));
    }

    std::size_t storageBits() const { return entries_ * bits_; }

  private:
    std::size_t entries_;
    unsigned bits_;
    std::uint8_t max_;
    std::vector<std::uint64_t> words_;
};

} // namespace bpsim

#endif // BPSIM_COMMON_PACKED_PHT_HH
