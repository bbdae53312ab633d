/**
 * @file
 * Local two-level predictor (Yeh and Patt, MICRO-24): a PC-indexed
 * table of per-branch history registers selects into a pattern
 * history table. This is the local component of the Alpha EV6
 * tournament predictor (Section 2.1 of the paper) and supplies the
 * local-history inputs of the global+local perceptron.
 */

#ifndef BPSIM_PREDICTORS_LOCAL_HH
#define BPSIM_PREDICTORS_LOCAL_HH

#include <vector>

#include "common/bitutil.hh"
#include "common/packed_pht.hh"
#include "predictors/predictor.hh"

namespace bpsim {

/** PAg-style local-history two-level predictor. */
class LocalPredictor final : public DirectionPredictor
{
  public:
    /**
     * @param history_entries Per-branch history table entries
     *        (power of two; EV6: 1024).
     * @param history_bits Local history length (EV6: 10).
     * @param pht_entries Second-level PHT entries (power of two;
     *        0 means 2^history_bits).
     * @param counter_bits Width of the PHT counters (EV6 uses 3).
     */
    LocalPredictor(std::size_t history_entries, unsigned history_bits,
                   std::size_t pht_entries = 0,
                   unsigned counter_bits = 2);

    std::string name() const override { return "local"; }
    std::size_t storageBits() const override
    {
        return histories_.size() * historyBits_ +
               pht_.size() * counterBits_;
    }
    // Inline bodies: see the note in gshare.hh.
    bool
    predict(Addr pc) override
    {
        lastHistIndex_ = historyIndex(pc);
        lastPhtIndex_ = static_cast<std::size_t>(
                            histories_[lastHistIndex_]) &
                        phtMask_;
        return pht_.taken(lastPhtIndex_);
    }

    void
    update(Addr /*pc*/, bool taken) override
    {
        // Both indices carry over from predict(): update() is always
        // paired with the predict() for the same pc, and the local
        // history entry only shifts below, after the PHT index has
        // been consumed — exactly the order the recompute preserved.
        pht_.update(lastPhtIndex_, taken);
        auto &h = histories_[lastHistIndex_];
        h = ((h << 1) | (taken ? 1 : 0)) & loMask(historyBits_);
    }

    void visitState(robust::StateVisitor &v) override;

    /** Raw local history of @p pc's entry (for the perceptron). */
    std::uint64_t
    localHistory(Addr pc) const
    {
        return histories_[historyIndex(pc)];
    }

  private:
    std::size_t
    historyIndex(Addr pc) const
    {
        return static_cast<std::size_t>(indexPc(pc)) & histMask_;
    }

    std::size_t
    phtIndex(Addr pc) const
    {
        return static_cast<std::size_t>(
                   histories_[historyIndex(pc)]) &
               phtMask_;
    }

    std::vector<std::uint64_t> histories_;
    PackedSatStorage pht_;
    unsigned historyBits_;
    unsigned counterBits_;
    std::size_t histMask_;
    std::size_t phtMask_;

    // predict() -> update() carried state
    std::size_t lastHistIndex_ = 0;
    std::size_t lastPhtIndex_ = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTORS_LOCAL_HH
