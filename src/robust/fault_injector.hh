/**
 * @file
 * SRAM soft-error (single-event-upset) injection.
 *
 * A FaultPlan describes an upset model: with what probability each
 * SRAM bit flips per injection event, how often events fire (every N
 * predictor updates), and which state fields are eligible. The
 * FaultInjector is a StateVisitor that walks a predictor's exposed
 * fields and flips bits accordingly, driven by the repo's xorshift
 * RNG so every campaign is deterministic and reproducible.
 *
 * Sampling: per field, the number of flips is drawn once (Poisson
 * for small expected counts, a Gaussian approximation beyond — both
 * from our own Rng, never the standard library's distributions) and
 * then that many uniformly random bit positions are flipped. This is
 * equivalent to per-bit Bernoulli trials for the upset rates of
 * interest but costs O(flips), not O(total bits), so megabit PHTs
 * stay cheap to bombard.
 */

#ifndef BPSIM_ROBUST_FAULT_INJECTOR_HH
#define BPSIM_ROBUST_FAULT_INJECTOR_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "pipeline/fetch_predictor.hh"
#include "predictors/predictor.hh"
#include "robust/state_visitor.hh"

namespace bpsim::robust {

/** The upset model driving a FaultInjector. */
struct FaultPlan
{
    /** Probability each SRAM bit flips per injection event. */
    double upsetRatePerBit = 0.0;
    /** Predictor updates between injection events. */
    Counter intervalBranches = 4096;
    /** RNG seed; same plan + seed => identical flip sequence. */
    std::uint64_t seed = 0x5eedfa17;
    /** Only fields whose name starts with this are hit ("" = all). */
    std::string targetPrefix;
    /** Additional eligible prefixes (any-of, alongside
     *  targetPrefix). */
    std::vector<std::string> targetPrefixes;
    /** Exact field names to hit (any-of, alongside the prefixes).
     *  The vulnerability-ranking pass bombards one field at a time
     *  through this. */
    std::vector<std::string> targetFields;

    /** True when @p field_name is eligible under the plan: no
     *  targeting at all means every field, otherwise the name must
     *  match one prefix or one exact name. */
    bool matches(const std::string &field_name) const;
};

/** Walks visitState() fields and flips bits per a FaultPlan. */
class FaultInjector : public StateVisitor
{
  public:
    /** Called for every flip as it lands: the field, the element
     *  index, the bit within it, and the element's value *before*
     *  the flip. Protection policies record flips through this so
     *  detection/repair replays the exact injection stream. */
    using FlipObserver = std::function<void(
        const StateField &field, std::size_t elem, unsigned bit,
        std::uint64_t before)>;

    explicit FaultInjector(const FaultPlan &plan);

    void visit(const StateField &field) override;

    /** Install @p obs (empty = none); does not perturb sampling. */
    void setFlipObserver(FlipObserver obs)
    {
        observer_ = std::move(obs);
    }

    /** Total bits flipped so far. */
    Counter flips() const { return flips_; }
    /** Total SRAM bits visited (eligible fields, all events). */
    Counter bitsVisited() const { return bitsVisited_; }
    /** Injection events (visitState() walks) completed. */
    Counter events() const { return events_; }
    /** Per-field flip tallies. */
    const std::map<std::string, Counter> &flipsByField() const
    {
        return flipsByField_;
    }

    /** Mark the start of one injection event (bookkeeping only). */
    void beginEvent() { ++events_; }

    const FaultPlan &plan() const { return plan_; }

  private:
    std::size_t sampleFlipCount(std::size_t total_bits);

    FaultPlan plan_;
    Rng rng_;
    FlipObserver observer_;
    Counter flips_ = 0;
    Counter bitsVisited_ = 0;
    Counter events_ = 0;
    std::map<std::string, Counter> flipsByField_;
};

/**
 * Direction-predictor decorator that periodically bombards its inner
 * predictor's SRAM per a FaultPlan: every plan.intervalBranches
 * updates, one injection event walks the inner visitState(). Used by
 * the soft-error study and the robustness tests; composes with every
 * fetch wrapper since it is itself a DirectionPredictor. Accuracy
 * sweeps replay it one cell at a time: the batched ensemble probe
 * (core/ensemble.hh) rejects wrapped members.
 */
class FaultInjectingPredictor : public DirectionPredictor
{
  public:
    FaultInjectingPredictor(std::unique_ptr<DirectionPredictor> inner,
                            const FaultPlan &plan);

    std::string name() const override { return inner_->name(); }
    std::size_t storageBits() const override
    {
        return inner_->storageBits();
    }
    bool predict(Addr pc) override { return inner_->predict(pc); }
    void update(Addr pc, bool taken) override;
    std::vector<PredictorStat> describeStats() const override;
    void visitState(StateVisitor &v) override
    {
        inner_->visitState(v);
    }

    const FaultInjector &injector() const { return injector_; }

  private:
    std::unique_ptr<DirectionPredictor> inner_;
    FaultInjector injector_;
    Counter updates_ = 0;
};

/**
 * Fetch-side analogue: decorates any FetchPredictor (overriding,
 * delayed, single-cycle) so timing campaigns can be bombarded too.
 */
class FaultInjectingFetchPredictor : public FetchPredictor
{
  public:
    FaultInjectingFetchPredictor(std::unique_ptr<FetchPredictor> inner,
                                 const FaultPlan &plan);

    std::string name() const override { return inner_->name(); }
    std::size_t storageBits() const override
    {
        return inner_->storageBits();
    }
    FetchPrediction predict(Addr pc) override
    {
        return inner_->predict(pc);
    }
    void update(Addr pc, bool taken) override;
    std::vector<PredictorStat> describeStats() const override;
    void visitState(StateVisitor &v) override
    {
        inner_->visitState(v);
    }

    const FaultInjector &injector() const { return injector_; }

  private:
    std::unique_ptr<FetchPredictor> inner_;
    FaultInjector injector_;
    Counter updates_ = 0;
};

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_FAULT_INJECTOR_HH
