/**
 * @file
 * Trace-driven out-of-order superscalar timing model.
 *
 * A decoupled-front-end simulator in the SimpleScalar sim-outorder
 * tradition (the paper's substrate, Section 4.1.3): fetch is guided
 * by the branch predictor and broken by taken branches, I-cache
 * misses, predictor bubbles and mispredictions; fetched instructions
 * traverse a front-end pipeline (whose depth dominates the
 * misprediction penalty), enter a reorder buffer, issue out of order
 * as operands become ready under an issue-width constraint, and
 * commit in order.
 *
 * Modelling choices and simplifications (all conservative w.r.t. the
 * paper's argument — they affect every predictor identically):
 *  - wrong-path instructions are not executed; a misprediction
 *    blocks correct-path fetch until the branch resolves, so the
 *    penalty = resolution delay + front-end refill, scaling with
 *    pipeline depth as in the paper;
 *  - predictor state updates at fetch with the actual outcome,
 *    implementing the optimistic speculative-update-with-perfect-
 *    recovery assumption (Section 4.1.2);
 *  - overriding-predictor disagreement bubbles stall fetch for the
 *    slow predictor's latency (Section 2.6.1).
 */

#ifndef BPSIM_SIM_OOO_CORE_HH
#define BPSIM_SIM_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "pipeline/fetch_predictor.hh"
#include "sim/btb.hh"
#include "sim/cache.hh"
#include "sim/core_config.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/** Aggregate results of one timing-simulation run. */
struct SimResult
{
    Counter cycles = 0;
    Counter instructions = 0;
    Counter condBranches = 0;
    Counter mispredictions = 0;
    Counter overridingBubbleCycles = 0;
    Counter btbMissPenaltyCycles = 0;
    /** Cycles fetch spent waiting on a mispredicted branch. */
    Counter mispredictWaitCycles = 0;
    /** Cycles fetch was stalled on I-cache misses. */
    Counter icacheStallCycles = 0;
    /** Cycles fetch was stalled on predictor bubbles / BTB misses. */
    Counter frontEndStallCycles = 0;
    /** frontEndStallCycles split by cause: overriding-disagreement
     *  squash stalls vs. BTB-miss stalls. Their sum equals
     *  frontEndStallCycles. */
    Counter overrideStallCycles = 0;
    Counter btbStallCycles = 0;
    /** Cycles dispatch was blocked by a full ROB with insts waiting. */
    Counter robStallCycles = 0;
    /** Front-end restarts: mispredictions + overriding squashes. */
    Counter flushes = 0;
    /** Fetch slots lost to flush-caused stalls (wrong-path /
     *  squashed micro-ops, counted as issueWidth per lost cycle).
     *  Invariant: squashedUops == issueWidth * flushCycles(). */
    Counter squashedUops = 0;
    double l1iMissRate = 0.0;
    double l1dMissRate = 0.0;
    double l2MissRate = 0.0;
    double btbHitRate = 0.0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
    double
    mispredictionRate() const
    {
        return condBranches ? static_cast<double>(mispredictions) /
                                  static_cast<double>(condBranches)
                            : 0.0;
    }
    double mispredictionPercent() const
    {
        return 100.0 * mispredictionRate();
    }
    /** Total cycles fetch lost to squash-causing flushes: the
     *  per-cause attribution (override + mispredict recovery) sums
     *  to this by construction. */
    Counter flushCycles() const
    {
        return overrideStallCycles + mispredictWaitCycles;
    }

    /**
     * Publish every counter into @p reg under the metric naming
     * convention (`sim.core.flush_cycles{cause=override}`, ...),
     * optionally tagging names with `{workload=...}`.
     */
    void publishMetrics(obs::MetricRegistry &reg,
                        const std::string &workload = "") const;
};

/** The out-of-order core. One instance simulates one trace run. */
class OooCore
{
  public:
    /**
     * @param cfg Microarchitecture parameters (Table 1 defaults).
     * @param predictor Fetch-side branch predictor (not owned).
     * @throws std::invalid_argument when @p cfg has robEntries 0 or
     *         above 65536, issueWidth 0 or fetchBufferEntries 0.
     */
    OooCore(const CoreConfig &cfg, FetchPredictor &predictor);

    /**
     * Run the whole @p trace to completion and return the stats.
     * A livelock guard stops the cycle loop after 100 000 cycles
     * plus, per op, 64 cycles and the configured I-fetch-miss,
     * front-end and load-miss latencies.
     * @throws std::runtime_error when the guard ended the loop with
     *         ops still unfetched or in flight, so the stats would
     *         undercount the trace.
     */
    SimResult run(const TraceBuffer &trace);

    /**
     * Attach an event tracer (not owned; may be nullptr to detach).
     * When attached, the core records per-cycle pipeline events —
     * override disagreements, mispredict resolutions, ROB-full
     * stalls, i-cache and BTB misses — into its ring buffer. An
     * unattached core pays one null check per *event*, never per
     * cycle.
     */
    void attachTracer(obs::EventTracer *tracer) { tracer_ = tracer; }

  private:
    struct Producer
    {
        std::int32_t robSlot = -1;
        InstSeqNum seq = 0;
    };

    struct RobEntry
    {
        InstSeqNum seq = 0;
        std::uint32_t traceIndex = 0;
        Cycle completeCycle = 0;
        /** Producers of the two sources, captured at dispatch so a
         *  younger writer of the same register cannot be mistaken
         *  for the operand's producer. */
        Producer prodA;
        Producer prodB;
        bool done = false;
        bool mispredictedBranch = false;
        bool valid = false;
    };

    struct FetchedInst
    {
        std::uint32_t traceIndex;
        Cycle dispatchReady;
        bool mispredictedBranch;
    };

    bool skipIdleCycles(const TraceBuffer &trace, Cycle max_cycles);
    void fetchStage(const TraceBuffer &trace);
    void dispatchStage(const TraceBuffer &trace);
    void issueStage(const TraceBuffer &trace);
    void completeStage(const TraceBuffer &trace);
    void commitStage(const TraceBuffer &trace);

    unsigned loadLatency(Addr addr);
    Producer producerOf(std::uint8_t reg) const;
    bool producerDone(const Producer &p) const;

    CoreConfig cfg_;
    FetchPredictor &predictor_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Btb btb_;

    /** Why fetch is currently stalled (for cycle attribution). */
    enum class StallReason : std::uint8_t {
        None,
        Icache,
        Override, ///< overriding-predictor disagreement squash
        BtbMiss,  ///< taken branch without a BTB target
        Redirect, ///< post-resolution redirect gap
    };

    Cycle cycle_ = 0;
    std::size_t fetchIndex_ = 0;
    Cycle fetchStallUntil_ = 0;
    StallReason stallReason_ = StallReason::None;
    bool fetchBlocked_ = false; ///< waiting on a mispredicted branch

    std::deque<FetchedInst> fetchBuffer_;
    std::vector<RobEntry> rob_;
    /** One bit per ROB slot, set iff the slot holds a dispatched,
     *  unissued entry (see issueStage for the walk order). */
    std::vector<std::uint64_t> unissuedMask_;
    std::size_t robHead_ = 0;
    std::size_t robTail_ = 0;
    std::size_t robCount_ = 0;
    InstSeqNum nextSeq_ = 1;

    std::vector<Producer> regProducer_;
    Addr lastFetchLine_ = ~Addr{0};

    /** Fast-path bookkeeping: issued-but-incomplete entry count and
     *  the earliest cycle one of them can complete. */
    std::size_t issuedNotDone_ = 0;
    Cycle nextCompleteCycle_ = 0;
    std::size_t unissuedCount_ = 0;

    /**
     * Min-heap of in-flight completions, keyed
     * `(completeCycle << 16) | robSlot`. Pushed once at issue,
     * popped when due, so completeStage touches only the entries
     * that actually finish instead of scanning the whole ROB every
     * completion cycle (the scan was ~half of timing-cell wall
     * clock). Entries are never stale: a slot can only be reused
     * after commit, and commit requires done, which requires the
     * pop. Keeping the slot in the low bits makes keys unique, so
     * pop order within a cycle is (cycle, slot) — benign, because
     * marking done is commutative and at most one unresolved
     * mispredicted branch is ever in flight.
     */
    std::vector<std::uint64_t> completeHeap_;

    obs::EventTracer *tracer_ = nullptr;
    SimResult result_;
};

} // namespace bpsim

#endif // BPSIM_SIM_OOO_CORE_HH
