/**
 * @file
 * The pre-bitmask OooCore, kept as a test-only reference for the
 * event-driven issue stage in sim/ooo_core.cc.
 */

#ifndef BPSIM_TESTS_REFERENCE_OOO_CORE_HH
#define BPSIM_TESTS_REFERENCE_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "obs/event_trace.hh"
#include "pipeline/fetch_predictor.hh"
#include "sim/btb.hh"
#include "sim/cache.hh"
#include "sim/core_config.hh"
#include "sim/ooo_core.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/**
 * OooCore as it stood before event-driven issue: identical stages,
 * but issueStage walks the ROB from the head every cycle and skips
 * entries that have already issued. It shares OooCore's livelock
 * guard but returns a cut-short run instead of throwing, and does
 * not validate its CoreConfig. Test-only reference code (the
 * differential oracle of test_issue_equivalence and the baseline of
 * BM_OooCoreIssue/reference); it is never linked into bpsim_sim.
 * Keep it unchanged: its value is that it is the old scan.
 */
class ReferenceOooCore
{
  public:
    /**
     * @param cfg Microarchitecture parameters (Table 1 defaults).
     * @param predictor Fetch-side branch predictor (not owned).
     */
    ReferenceOooCore(const CoreConfig &cfg,
                     FetchPredictor &predictor);

    /** Run the whole @p trace to completion and return the stats. */
    SimResult run(const TraceBuffer &trace);

    // Incremental interface: run() is exactly
    //   begin(t); advance(t, t.size()); finish();
    // and the ensemble timing engine (core/ensemble.cc) interleaves
    // the middle step across members in fetch-index blocks. The
    // pause point only decides *when* advance() returns, never what
    // any stage executes, so a blocked member-major replay performs
    // the same per-member iteration sequence as a serial run —
    // byte-identical SimResults by construction.

    /** Reset per-run stats and arm the livelock guard for @p trace.
     *  Must precede the first advance() on a fresh core. */
    void begin(const TraceBuffer &trace);

    /**
     * Simulate until @p fetch_target trace ops have been fetched
     * (pausing at the cycle boundary where `fetchIndex_` first
     * reaches it) or, when @p fetch_target >= trace.size(), until
     * the pipeline fully drains.
     */
    void advance(const TraceBuffer &trace, std::size_t fetch_target);

    /** Stamp final cycle count and cache/BTB rates; returns stats. */
    SimResult finish();

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
        bool issued = false;
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
    /** Livelock guard captured by begin() for advance(). */
    Cycle maxCycles_ = 0;

    obs::EventTracer *tracer_ = nullptr;
    SimResult result_;
};

} // namespace bpsim

#endif // BPSIM_TESTS_REFERENCE_OOO_CORE_HH
