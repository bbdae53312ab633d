#include "sim/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <string>

namespace bpsim {

void
SimResult::publishMetrics(obs::MetricRegistry &reg,
                          const std::string &workload) const
{
    // `sim.core.<counter>{workload=w}` for plain counters and
    // `sim.core.<counter>{cause=c,workload=w}` for attributed ones;
    // counters accumulate, so publishing a whole suite into one
    // registry yields suite totals alongside the per-workload lines.
    const std::string wl =
        workload.empty() ? "" : "workload=" + workload;
    const auto plain = [&](const char *base) {
        return wl.empty() ? "sim.core." + std::string(base)
                          : "sim.core." + std::string(base) + "{" +
                                wl + "}";
    };
    const auto caused = [&](const char *base, const char *cause) {
        std::string labels = std::string("cause=") + cause;
        if (!wl.empty())
            labels += "," + wl;
        return "sim.core." + std::string(base) + "{" + labels + "}";
    };
    reg.counter(plain("cycles")).add(cycles);
    reg.counter(plain("instructions")).add(instructions);
    reg.counter(plain("cond_branches")).add(condBranches);
    reg.counter(plain("mispredictions")).add(mispredictions);
    reg.counter(plain("flushes")).add(flushes);
    reg.counter(plain("squashed_uops")).add(squashedUops);
    reg.counter(plain("overriding_bubbles")).add(overridingBubbleCycles);
    reg.counter(caused("flush_cycles", "override"))
        .add(overrideStallCycles);
    reg.counter(caused("flush_cycles", "mispredict"))
        .add(mispredictWaitCycles);
    reg.counter(caused("stall_cycles", "icache"))
        .add(icacheStallCycles);
    reg.counter(caused("stall_cycles", "btb")).add(btbStallCycles);
    reg.counter(caused("stall_cycles", "rob")).add(robStallCycles);
    reg.gauge(plain("ipc")).set(ipc());
    reg.gauge(plain("mispredict_percent")).set(mispredictionPercent());
}

namespace {

/** Reject configurations the core cannot simulate; checked in every
 *  build type, before any table is sized from @p cfg. */
const CoreConfig &
validated(const CoreConfig &cfg)
{
    // Completion-heap keys reserve 16 bits for the ROB slot.
    if (cfg.robEntries == 0 || cfg.robEntries > (std::size_t{1} << 16))
        throw std::invalid_argument(
            "CoreConfig: robEntries must be in [1, 65536], got " +
            std::to_string(cfg.robEntries));
    if (cfg.issueWidth == 0)
        throw std::invalid_argument(
            "CoreConfig: issueWidth must be at least 1");
    if (cfg.fetchBufferEntries == 0)
        throw std::invalid_argument(
            "CoreConfig: fetchBufferEntries must be at least 1");
    return cfg;
}

} // namespace

OooCore::OooCore(const CoreConfig &cfg, FetchPredictor &predictor)
    : cfg_(validated(cfg)),
      predictor_(predictor),
      l1i_(cfg.l1iSizeBytes, cfg.l1iLineBytes, cfg.l1iAssoc, "l1i"),
      l1d_(cfg.l1dSizeBytes, cfg.l1dLineBytes, cfg.l1dAssoc, "l1d"),
      l2_(cfg.l2SizeBytes, cfg.l2LineBytes, cfg.l2Assoc, "l2"),
      btb_(cfg.btbEntries, cfg.btbAssoc),
      rob_(cfg.robEntries),
      unissuedMask_((cfg.robEntries + 63) / 64),
      regProducer_(64)
{
    completeHeap_.reserve(rob_.size());
}

OooCore::Producer
OooCore::producerOf(std::uint8_t reg) const
{
    if (reg == 0)
        return {};
    return regProducer_[reg];
}

bool
OooCore::producerDone(const Producer &p) const
{
    if (p.robSlot < 0)
        return true;
    const RobEntry &e = rob_[static_cast<std::size_t>(p.robSlot)];
    // The producing entry may have retired and its slot been reused;
    // the sequence number disambiguates.
    if (!e.valid || e.seq != p.seq)
        return true;
    return e.done && e.completeCycle <= cycle_;
}

unsigned
OooCore::loadLatency(Addr addr)
{
    if (l1d_.access(addr))
        return cfg_.l1dHitCycles;
    if (l2_.access(addr))
        return cfg_.l1dHitCycles + cfg_.l2HitCycles;
    return cfg_.l1dHitCycles + cfg_.l2HitCycles + cfg_.memoryCycles;
}

void
OooCore::fetchStage(const TraceBuffer &trace)
{
    if (fetchBlocked_) {
        // Waiting on a mispredicted branch: these are misprediction
        // recovery cycles, and every one squashes a fetch group's
        // worth of wrong-path micro-ops.
        ++result_.mispredictWaitCycles;
        result_.squashedUops += cfg_.issueWidth;
        return;
    }
    if (cycle_ < fetchStallUntil_) {
        switch (stallReason_) {
          case StallReason::Icache:
            ++result_.icacheStallCycles;
            break;
          case StallReason::Override:
            ++result_.frontEndStallCycles;
            ++result_.overrideStallCycles;
            result_.squashedUops += cfg_.issueWidth;
            break;
          case StallReason::BtbMiss:
            ++result_.frontEndStallCycles;
            ++result_.btbStallCycles;
            break;
          case StallReason::Redirect:
            ++result_.mispredictWaitCycles;
            result_.squashedUops += cfg_.issueWidth;
            break;
          case StallReason::None:
            break;
        }
        return;
    }
    stallReason_ = StallReason::None;

    for (unsigned n = 0; n < cfg_.issueWidth; ++n) {
        if (fetchIndex_ >= trace.size() ||
            fetchBuffer_.size() >= cfg_.fetchBufferEntries)
            return;

        const MicroOp &op = trace[fetchIndex_];

        // Instruction cache: one access per new line.
        const Addr line = op.pc / cfg_.l1iLineBytes;
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            if (!l1i_.access(op.pc)) {
                const unsigned stall = l2_.access(op.pc)
                                           ? cfg_.ifetchL2Cycles
                                           : cfg_.ifetchMemoryCycles;
                fetchStallUntil_ = cycle_ + stall;
                stallReason_ = StallReason::Icache;
                if (tracer_)
                    tracer_->record(cycle_, obs::SimEvent::CacheMiss,
                                    op.pc, stall);
                return; // refetch this op after the miss resolves
            }
        }

        bool mispredicted = false;
        bool ends_fetch_block = false;

        if (op.cls == InstClass::CondBranch) {
            const FetchPrediction fp = predictor_.predict(op.pc);
            predictor_.update(op.pc, op.taken);
            ++result_.condBranches;
            if (tracer_)
                tracer_->record(cycle_, obs::SimEvent::Predict,
                                op.pc, fp.taken == op.taken ? 0 : 1);
            if (fp.bubbleCycles > 0) {
                // Overriding disagreement (or stall-style delay):
                // the fetches behind this branch are squashed.
                fetchStallUntil_ = cycle_ + 1 + fp.bubbleCycles;
                stallReason_ = StallReason::Override;
                result_.overridingBubbleCycles += fp.bubbleCycles;
                ++result_.flushes;
                if (tracer_)
                    tracer_->record(cycle_,
                                    obs::SimEvent::OverrideDisagree,
                                    op.pc, fp.bubbleCycles);
                ends_fetch_block = true;
            }
            if (fp.taken != op.taken) {
                ++result_.mispredictions;
                ++result_.flushes;
                mispredicted = true;
                fetchBlocked_ = true;
                ends_fetch_block = true;
            } else if (fp.taken) {
                // Correctly predicted taken: need the target.
                const auto target = btb_.lookup(op.pc);
                if (!target || *target != op.extra) {
                    fetchStallUntil_ =
                        cycle_ + 1 + cfg_.btbMissPenalty;
                    stallReason_ = StallReason::BtbMiss;
                    result_.btbMissPenaltyCycles +=
                        cfg_.btbMissPenalty;
                    if (tracer_)
                        tracer_->record(cycle_,
                                        obs::SimEvent::BtbMiss,
                                        op.pc, cfg_.btbMissPenalty);
                }
                btb_.update(op.pc, op.extra);
                ends_fetch_block = true; // discontinuous fetch
            }
        } else if (op.cls == InstClass::UncondBranch) {
            const auto target = btb_.lookup(op.pc);
            if (!target || *target != op.extra) {
                fetchStallUntil_ = cycle_ + 1 + cfg_.btbMissPenalty;
                stallReason_ = StallReason::BtbMiss;
                result_.btbMissPenaltyCycles += cfg_.btbMissPenalty;
                if (tracer_)
                    tracer_->record(cycle_, obs::SimEvent::BtbMiss,
                                    op.pc, cfg_.btbMissPenalty);
            }
            btb_.update(op.pc, op.extra);
            ends_fetch_block = true;
        }

        if (tracer_ && n == 0)
            tracer_->record(cycle_, obs::SimEvent::Fetch, op.pc);
        fetchBuffer_.push_back(
            {static_cast<std::uint32_t>(fetchIndex_),
             cycle_ + cfg_.frontEndDepth, mispredicted});
        ++fetchIndex_;

        if (ends_fetch_block)
            return;
    }
}

void
OooCore::dispatchStage(const TraceBuffer &trace)
{
    if (robCount_ >= rob_.size() && !fetchBuffer_.empty() &&
        fetchBuffer_.front().dispatchReady <= cycle_) {
        ++result_.robStallCycles;
        if (tracer_)
            tracer_->record(
                cycle_, obs::SimEvent::RobStall,
                trace[fetchBuffer_.front().traceIndex].pc, robCount_);
    }
    for (unsigned n = 0; n < cfg_.issueWidth; ++n) {
        if (fetchBuffer_.empty() || robCount_ >= rob_.size())
            return;
        const FetchedInst &fi = fetchBuffer_.front();
        if (fi.dispatchReady > cycle_)
            return;

        RobEntry &e = rob_[robTail_];
        e.seq = nextSeq_++;
        e.traceIndex = fi.traceIndex;
        e.completeCycle = 0;
        e.done = false;
        e.mispredictedBranch = fi.mispredictedBranch;
        e.valid = true;

        const MicroOp &op = trace[fi.traceIndex];
        // Capture the operand producers *now*: dispatch order is
        // program order, so regProducer_ still names the youngest
        // older writer of each source register.
        e.prodA = producerOf(op.srcA);
        e.prodB = producerOf(op.srcB);
        if (op.dst != 0)
            regProducer_[op.dst] = {static_cast<std::int32_t>(robTail_),
                                    e.seq};

        unissuedMask_[robTail_ / 64] |= std::uint64_t{1} << (robTail_ % 64);
        robTail_ = (robTail_ + 1) % rob_.size();
        ++robCount_;
        ++unissuedCount_;
        fetchBuffer_.pop_front();
    }
}

void
OooCore::issueStage(const TraceBuffer &trace)
{
    // Oldest-first issue of ready instructions, bounded by issue
    // width and by a window of issueWidth * 8 unissued entries that
    // approximates a real issue queue. Invariant: bit s of
    // unissuedMask_ is set iff ROB slot s holds a dispatched entry
    // that has not issued. Slots at and above robHead_ are older
    // than slots below it, so the walk takes the head word's bits at
    // and above robHead_, then the following words (wrapping), and
    // last the head word's bits below robHead_ — the youngest.
    if (unissuedCount_ == 0)
        return;
    unsigned issued = 0;
    unsigned scanned = 0;
    const unsigned scan_limit = cfg_.issueWidth * 8;
    const std::size_t words = unissuedMask_.size();
    const std::uint64_t from_head = ~std::uint64_t{0} << (robHead_ % 64);
    std::size_t w = robHead_ / 64;
    for (std::size_t k = 0; k <= words; ++k) {
        std::uint64_t bits = unissuedMask_[w];
        if (k == 0)
            bits &= from_head;
        else if (k == words)
            bits &= ~from_head;
        for (; bits != 0; bits &= bits - 1) {
            if (issued == cfg_.issueWidth || scanned == scan_limit)
                return;
            const unsigned b = std::countr_zero(bits);
            const std::size_t slot = w * 64 + b;
            RobEntry &e = rob_[slot];
            ++scanned;
            if (!producerDone(e.prodA) || !producerDone(e.prodB))
                continue;
            const MicroOp &op = trace[e.traceIndex];

            unsigned latency = 1;
            switch (op.cls) {
              case InstClass::IntMul:
                latency = cfg_.mulCycles;
                break;
              case InstClass::Load:
                latency = loadLatency(op.extra);
                break;
              case InstClass::Store:
                latency = 1; // address generation; data written at commit
                break;
              default:
                latency = 1;
                break;
            }
            unissuedMask_[w] &= ~(std::uint64_t{1} << b);
            e.completeCycle = cycle_ + latency;
            ++issued;
            ++issuedNotDone_;
            --unissuedCount_;
            completeHeap_.push_back(
                (static_cast<std::uint64_t>(e.completeCycle) << 16) |
                static_cast<std::uint64_t>(slot));
            std::push_heap(completeHeap_.begin(), completeHeap_.end(),
                           std::greater<>{});
            nextCompleteCycle_ = completeHeap_.front() >> 16;
        }
        if (++w == words)
            w = 0;
    }
}

void
OooCore::completeStage(const TraceBuffer &trace)
{
    (void)trace; // used only when a tracer is attached
    if (issuedNotDone_ == 0 || cycle_ < nextCompleteCycle_)
        return;
    // Pop every due completion off the min-heap. Heap entries can
    // only be issued-and-not-done (see the member comment), so no
    // liveness re-checks are needed.
    while (!completeHeap_.empty() &&
           (completeHeap_.front() >> 16) <= cycle_) {
        const std::size_t slot =
            static_cast<std::size_t>(completeHeap_.front() & 0xffff);
        std::pop_heap(completeHeap_.begin(), completeHeap_.end(),
                      std::greater<>{});
        completeHeap_.pop_back();
        RobEntry &e = rob_[slot];
        e.done = true;
        --issuedNotDone_;
        if (e.mispredictedBranch) {
            // Branch resolution redirects fetch next cycle; the
            // redirect gap is part of the misprediction cost.
            if (tracer_)
                tracer_->record(cycle_,
                                obs::SimEvent::MispredictResolve,
                                trace[e.traceIndex].pc);
            fetchBlocked_ = false;
            if (fetchStallUntil_ <= cycle_)
                fetchStallUntil_ = cycle_ + 1;
            stallReason_ = StallReason::Redirect;
            // The refetched path starts a new cache line.
            lastFetchLine_ = ~Addr{0};
        }
    }
    nextCompleteCycle_ = completeHeap_.empty()
                             ? ~Cycle{0}
                             : completeHeap_.front() >> 16;
}

void
OooCore::commitStage(const TraceBuffer &trace)
{
    for (unsigned n = 0; n < cfg_.issueWidth; ++n) {
        if (robCount_ == 0)
            return;
        RobEntry &e = rob_[robHead_];
        if (!e.done || e.completeCycle > cycle_)
            return;
        const MicroOp &op = trace[e.traceIndex];
        if (op.cls == InstClass::Store) {
            // Stores write the memory system at commit.
            if (!l1d_.access(op.extra))
                l2_.access(op.extra);
        }
        ++result_.instructions;
        e.valid = false;
        robHead_ = (robHead_ + 1) % rob_.size();
        --robCount_;
    }
}

bool
OooCore::skipIdleCycles(const TraceBuffer &trace, Cycle max_cycles)
{
    // The skip is sound only when every stage is provably a no-op
    // until a computable wake event. Back end first: with no
    // unissued entries and every ROB entry in flight, commit (head
    // not done), complete (before nextCompleteCycle_) and issue
    // (nothing to pick) all do nothing.
    if (unissuedCount_ != 0 || robCount_ != issuedNotDone_)
        return false;

    constexpr Cycle kNever = ~Cycle{0};
    const bool stalled = cycle_ < fetchStallUntil_;
    Cycle wake;
    if (fetchBlocked_) {
        // Only branch resolution (a completion) restarts fetch.
        wake = kNever;
    } else if (stalled) {
        wake = fetchStallUntil_;
    } else if (fetchIndex_ >= trace.size() ||
               fetchBuffer_.size() >= cfg_.fetchBufferEntries) {
        // Fetch has nothing to fetch / nowhere to put it; only a
        // dispatch drain (bounded below by dispatchReady) changes
        // that.
        wake = kNever;
    } else {
        return false; // fetch does real work this cycle
    }

    Cycle target = wake;
    if (issuedNotDone_ > 0 && nextCompleteCycle_ < target)
        target = nextCompleteCycle_;
    // Dispatch acts (or counts a ROB stall) once the head of the
    // fetch buffer matures; never skip past that point.
    if (!fetchBuffer_.empty() &&
        fetchBuffer_.front().dispatchReady < target)
        target = fetchBuffer_.front().dispatchReady;
    if (max_cycles < target)
        target = max_cycles;
    if (target == kNever || target <= cycle_ + 1)
        return false; // nothing to gain (or no bounded wake event)

    // Bulk-apply exactly the per-cycle accounting fetchStage would
    // have performed in each skipped cycle. No tracer events are
    // emitted in these cycles, so the event stream is unchanged.
    const Cycle n = target - cycle_;
    if (fetchBlocked_) {
        result_.mispredictWaitCycles += n;
        result_.squashedUops += n * cfg_.issueWidth;
    } else if (stalled) {
        switch (stallReason_) {
          case StallReason::Icache:
            result_.icacheStallCycles += n;
            break;
          case StallReason::Override:
            result_.frontEndStallCycles += n;
            result_.overrideStallCycles += n;
            result_.squashedUops += n * cfg_.issueWidth;
            break;
          case StallReason::BtbMiss:
            result_.frontEndStallCycles += n;
            result_.btbStallCycles += n;
            break;
          case StallReason::Redirect:
            result_.mispredictWaitCycles += n;
            result_.squashedUops += n * cfg_.issueWidth;
            break;
          case StallReason::None:
            break;
        }
    }
    cycle_ = target;
    return true;
}

SimResult
OooCore::run(const TraceBuffer &trace)
{
    result_ = SimResult{};
    // Guard against a livelocked run ever looping forever. The
    // per-op allowance covers the longest legitimate serialization
    // of one op (an I-cache miss to memory, a front-end refill and a
    // load missing to memory, back to back) plus 64 cycles of slack
    // for predictor bubbles, BTB misses and multiplies, so a slow
    // but live configuration always drains before the guard.
    const Cycle per_op = 64 + Cycle{cfg_.ifetchMemoryCycles} +
                         cfg_.frontEndDepth + cfg_.l1dHitCycles +
                         cfg_.l2HitCycles + cfg_.memoryCycles;
    const std::size_t trace_size = trace.size();
    const Cycle max_cycles =
        static_cast<Cycle>(trace_size) * per_op + 100000;

    while ((fetchIndex_ < trace_size || robCount_ > 0 ||
            !fetchBuffer_.empty()) &&
           cycle_ < max_cycles) {
        if (cfg_.cycleSkip && skipIdleCycles(trace, max_cycles))
            continue;
        commitStage(trace);
        completeStage(trace);
        issueStage(trace);
        dispatchStage(trace);
        fetchStage(trace);
        ++cycle_;
    }

    if (fetchIndex_ < trace_size || robCount_ > 0 ||
        !fetchBuffer_.empty())
        throw std::runtime_error(
            "OooCore: the pipeline did not drain (livelock guard at "
            "cycle " +
            std::to_string(max_cycles) + "): " +
            std::to_string(result_.instructions) + " of " +
            std::to_string(trace_size) + " ops committed");
    result_.cycles = cycle_;
    result_.l1iMissRate = l1i_.missRate();
    result_.l1dMissRate = l1d_.missRate();
    result_.l2MissRate = l2_.missRate();
    result_.btbHitRate = btb_.hitRate();
    return result_;
}

} // namespace bpsim
