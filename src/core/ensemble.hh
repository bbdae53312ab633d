/**
 * @file
 * Batched ensemble replay: several perceptron budgets in one pass
 * over a trace.
 *
 * A figure sweep replays the same branch stream through many
 * budgets of one predictor kind. For the perceptron most of a
 * serial branch goes into building the ±1 input vector from the
 * histories, and every budget of a sweep builds the same vector. The
 * batched kernel (PerceptronBatch in ensemble.cc) walks the trace's
 * dense branch columns once, keeps ONE shared input window and ONE
 * shared local-history table, and each member pays only its own dot
 * product and training step. That is the one batching that pays
 * (a nine-budget group costs about a quarter less per member-branch
 * than one member alone). For gshare, Bi-Mode and multi-component a
 * batched loop measured the same as the serial one (runAccuracy's
 * inlined per-type loop), so they replay serially;
 * docs/PERFORMANCE.md has the measurements.
 *
 * Determinism contract: members are independent, and the shared
 * history state evolves exactly as each member's own would (every
 * member sees the same predict(pc) / update(pc, taken) sequence).
 * The final history state is written back to each member, so every
 * member ends bit-identical to a serial run and the per-member
 * AccuracyResults are byte-identical to runAccuracy()'s
 * (golden-tested across all kinds and budgets in
 * tests/test_ensemble.cc).
 *
 * Grouping rule (the capability probe): a member list is batchable
 * when it has at least two members and every member is a bare
 * PerceptronPredictor. Members wrapped in the stock robustness
 * decorators (FaultInjectingPredictor, ProtectedPredictor), other
 * kinds and unknown user subclasses fail the probe and replay
 * serially through runAccuracy().
 */

#ifndef BPSIM_CORE_ENSEMBLE_HH
#define BPSIM_CORE_ENSEMBLE_HH

#include <vector>

#include "core/runner.hh"
#include "predictors/predictor.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {

/**
 * True when @p members can be replayed as one batched group: at
 * least two, every one a bare PerceptronPredictor. Anything else —
 * null entries, other kinds, wrapped members, unknown user
 * subclasses — returns false, and the caller runs it serially.
 */
bool ensembleBatchable(
    const std::vector<DirectionPredictor *> &members);

/**
 * Replay every conditional branch of @p trace through all
 * @p members. A batchable group of fresh perceptrons with one local
 * geometry runs the shared-input kernel in one pass; any other list
 * gets one runAccuracy() per member. Returns one AccuracyResult per
 * member, in member order, each identical to what
 * runAccuracy(member, trace) would have produced, and leaves every
 * member's visible state (visitState, describeStats) as that run
 * would. Throws std::invalid_argument
 * on a null member.
 */
std::vector<AccuracyResult>
runAccuracyEnsemble(const std::vector<DirectionPredictor *> &members,
                    const TraceBuffer &trace);

/** False when BPSIM_ENSEMBLE=0 — the escape hatch that forces every
 *  accuracy sweep (suiteAccuracyReportEnsemble) down the serial path
 *  for A/B identity testing. Timing sweeps always run serially and
 *  ignore it. */
bool ensembleEnabled();

} // namespace bpsim

#endif // BPSIM_CORE_ENSEMBLE_HH
