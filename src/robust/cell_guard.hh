/**
 * @file
 * The hardening a suite sweep can run its cells under.
 *
 * Passed to suiteAccuracyReportEnsemble / suiteTimingReportEnsemble
 * (core/runner.hh), a CellGuard turns on the three robustness
 * mechanisms of this subsystem for every (config, workload) cell:
 *
 *  - RetryPolicy: a cell that throws a std::exception is retried
 *    with bounded exponential backoff and deterministic jitter;
 *  - Deadline: each attempt gets a fresh per-cell time budget that
 *    accuracy replays poll (DeadlineExceeded is just another
 *    retriable failure);
 *  - RunManifest: after every committed cell the checkpoint is
 *    atomically rewritten, so a killed campaign restarted with the
 *    same manifest path skips completed cells (replaying their
 *    cached rows — the final report is byte-identical to an
 *    uninterrupted run), and a cell that keeps failing is annotated
 *    in the partial RunReport instead of sinking the campaign.
 */

#ifndef BPSIM_ROBUST_CELL_GUARD_HH
#define BPSIM_ROBUST_CELL_GUARD_HH

#include <chrono>
#include <string>

#include "robust/retry.hh"

namespace bpsim::robust {

/** Manifest, retry and deadline of a guarded sweep; see file
 *  comment. */
struct CellGuard
{
    /** Checkpoint file; "" disables persistence (cells still retry
     *  and annotate, but never resume). */
    std::string manifestPath;
    /** Backoff policy for failed cells. */
    RetryPolicy retry;
    /** Per-attempt deadline; zero = unlimited. */
    std::chrono::milliseconds cellTimeout{0};
};

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_CELL_GUARD_HH
