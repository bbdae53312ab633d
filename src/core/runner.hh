/**
 * @file
 * Experiment runners: accuracy-only simulation (Figures 1, 5, 6) and
 * full timing simulation (Figures 2, 7, 8), plus suite-level
 * orchestration over the twelve SPECint stand-ins with the paper's
 * reductions (arithmetic-mean misprediction, harmonic-mean IPC).
 *
 * Both suite sweeps optionally take a parallel::CellPool: when one
 * is passed, the (config, workload) cells execute concurrently on the
 * pool's workers while rows and metrics are committed in row order
 * on the calling thread, so a parallel run's RunReport is
 * byte-identical to the serial one. The predictor factory closure is
 * then invoked concurrently and must be safe to call from multiple
 * threads (the stock makePredictor/makeFetchPredictor factories are).
 *
 * Both also take an optional robust::CellGuard (robust/cell_guard.hh),
 * the one hardened execution path: each cell is retried under a fresh
 * deadline, a cell that exhausts its retries becomes a report
 * annotation instead of an exception, and with a manifest path every
 * commit checkpoints the campaign, so a killed sweep restarted with
 * the same manifest replays its finished cells and writes a report
 * byte-identical to an uninterrupted one. A replayed cell publishes
 * no predictor gauges (its predictor never ran).
 */

#ifndef BPSIM_CORE_RUNNER_HH
#define BPSIM_CORE_RUNNER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "pipeline/fetch_predictor.hh"
#include "predictors/predictor.hh"
#include "sim/core_config.hh"
#include "sim/ooo_core.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cache.hh"
#include "workloads/workload.hh"

namespace bpsim {

namespace parallel {
class CellPool;
} // namespace parallel

namespace robust {
struct CellGuard;
} // namespace robust

/** Result of an accuracy-only run. */
struct AccuracyResult
{
    Counter branches = 0;
    Counter mispredictions = 0;

    double
    percent() const
    {
        return branches ? 100.0 * static_cast<double>(mispredictions) /
                              static_cast<double>(branches)
                        : 0.0;
    }
};

/** Replay every conditional branch of @p trace through @p pred. */
AccuracyResult runAccuracy(DirectionPredictor &pred,
                           const TraceBuffer &trace);

/**
 * As above, invoking @p poll every @p poll_interval conditional
 * branches. Intended for cooperative watchdogs: a suite cell passes
 * a closure that calls Deadline::check() so a wedged or oversized
 * run aborts with DeadlineExceeded instead of hanging the campaign.
 */
AccuracyResult runAccuracy(DirectionPredictor &pred,
                           const TraceBuffer &trace,
                           const std::function<void()> &poll,
                           Counter poll_interval = 65536);

/**
 * The virtual-dispatch replay loop, bypassing the monomorphic
 * fast path that runAccuracy() takes for factory-built predictor
 * types. Exists so equivalence tests and microbenchmarks can compare
 * the two paths; results are always identical.
 */
AccuracyResult runAccuracyVirtual(DirectionPredictor &pred,
                                  const TraceBuffer &trace);

/** Run the timing simulator over @p trace with @p pred. */
SimResult runTiming(const CoreConfig &cfg, FetchPredictor &pred,
                    const TraceBuffer &trace);

/** As above, with per-cycle events recorded into @p tracer
 *  (ignored when nullptr). */
SimResult runTiming(const CoreConfig &cfg, FetchPredictor &pred,
                    const TraceBuffer &trace,
                    obs::EventTracer *tracer);

/** Build a RunReport row from one accuracy run. */
obs::RunReport::Row reportRow(const std::string &workload,
                              const std::string &predictor,
                              std::size_t budget_bytes,
                              const AccuracyResult &r);

/** Build a RunReport row from one timing run. */
obs::RunReport::Row reportRow(const std::string &workload,
                              const std::string &predictor,
                              const std::string &mode,
                              std::size_t budget_bytes,
                              const CoreConfig &cfg,
                              const SimResult &r);

/**
 * Generates and caches one trace per SPECint workload so that every
 * predictor configuration in an experiment sees the same streams
 * (the paper's methodology). Trace length and seed are fixed at
 * construction.
 *
 * Traces come from the on-disk TraceCache when one is enabled
 * (BPSIM_TRACE_CACHE, or an explicit cache for tests) and are
 * generated — in parallel across workloads when a pool is passed —
 * otherwise. Generation is deterministic per (workload, ops, seed),
 * so cached, parallel and serial construction all yield identical
 * traces.
 *
 * When constructed with shared_pool = true, the buffers come from
 * the process-wide SharedTracePool: suites with the same key share
 * one read-only copy instead of each holding a private gigabyte.
 * The benches opt in; suites whose metrics are byte-compared against
 * a private-copy baseline (tests) keep the default private copies.
 * Either way a suite's traces are bitwise identical — only memory
 * ownership differs.
 */
class SuiteTraces
{
  public:
    /**
     * @param ops_per_workload Dynamic instructions per workload.
     * @param seed Generation seed.
     * @param pool Optional executor for parallel generation.
     */
    explicit SuiteTraces(Counter ops_per_workload,
                         std::uint64_t seed = 42,
                         parallel::CellPool *pool = nullptr);

    /** As above, sharing buffers through SharedTracePool::global()
     *  when @p shared_pool is true. A pool hit counts as a cache
     *  hit; only actual generation counts as a miss. */
    SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                parallel::CellPool *pool, bool shared_pool);

    /** As above with an explicit cache instead of BPSIM_TRACE_CACHE. */
    SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                parallel::CellPool *pool, TraceCache cache);

    std::size_t size() const { return traces_.size(); }
    const std::string &name(std::size_t i) const { return names_[i]; }
    const TraceBuffer &trace(std::size_t i) const
    {
        return *traces_[i];
    }
    Counter opsPerWorkload() const { return opsPerWorkload_; }
    std::uint64_t seed() const { return seed_; }

    /** Workloads served without generating: from the on-disk cache
     *  or (shared_pool mode) already materialized in-process. */
    Counter cacheHits() const { return cacheHits_; }
    /** Workloads generated (and stored when a cache is enabled). */
    Counter cacheMisses() const { return cacheMisses_; }

    /** Stamp generation parameters into @p report 's header. */
    void describe(obs::RunReport &report) const;

  private:
    SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                parallel::CellPool *pool, TraceCache cache,
                bool shared_pool);

    std::vector<std::string> names_;
    std::vector<std::shared_ptr<const TraceBuffer>> traces_;
    Counter opsPerWorkload_;
    std::uint64_t seed_;
    TraceCache cache_;
    Counter cacheHits_ = 0;
    Counter cacheMisses_ = 0;
};

/**
 * One configuration of an accuracy sweep: a predictor factory plus
 * its per-workload outputs. The accuracy drivers (fig1/fig5/fig6,
 * the studies and ablations) build one of these per configuration,
 * in row order, and hand the whole list to
 * suiteAccuracyReportEnsemble, which batches bare perceptron configs
 * and replays every other config one cell at a time.
 */
struct AccuracyCellConfig
{
    AccuracyCellConfig() = default;
    /** Input-only construction, the form the sweep drivers use
     *  (output members start empty). */
    AccuracyCellConfig(
        std::function<std::unique_ptr<DirectionPredictor>()> make_,
        std::string name_, std::size_t budget_bytes)
        : make(std::move(make_)), name(std::move(name_)),
          budgetBytes(budget_bytes)
    {}

    /** Factory for this configuration (fresh instance per workload;
     *  must be callable from pool workers). */
    std::function<std::unique_ptr<DirectionPredictor>()> make;
    /**
     * Optional per-workload factory, taking the suite workload
     * index; wins over @c make when set. The fault-injection studies
     * use this to give every (config, workload) cell its own seeded
     * FaultPlan. The built type must not depend on the index — the
     * grouping probe keys on workload 0's instance.
     */
    std::function<std::unique_ptr<DirectionPredictor>(std::size_t)>
        makeForWorkload;
    /** Predictor name for report rows. */
    std::string name;
    /** Hardware budget for report rows. */
    std::size_t budgetBytes = 0;

    // Outputs, filled by suiteAccuracyReportEnsemble:
    /** Arithmetic-mean misprediction percent across the suite. */
    double meanPercent = 0.0;
    /** Per-workload results, in suite workload order. */
    std::vector<AccuracyResult> results;
};

/**
 * How a sweep executed. Only accuracy sweeps batch (published as
 * core.ensemble.*); a timing sweep reports every cell in
 * serialCells and zero in the batching fields. The outcome fields
 * count (config, workload) cells; without a guard every cell
 * completes (or the sweep throws).
 */
struct EnsembleStats
{
    /** Accuracy (config x workload) cells replayed inside a batched
     *  group of bare perceptrons. */
    std::size_t batchedCells = 0;
    /** Cells replayed one at a time: every accuracy config that is
     *  not a bare perceptron with a sibling, and every timing cell. */
    std::size_t serialCells = 0;
    /** Batched accuracy groups formed. */
    std::size_t groups = 0;
    /** Widest batched accuracy group (member count). */
    std::size_t batchWidth = 0;

    /** Cells computed to a row in this call. */
    std::size_t completed = 0;
    /** Cells replayed from the guard's manifest. */
    std::size_t resumed = 0;
    /** Cells that exhausted the guard's retries (annotated). */
    std::size_t failed = 0;
    /** Extra attempts spent on retried cells. */
    std::size_t retries = 0;
};

/**
 * Run every configuration in @p configs over @p suite, batching
 * perceptron budgets through the ensemble engine
 * (core/ensemble.hh), which builds their shared input vector once
 * per branch instead of once per config.
 *
 * Each config's cells build a fresh predictor per workload
 * (@c makeForWorkload when set, else @c make). Configs group by the
 * concrete type of their workload-0 instance when ensembleBatchable
 * accepts that type: two or more bare perceptron configs batch
 * together. Every other config (other kinds, configs wrapped in the
 * robustness decorators FaultInjectingPredictor and
 * ProtectedPredictor, unknown user types), and every config when
 * BPSIM_ENSEMBLE=0 or @p guard is set, runs one (config, workload)
 * cell at a time through runAccuracy(); a guarded cell polls its
 * deadline every 65,536 branches. A cell frees its predictors when
 * it has run, after snapshotting their describeStats() when
 * @p metrics is non-null.
 *
 * Equivalence contract: the appended report rows, the published
 * metrics (bar the extra core.ensemble.* gauges) and each config's
 * results/meanPercent are byte-identical to running the configs one
 * after another through runAccuracy(), workload by workload, at any
 * pool size — rows are emitted config-major, workload-minor, each
 * once its cell has computed. Each config's predictors publish their
 * describeStats() gauges into @p metrics (when non-null) under
 * `{workload=...}` labels, with the suite's trace-cache gauges
 * stamped once. With @p guard, see the file comment; the manifest
 * must carry report.experiment and the suite's trace length and seed
 * (robust::RunManifest::open), and a failed cell leaves its result
 * zeroed and out of meanPercent.
 */
EnsembleStats suiteAccuracyReportEnsemble(
    const SuiteTraces &suite,
    std::vector<AccuracyCellConfig> &configs,
    obs::RunReport &report, obs::MetricRegistry *metrics = nullptr,
    parallel::CellPool *pool = nullptr,
    const robust::CellGuard *guard = nullptr);

/**
 * One configuration of a timing sweep: a fetch-predictor factory
 * plus core parameters and per-workload outputs. The timing sweep
 * drivers (fig2/fig7/fig8 and the pipeline/delay ablations) build
 * one per (kind, mode, budget), in row order, and hand the whole
 * list to suiteTimingReportEnsemble.
 */
struct TimingCellConfig
{
    TimingCellConfig() = default;
    /** Input-only construction, the form the sweep drivers use
     *  (output members start empty). */
    TimingCellConfig(
        std::function<std::unique_ptr<FetchPredictor>()> make_,
        std::string name_, std::string mode_,
        std::size_t budget_bytes, CoreConfig cfg_)
        : make(std::move(make_)), name(std::move(name_)),
          mode(std::move(mode_)), budgetBytes(budget_bytes),
          cfg(cfg_)
    {}

    /** Factory for this configuration (fresh instance per workload;
     *  must be callable from pool workers). */
    std::function<std::unique_ptr<FetchPredictor>()> make;
    /**
     * Optional per-workload factory, taking the suite workload
     * index; wins over @c make when set. The fault-injection studies
     * use this to give every (config, workload) cell its own seeded
     * FaultPlan.
     */
    std::function<std::unique_ptr<FetchPredictor>(std::size_t)>
        makeForWorkload;
    /** Predictor name for report rows. */
    std::string name;
    /** Delay-mode string for report rows. */
    std::string mode;
    /** Hardware budget for report rows. */
    std::size_t budgetBytes = 0;
    /** Core parameters for this configuration (the pipeline-depth
     *  study sweeps them). */
    CoreConfig cfg;

    // Outputs, filled by suiteTimingReportEnsemble:
    /** Harmonic-mean IPC across the suite (Figure 7/8 reduction). */
    double harmonicMeanIpc = 0.0;
    /** Per-workload results, in suite workload order. */
    std::vector<SimResult> results;
};

/**
 * Run every timing configuration in @p configs over @p suite: one
 * cell per (config, workload), config-major, each a fresh predictor
 * (@c makeForWorkload when set, else @c make) through runTiming().
 * Cells commit in that order, so the appended report rows are
 * config-major / workload-minor at any pool size. Each commit
 * appends the row, publishes the SimResult counters and the
 * predictor's describeStats() gauges into @p metrics (when
 * non-null) under `{workload=...}` labels, then frees the
 * predictor; a config's last commit sets its harmonicMeanIpc (the
 * Figure 7/8 reduction). A non-null @p tracer records every run's
 * events and forces serial execution — the event stream is
 * ordered. Returns serialCells = configs x workloads; timing cells
 * are never batched, whatever BPSIM_ENSEMBLE says. @p guard works as
 * for accuracy sweeps, except that timing cells never poll the
 * deadline (OooCore's livelock guard bounds them); a failed cell
 * stays out of harmonicMeanIpc.
 */
EnsembleStats suiteTimingReportEnsemble(
    const SuiteTraces &suite, std::vector<TimingCellConfig> &configs,
    obs::RunReport &report, obs::MetricRegistry *metrics = nullptr,
    obs::EventTracer *tracer = nullptr,
    parallel::CellPool *pool = nullptr,
    const robust::CellGuard *guard = nullptr);

/**
 * Default trace length for benches; reads BPSIM_OPS_PER_WORKLOAD
 * from the environment (so the sweeps can be scaled up to
 * paper-length runs) and falls back to @p fallback when it is unset
 * or not a whole positive decimal.
 */
Counter benchOpsPerWorkload(Counter fallback = 400000);

} // namespace bpsim

#endif // BPSIM_CORE_RUNNER_HH
