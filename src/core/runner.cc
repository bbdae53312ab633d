#include "core/runner.hh"

#include <cstdio>
#include <limits>
#include <map>
#include <typeindex>

#include "common/env.hh"
#include "common/stats.hh"
#include "core/dispatch.hh"
#include "core/ensemble.hh"
#include "parallel/cell_pool.hh"
#include "robust/cell_guard.hh"
#include "robust/deadline.hh"
#include "robust/run_manifest.hh"
#include "trace/shared_trace_pool.hh"
#include "workloads/registry.hh"

namespace bpsim {

namespace {

/**
 * The one accuracy replay loop, shared by the poll and non-poll
 * entry points so they cannot diverge. Iterates the trace's dense
 * conditional-branch view instead of skipping non-branch micro-ops.
 *
 * Templated over the predictor's *static* type: instantiated once
 * per concrete (final) predictor class via withConcretePredictor so
 * predict/update inline, and once at Pred=DirectionPredictor as the
 * virtual fallback for unknown types.
 */
template <typename Pred, typename Poll>
AccuracyResult
runAccuracyLoop(Pred &pred, const TraceBuffer &trace, Poll &&poll,
                Counter poll_interval)
{
    AccuracyResult r;
    Counter untilPoll = poll_interval;
    for (const BranchRecord &b : trace.branchView()) {
        const bool predicted = pred.predict(b.pc);
        pred.update(b.pc, b.taken);
        ++r.branches;
        if (predicted != b.taken)
            ++r.mispredictions;
        if (--untilPoll == 0) {
            poll();
            untilPoll = poll_interval;
        }
    }
    return r;
}

/** Monomorphize on the concrete type when known, else run the
 *  virtual-dispatch loop. Both paths are the same template, so they
 *  cannot diverge semantically. */
template <typename Poll>
AccuracyResult
runAccuracyDispatch(DirectionPredictor &pred, const TraceBuffer &trace,
                    Poll &&poll, Counter poll_interval)
{
    AccuracyResult r;
    const bool matched =
        withConcretePredictor(pred, [&](auto &concrete) {
            r = runAccuracyLoop(concrete, trace, poll, poll_interval);
        });
    if (!matched)
        r = runAccuracyLoop(pred, trace, poll, poll_interval);
    return r;
}

/** Run the cells serially or on the pool when one was passed. */
void
forEachCell(parallel::CellPool *pool, std::size_t count,
            const std::function<void(std::size_t)> &compute,
            const std::function<void(std::size_t)> &commit)
{
    if (pool) {
        pool->run(count, compute, commit);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        compute(i);
        commit(i);
    }
}

} // namespace

AccuracyResult
runAccuracy(DirectionPredictor &pred, const TraceBuffer &trace)
{
    return runAccuracyDispatch(
        pred, trace, [] {}, std::numeric_limits<Counter>::max());
}

AccuracyResult
runAccuracy(DirectionPredictor &pred, const TraceBuffer &trace,
            const std::function<void()> &poll, Counter poll_interval)
{
    return runAccuracyDispatch(pred, trace, poll, poll_interval);
}

AccuracyResult
runAccuracyVirtual(DirectionPredictor &pred, const TraceBuffer &trace)
{
    return runAccuracyLoop(
        pred, trace, [] {}, std::numeric_limits<Counter>::max());
}

SimResult
runTiming(const CoreConfig &cfg, FetchPredictor &pred,
          const TraceBuffer &trace)
{
    return runTiming(cfg, pred, trace, nullptr);
}

SimResult
runTiming(const CoreConfig &cfg, FetchPredictor &pred,
          const TraceBuffer &trace, obs::EventTracer *tracer)
{
    OooCore core(cfg, pred);
    core.attachTracer(tracer);
    return core.run(trace);
}

obs::RunReport::Row
reportRow(const std::string &workload, const std::string &predictor,
          std::size_t budget_bytes, const AccuracyResult &r)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = predictor;
    row.budgetBytes = budget_bytes;
    row.branches = r.branches;
    row.mispredictions = r.mispredictions;
    return row;
}

obs::RunReport::Row
reportRow(const std::string &workload, const std::string &predictor,
          const std::string &mode, std::size_t budget_bytes,
          const CoreConfig &cfg, const SimResult &r)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = predictor;
    row.mode = mode;
    row.budgetBytes = budget_bytes;
    row.branches = r.condBranches;
    row.mispredictions = r.mispredictions;
    row.hasTiming = true;
    row.issueWidth = cfg.issueWidth;
    row.cycles = r.cycles;
    row.instructions = r.instructions;
    row.squashedUops = r.squashedUops;
    row.flushes = r.flushes;
    row.flushCyclesOverride = r.overrideStallCycles;
    row.flushCyclesMispredict = r.mispredictWaitCycles;
    row.stallCyclesIcache = r.icacheStallCycles;
    row.stallCyclesBtb = r.btbStallCycles;
    row.robStallCycles = r.robStallCycles;
    return row;
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool)
    : SuiteTraces(ops_per_workload, seed, pool, TraceCache::fromEnv(),
                  false)
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, bool shared_pool)
    : SuiteTraces(ops_per_workload, seed, pool, TraceCache::fromEnv(),
                  shared_pool)
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, TraceCache cache)
    : SuiteTraces(ops_per_workload, seed, pool, std::move(cache),
                  false)
{
}

SuiteTraces::SuiteTraces(Counter ops_per_workload, std::uint64_t seed,
                         parallel::CellPool *pool, TraceCache cache,
                         bool shared_pool)
    : names_(specint2000Names()),
      opsPerWorkload_(ops_per_workload),
      seed_(seed),
      cache_(std::move(cache))
{
    traces_.resize(names_.size());
    std::vector<char> hit(names_.size(), 0);
    // Generation is deterministic per (workload, ops, seed) and each
    // cell writes only its own trace slot, so parallel construction
    // produces the exact traces serial construction would.
    const auto compute = [&](std::size_t i) {
        const auto generate = [&] {
            const auto w = makeWorkload(names_[i]);
            return generateTrace(*w, opsPerWorkload_, seed_);
        };
        if (shared_pool) {
            auto src = SharedTracePool::Source::Generated;
            traces_[i] = SharedTracePool::global().fetch(
                names_[i], opsPerWorkload_, seed_, cache_, generate,
                &src);
            hit[i] =
                src != SharedTracePool::Source::Generated ? 1 : 0;
        } else {
            bool fromCache = false;
            traces_[i] = std::make_shared<const TraceBuffer>(
                cache_.fetch(names_[i], opsPerWorkload_, seed_,
                             generate, &fromCache));
            hit[i] = fromCache ? 1 : 0;
        }
    };
    const auto commit = [&](std::size_t i) {
        if (hit[i])
            ++cacheHits_;
        else
            ++cacheMisses_;
    };
    forEachCell(pool, names_.size(), compute, commit);
}

void
SuiteTraces::describe(obs::RunReport &report) const
{
    report.opsPerWorkload = opsPerWorkload_;
    report.seed = seed_;
}

namespace {

/** Publish describeStats() gauges, tagging names with the workload. */
template <typename Pred>
void
publishPredictorStats(obs::MetricRegistry &reg, const Pred &pred,
                      const std::string &workload)
{
    for (const PredictorStat &s : pred.describeStats()) {
        // Splice the workload label into an existing {label} suffix
        // or append a fresh one.
        std::string name = s.name;
        if (!name.empty() && name.back() == '}')
            name.insert(name.size() - 1, ",workload=" + workload);
        else
            name += "{workload=" + workload + "}";
        reg.gauge(name).set(s.value);
    }
}

/** Trace-cache effectiveness gauges, stamped once per suite sweep. */
void
publishCacheStats(obs::MetricRegistry &reg, const SuiteTraces &suite)
{
    reg.gauge("trace.cache.hits")
        .set(static_cast<double>(suite.cacheHits()));
    reg.gauge("trace.cache.misses")
        .set(static_cast<double>(suite.cacheMisses()));
    reg.gauge("trace.cache.format_version")
        .set(static_cast<double>(TraceCache::kFormatVersion));
}

/** The RunReport / manifest key of one cell, before it has run. */
std::string
cellKey(const std::string &workload, const std::string &predictor,
        const std::string &mode, std::size_t budget_bytes)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = predictor;
    row.mode = mode;
    row.budgetBytes = budget_bytes;
    return row.key();
}

/** The SimResult fields a timing row carries (a resumed cell's). */
SimResult
simResultFromRow(const obs::RunReport::Row &row)
{
    SimResult r;
    r.condBranches = row.branches;
    r.mispredictions = row.mispredictions;
    r.cycles = row.cycles;
    r.instructions = row.instructions;
    r.squashedUops = row.squashedUops;
    r.flushes = row.flushes;
    r.overrideStallCycles = row.flushCyclesOverride;
    r.mispredictWaitCycles = row.flushCyclesMispredict;
    r.icacheStallCycles = row.stallCyclesIcache;
    r.btbStallCycles = row.stallCyclesBtb;
    r.robStallCycles = row.robStallCycles;
    return r;
}

/** How one cell of a sweep ended. */
enum class CellFate { Computed, Resumed, Failed };

/**
 * Per-cell bookkeeping of one sweep. Without a robust::CellGuard it
 * runs each cell once and appends its row. With one, each cell runs
 * under the guard's retry policy with a fresh deadline per attempt,
 * a cell the manifest already holds is skipped and replayed from its
 * cached row, a cell that exhausts its retries is annotated, and the
 * manifest is saved after every commit. Cells are indexed in commit
 * order; compute() may run on pool workers (it writes only its own
 * slot), commit() runs on the calling thread in index order.
 */
class CellLedger
{
  public:
    /** @p key names cell i like its report row; called only when
     *  guarded. The outcome counts (completed, resumed, failed,
     *  retries) accumulate into @p stats. Opening the manifest may
     *  throw RunManifestError. */
    CellLedger(const robust::CellGuard *guard, std::size_t count,
               const SuiteTraces &suite, const obs::RunReport &report,
               std::function<std::string(std::size_t)> key,
               EnsembleStats &stats)
        : guard_(guard), key_(std::move(key)), failed_(count, 0),
          stats_(stats)
    {
        if (!guard_)
            return;
        outcomes_.resize(count);
        resumed_.assign(count, 0);
        manifest_ = guard_->manifestPath.empty()
                        ? robust::RunManifest(report.experiment,
                                              suite.opsPerWorkload(),
                                              suite.seed())
                        : robust::RunManifest::open(
                              guard_->manifestPath, report.experiment,
                              suite.opsPerWorkload(), suite.seed());
        // Read once up front so workers never touch the manifest.
        for (std::size_t i = 0; i < count; ++i)
            resumed_[i] = manifest_.isDone(key_(i)) ? 1 : 0;
    }

    /** Run cell @p i as @p fn(deadline): once under an unlimited
     *  deadline without a guard, else retried unless resumed. */
    void
    compute(std::size_t i,
            const std::function<void(const robust::Deadline &)> &fn)
    {
        if (!guard_) {
            fn(robust::Deadline::unlimited());
            return;
        }
        if (resumed_[i])
            return;
        outcomes_[i] = robust::retryCall(guard_->retry, [&] {
            fn(guard_->cellTimeout.count() > 0
                   ? robust::Deadline::after(guard_->cellTimeout)
                   : robust::Deadline::unlimited());
        });
    }

    /**
     * Commit cell @p i: append @p row() when it computed, its cached
     * row when resumed, or an annotation when it failed; record the
     * outcome in the manifest and save it.
     */
    CellFate
    commit(std::size_t i, obs::RunReport &report,
           const std::function<obs::RunReport::Row()> &row)
    {
        if (!guard_) {
            report.rows.push_back(row());
            ++stats_.completed;
            return CellFate::Computed;
        }
        const std::string key = key_(i);
        if (resumed_[i]) {
            report.rows.push_back(
                obs::RunReport::Row::fromJson(manifest_.find(key)->row));
            ++stats_.resumed;
            return CellFate::Resumed;
        }
        const robust::RetryResult &r = outcomes_[i];
        stats_.retries += r.attempts > 0 ? r.attempts - 1 : 0;
        CellFate fate = CellFate::Computed;
        if (r.succeeded) {
            report.rows.push_back(row());
            manifest_.markDone(key, r.attempts,
                               report.rows.back().toJson());
            ++stats_.completed;
        } else {
            manifest_.markFailed(key, r.attempts, r.lastError);
            report.annotations.push_back(
                {key, "failed after " + std::to_string(r.attempts) +
                          " attempt(s): " + r.lastError});
            std::fprintf(stderr,
                         "robust: cell %s failed after %u "
                         "attempt(s): %s\n",
                         key.c_str(), r.attempts, r.lastError.c_str());
            failed_[i] = 1;
            ++stats_.failed;
            fate = CellFate::Failed;
        }
        if (!guard_->manifestPath.empty())
            manifest_.save(guard_->manifestPath);
        return fate;
    }

    /** True when cell @p i committed as a failure (it has no row). */
    bool failed(std::size_t i) const { return failed_[i] != 0; }

  private:
    const robust::CellGuard *guard_;
    std::function<std::string(std::size_t)> key_;
    robust::RunManifest manifest_;
    std::vector<char> resumed_;
    std::vector<char> failed_;
    std::vector<robust::RetryResult> outcomes_;
    EnsembleStats &stats_;
};

} // namespace

EnsembleStats
suiteAccuracyReportEnsemble(const SuiteTraces &suite,
                            std::vector<AccuracyCellConfig> &configs,
                            obs::RunReport &report,
                            obs::MetricRegistry *metrics,
                            parallel::CellPool *pool,
                            const robust::CellGuard *guard)
{
    suite.describe(report);
    if (metrics)
        publishCacheStats(*metrics, suite);
    const std::size_t nc = configs.size();
    const std::size_t nw = suite.size();

    // Per-cell predictor factory: the per-workload form wins when a
    // config carries one (fault-injection studies seed each cell's
    // plan by workload index).
    const auto makePred = [&configs](std::size_t c, std::size_t w) {
        return configs[c].makeForWorkload
                   ? configs[c].makeForWorkload(w)
                   : configs[c].make();
    };

    // Group configs by concrete predictor type using one probe
    // instance per config (construction is cheap next to replay; the
    // probes never see a branch). A group batches when its members
    // share one type the monomorphic dispatcher knows, it is at least
    // two wide, and the escape hatch is off. Wrapped members
    // (fault-injecting, protected) and unknown user types fail that
    // probe; they, lone configs and every config when BPSIM_ENSEMBLE=0
    // or a guard is passed run one (config, workload) cell at a time
    // through runAccuracy(). A guarded sweep thus never lets one
    // failure span several cells, and its compute cells are exactly
    // its config-major rows.
    std::vector<std::vector<std::size_t>> groups;
    std::vector<std::size_t> groupOf(nc);
    {
        std::map<std::type_index, std::size_t> byType;
        std::vector<std::vector<std::size_t>> candidates;
        const bool batching = ensembleEnabled() && !guard;
        for (std::size_t c = 0; c < nc; ++c) {
            if (!batching) {
                groups.push_back({c});
                continue;
            }
            const auto probe = makePred(c, 0);
            if (!withConcretePredictor(*probe, [](auto &) {})) {
                groups.push_back({c});
                continue;
            }
            const auto [it, fresh] =
                byType.emplace(typeid(*probe), candidates.size());
            if (fresh)
                candidates.push_back({c});
            else
                candidates[it->second].push_back(c);
        }
        for (auto &g : candidates)
            groups.push_back(std::move(g));
        for (std::size_t g = 0; g < groups.size(); ++g)
            for (std::size_t c : groups[g])
                groupOf[c] = g;
    }

    EnsembleStats stats;
    for (const auto &g : groups) {
        if (g.size() >= 2) {
            ++stats.groups;
            stats.batchedCells += g.size() * nw;
            stats.batchWidth = std::max(stats.batchWidth, g.size());
        } else {
            stats.serialCells += nw;
        }
    }

    CellLedger ledger(
        guard, nc * nw, suite, report,
        [&](std::size_t i) {
            const AccuracyCellConfig &c = configs[i / nw];
            return cellKey(suite.name(i % nw), c.name, "", c.budgetBytes);
        },
        stats);

    // Compute phase: one cell per (group, workload), fanned out on
    // the pool when one is passed. Each cell builds its own member
    // predictors, so cells stay independent; predictors are kept
    // until their row commits and publishes their describeStats().
    std::vector<std::vector<std::unique_ptr<DirectionPredictor>>>
        preds(nc);
    for (auto &row : preds)
        row.resize(nw);
    for (auto &cfg : configs)
        cfg.results.assign(nw, AccuracyResult{});
    const auto compute = [&](std::size_t cell) {
        const std::vector<std::size_t> &g = groups[cell / nw];
        const std::size_t w = cell % nw;
        ledger.compute(cell, [&](const robust::Deadline &deadline) {
            std::vector<DirectionPredictor *> members;
            members.reserve(g.size());
            for (std::size_t c : g) {
                preds[c][w] = makePred(c, w);
                members.push_back(preds[c][w].get());
            }
            if (g.size() >= 2 && ensembleBatchable(members)) {
                const auto results =
                    runAccuracyEnsemble(members, suite.trace(w));
                for (std::size_t k = 0; k < g.size(); ++k)
                    configs[g[k]].results[w] = results[k];
            } else {
                const auto poll = [&] {
                    deadline.check("accuracy cell");
                };
                for (std::size_t k = 0; k < g.size(); ++k)
                    configs[g[k]].results[w] =
                        deadline.unlimitedBudget()
                            ? runAccuracy(*members[k], suite.trace(w))
                            : runAccuracy(*members[k], suite.trace(w),
                                          poll);
            }
        });
    };

    // Commit phase, config-major / workload-minor: byte-identical
    // report rows and metrics to running the configs one after
    // another, each over every workload in suite order. Row (c, w)
    // goes out once its group's cell at workload w has committed.
    const auto emit = [&](std::size_t c, std::size_t w) {
        AccuracyCellConfig &cfg = configs[c];
        const std::size_t i = c * nw + w;
        const CellFate fate = ledger.commit(i, report, [&] {
            return reportRow(suite.name(w), cfg.name, cfg.budgetBytes,
                             cfg.results[w]);
        });
        if (fate == CellFate::Resumed) {
            const obs::RunReport::Row &row = report.rows.back();
            cfg.results[w] = {row.branches, row.mispredictions};
        } else if (fate == CellFate::Computed && metrics) {
            publishPredictorStats(*metrics, *preds[c][w], suite.name(w));
        }
        preds[c][w].reset();
        if (w + 1 == nw) {
            std::vector<double> percents;
            percents.reserve(nw);
            for (std::size_t k = 0; k < nw; ++k)
                if (!ledger.failed(c * nw + k))
                    percents.push_back(cfg.results[k].percent());
            cfg.meanPercent = arithmeticMean(percents);
        }
    };
    std::size_t next = 0; // next row to emit, config-major
    forEachCell(pool, groups.size() * nw, compute,
                [&](std::size_t cell) {
                    for (; next < nc * nw; ++next) {
                        const std::size_t c = next / nw;
                        const std::size_t w = next % nw;
                        if (groupOf[c] * nw + w > cell)
                            break;
                        emit(c, w);
                    }
                });

    if (metrics) {
        metrics->gauge("core.ensemble.batched_cells")
            .set(static_cast<double>(stats.batchedCells));
        metrics->gauge("core.ensemble.serial_cells")
            .set(static_cast<double>(stats.serialCells));
        metrics->gauge("core.ensemble.groups")
            .set(static_cast<double>(stats.groups));
        metrics->gauge("core.ensemble.batch_width")
            .set(static_cast<double>(stats.batchWidth));
    }
    return stats;
}

EnsembleStats
suiteTimingReportEnsemble(const SuiteTraces &suite,
                          std::vector<TimingCellConfig> &configs,
                          obs::RunReport &report,
                          obs::MetricRegistry *metrics,
                          obs::EventTracer *tracer,
                          parallel::CellPool *pool,
                          const robust::CellGuard *guard)
{
    suite.describe(report);
    if (metrics)
        publishCacheStats(*metrics, suite);
    const std::size_t nc = configs.size();
    const std::size_t nw = suite.size();
    for (TimingCellConfig &c : configs)
        c.results.assign(nw, SimResult{});
    EnsembleStats stats;
    stats.serialCells = nc * nw;
    CellLedger ledger(
        guard, nc * nw, suite, report,
        [&](std::size_t i) {
            const TimingCellConfig &c = configs[i / nw];
            return cellKey(suite.name(i % nw), c.name, c.mode,
                           c.budgetBytes);
        },
        stats);
    // One cell per (config, workload), config-major. A cell's
    // predictor lives until its commit publishes describeStats().
    // Timing cells never poll the deadline: OooCore's livelock guard
    // bounds them.
    std::vector<std::unique_ptr<FetchPredictor>> preds(nc * nw);
    // An event tracer records a single ordered stream; never fan its
    // runs out across workers.
    forEachCell(
        tracer ? nullptr : pool, nc * nw,
        [&](std::size_t cell) {
            TimingCellConfig &c = configs[cell / nw];
            const std::size_t w = cell % nw;
            ledger.compute(cell, [&](const robust::Deadline &) {
                preds[cell] =
                    c.makeForWorkload ? c.makeForWorkload(w) : c.make();
                c.results[w] = runTiming(c.cfg, *preds[cell],
                                         suite.trace(w), tracer);
            });
        },
        [&](std::size_t cell) {
            TimingCellConfig &c = configs[cell / nw];
            const std::size_t w = cell % nw;
            const CellFate fate = ledger.commit(cell, report, [&] {
                return reportRow(suite.name(w), c.name, c.mode,
                                 c.budgetBytes, c.cfg, c.results[w]);
            });
            if (fate == CellFate::Resumed) {
                c.results[w] = simResultFromRow(report.rows.back());
            } else if (fate == CellFate::Computed && metrics) {
                c.results[w].publishMetrics(*metrics, suite.name(w));
                publishPredictorStats(*metrics, *preds[cell],
                                      suite.name(w));
            }
            preds[cell].reset();
            if (w + 1 == nw) {
                std::vector<double> ipcs;
                ipcs.reserve(nw);
                for (std::size_t k = 0; k < nw; ++k)
                    if (!ledger.failed(cell - w + k))
                        ipcs.push_back(c.results[k].ipc());
                c.harmonicMeanIpc = harmonicMean(ipcs);
            }
        });

    return stats;
}

Counter
benchOpsPerWorkload(Counter fallback)
{
    const long long v = envPositiveDecimal("BPSIM_OPS_PER_WORKLOAD");
    return v > 0 ? static_cast<Counter>(v) : fallback;
}

} // namespace bpsim
