/**
 * @file
 * Test-only serial oracles for the suite sweeps: config by config,
 * workload by workload, one fresh predictor per cell through the
 * plain runner, with the same rows and metrics the sweeps publish.
 * The sweeps in core/runner.hh batch, fan out on a pool and commit
 * out of compute order; these loops do none of that, so a sweep
 * that matches them byte for byte changed nothing observable.
 */

#ifndef BPSIM_TESTS_SWEEP_ORACLE_HH
#define BPSIM_TESTS_SWEEP_ORACLE_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/runner.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "trace/trace_cache.hh"

namespace bpsim {

/** The suite's trace-cache gauges, as every sweep stamps them. */
inline void
oracleCacheGauges(const SuiteTraces &suite, obs::MetricRegistry &metrics)
{
    metrics.gauge("trace.cache.hits")
        .set(static_cast<double>(suite.cacheHits()));
    metrics.gauge("trace.cache.misses")
        .set(static_cast<double>(suite.cacheMisses()));
    metrics.gauge("trace.cache.format_version")
        .set(static_cast<double>(TraceCache::kFormatVersion));
}

/** describeStats() gauges with the workload spliced into their
 *  labels. */
inline void
oraclePredictorGauges(obs::MetricRegistry &metrics,
                      const std::vector<PredictorStat> &stats,
                      const std::string &workload)
{
    for (const PredictorStat &st : stats) {
        std::string name = st.name;
        if (!name.empty() && name.back() == '}')
            name.insert(name.size() - 1, ",workload=" + workload);
        else
            name += "{workload=" + workload + "}";
        metrics.gauge(name).set(st.value);
    }
}

/**
 * Serial oracle for suiteAccuracyReportEnsemble: for each config in
 * list order, every workload in suite order through runAccuracy(),
 * appending its row and publishing its predictor's gauges into
 * @p metrics when non-null, then the config's arithmetic mean.
 */
inline void
accuracyOracle(const SuiteTraces &suite,
               std::vector<AccuracyCellConfig> &configs,
               obs::RunReport &report,
               obs::MetricRegistry *metrics = nullptr)
{
    suite.describe(report);
    if (metrics)
        oracleCacheGauges(suite, *metrics);
    for (AccuracyCellConfig &c : configs) {
        c.results.clear();
        std::vector<double> percents;
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const auto pred =
                c.makeForWorkload ? c.makeForWorkload(w) : c.make();
            const AccuracyResult r = runAccuracy(*pred, suite.trace(w));
            report.rows.push_back(
                reportRow(suite.name(w), c.name, c.budgetBytes, r));
            if (metrics)
                oraclePredictorGauges(*metrics, pred->describeStats(),
                                      suite.name(w));
            c.results.push_back(r);
            percents.push_back(r.percent());
        }
        c.meanPercent = arithmeticMean(percents);
    }
}

} // namespace bpsim

#endif // BPSIM_TESTS_SWEEP_ORACLE_HH
