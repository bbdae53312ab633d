/** @file Tests for the experiment runners. */

#include "core/runner.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hh"
#include "core/factory.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "parallel/cell_pool.hh"
#include "predictors/static_pred.hh"
#include "robust/fault_injector.hh"
#include "sim_result_equal.hh"
#include "sweep_oracle.hh"
#include "workloads/registry.hh"

namespace bpsim {
namespace {

TEST(AccuracyRunner, CountsOnlyConditionalBranches)
{
    TraceBuffer t;
    MicroOp alu;
    alu.cls = InstClass::IntAlu;
    MicroOp br;
    br.cls = InstClass::CondBranch;
    br.pc = 0x40;
    br.taken = true;
    MicroOp jmp;
    jmp.cls = InstClass::UncondBranch;
    jmp.taken = true;
    for (int i = 0; i < 10; ++i) {
        t.push(alu);
        t.push(br);
        t.push(jmp);
    }
    StaticPredictor never(false);
    const auto r = runAccuracy(never, t);
    EXPECT_EQ(r.branches, 10u);
    EXPECT_EQ(r.mispredictions, 10u);
    EXPECT_DOUBLE_EQ(r.percent(), 100.0);
}

TEST(SuiteTraces, BuildsAllTwelveOnce)
{
    SuiteTraces suite(20000, 1);
    ASSERT_EQ(suite.size(), 12u);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite.name(i), specint2000Names()[i]);
        EXPECT_EQ(suite.trace(i).size(), 20000u);
        EXPECT_GT(suite.trace(i).condBranches(), 0u);
    }
}

TEST(SuiteAccuracy, MeanIsArithmeticOverWorkloads)
{
    SuiteTraces suite(15000, 2);
    std::vector<AccuracyCellConfig> configs;
    configs.emplace_back(
        [] { return std::make_unique<StaticPredictor>(true); },
        "static", 0);
    obs::RunReport report;
    suiteAccuracyReportEnsemble(suite, configs, report);
    const auto &res = configs[0].results;
    ASSERT_EQ(res.size(), 12u);
    double acc = 0;
    for (const auto &r : res)
        acc += r.percent();
    EXPECT_NEAR(configs[0].meanPercent, acc / 12.0, 1e-12);
}

TEST(SuiteTiming, HarmonicMeanAndPerWorkloadResults)
{
    SuiteTraces suite(15000, 3);
    std::vector<TimingCellConfig> configs;
    configs.emplace_back(
        [] {
            return std::make_unique<SingleCycleFetchPredictor>(
                std::make_unique<StaticPredictor>(true));
        },
        "static", "ideal", 0, CoreConfig{});
    obs::RunReport report;
    suiteTimingReportEnsemble(suite, configs, report);
    const auto &res = configs[0].results;
    const double hm = configs[0].harmonicMeanIpc;
    ASSERT_EQ(res.size(), 12u);
    std::vector<double> ipcs;
    for (const auto &r : res) {
        EXPECT_GT(r.ipc(), 0.0);
        ipcs.push_back(r.ipc());
    }
    EXPECT_NEAR(hm, harmonicMean(ipcs), 1e-12);
    EXPECT_LE(hm, arithmeticMean(ipcs));
}

// ---------------------------------------------------------------
// The timing sweep (suiteTimingReportEnsemble) against a plain
// serial loop.
// ---------------------------------------------------------------

/**
 * Test-only oracle for suiteTimingReportEnsemble: config by config,
 * workload by workload, runTiming + reportRow + harmonicMean, with
 * the same metrics (cache gauges, SimResult counters, workload-
 * labelled describeStats() gauges) published along the way.
 */
void
timingOracle(const SuiteTraces &suite,
             std::vector<TimingCellConfig> &configs,
             obs::RunReport &report, obs::MetricRegistry &metrics,
             obs::EventTracer *tracer = nullptr)
{
    suite.describe(report);
    oracleCacheGauges(suite, metrics);
    for (TimingCellConfig &c : configs) {
        c.results.clear();
        std::vector<double> ipcs;
        for (std::size_t w = 0; w < suite.size(); ++w) {
            const auto pred =
                c.makeForWorkload ? c.makeForWorkload(w) : c.make();
            const SimResult r =
                runTiming(c.cfg, *pred, suite.trace(w), tracer);
            report.rows.push_back(reportRow(suite.name(w), c.name,
                                            c.mode, c.budgetBytes,
                                            c.cfg, r));
            r.publishMetrics(metrics, suite.name(w));
            oraclePredictorGauges(metrics, pred->describeStats(),
                                  suite.name(w));
            c.results.push_back(r);
            ipcs.push_back(r.ipc());
        }
        c.harmonicMeanIpc = harmonicMean(ipcs);
    }
}

/** A fig7-shaped config list: a perceptron overriding family,
 *  gshare.fast on the default and a deeper core, and a protected
 *  fetch predictor. */
std::vector<TimingCellConfig>
timingConfigs()
{
    std::vector<TimingCellConfig> configs;
    const CoreConfig cfg;
    for (const std::size_t budget : {16u * 1024, 64u * 1024})
        configs.push_back({[budget] {
                               return makeFetchPredictor(
                                   PredictorKind::Perceptron, budget,
                                   DelayMode::Overriding);
                           },
                           kindName(PredictorKind::Perceptron),
                           delayModeName(DelayMode::Overriding),
                           budget,
                           cfg});
    CoreConfig deep;
    deep.frontEndDepth = 30;
    for (const CoreConfig &core : {cfg, deep})
        configs.push_back({[] {
                               return makeFetchPredictor(
                                   PredictorKind::GshareFast,
                                   16 * 1024, DelayMode::Ideal);
                           },
                           kindName(PredictorKind::GshareFast),
                           delayModeName(DelayMode::Ideal) + "@depth" +
                               std::to_string(core.frontEndDepth),
                           16 * 1024,
                           core});
    robust::ProtectionConfig prot;
    prot.policy = robust::ProtectionPolicy::ParityInvalidate;
    configs.push_back({[prot] {
                           return makeProtectedFetchPredictor(
                               PredictorKind::Gshare, 16 * 1024,
                               DelayMode::Overriding, prot,
                               robust::FaultPlan{});
                       },
                       "gshare.prot",
                       delayModeName(DelayMode::Overriding),
                       16 * 1024,
                       cfg});
    return configs;
}

/** Same report bytes, metrics bytes and per-config outputs. */
void
expectSameSweep(const obs::RunReport &report,
                const obs::MetricRegistry &metrics,
                const std::vector<TimingCellConfig> &got,
                const obs::RunReport &refReport,
                const obs::MetricRegistry &refMetrics,
                const std::vector<TimingCellConfig> &ref,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(report.toJson().dump(2), refReport.toJson().dump(2));
    EXPECT_EQ(metrics.toJson().dump(2), refMetrics.toJson().dump(2));
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].harmonicMeanIpc, ref[i].harmonicMeanIpc);
        ASSERT_EQ(got[i].results.size(), ref[i].results.size());
        for (std::size_t w = 0; w < ref[i].results.size(); ++w)
            expectIdentical(got[i].results[w], ref[i].results[w],
                            ref[i].name + "/" + ref[i].mode + " w" +
                                std::to_string(w));
    }
}

TEST(TimingSweep, MatchesOracleAtAnyPoolSize)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    std::vector<TimingCellConfig> ref = timingConfigs();
    obs::RunReport refReport;
    obs::MetricRegistry refMetrics;
    timingOracle(suite, ref, refReport, refMetrics);

    for (const unsigned jobs : {0u, 1u, 2u, 4u}) {
        std::vector<TimingCellConfig> configs = timingConfigs();
        obs::RunReport report;
        obs::MetricRegistry metrics;
        std::unique_ptr<parallel::CellPool> pool;
        if (jobs > 0)
            pool = std::make_unique<parallel::CellPool>(jobs);
        const EnsembleStats stats = suiteTimingReportEnsemble(
            suite, configs, report, &metrics, nullptr, pool.get());
        expectSameSweep(report, metrics, configs, refReport,
                        refMetrics, ref,
                        "jobs " + std::to_string(jobs));
        // Timing cells never batch.
        EXPECT_EQ(stats.serialCells, configs.size() * suite.size());
        EXPECT_EQ(stats.batchedCells, 0u);
        EXPECT_EQ(stats.groups, 0u);
        EXPECT_EQ(stats.batchWidth, 0u);
        if (pool) {
            EXPECT_EQ(pool->stats().cellsCompleted,
                      configs.size() * suite.size());
        }
    }
}

TEST(TimingSweep, TracerKeepsRowsAndRecordsTheOracleEventStream)
{
    const SuiteTraces suite(2000, 13, nullptr, TraceCache());
    // Large enough to hold every event of the sweep, so the streams
    // are compared whole.
    constexpr std::size_t kCapacity = std::size_t{1} << 18;

    std::vector<TimingCellConfig> ref = timingConfigs();
    obs::RunReport refReport;
    obs::MetricRegistry refMetrics;
    obs::EventTracer refEvents(kCapacity);
    timingOracle(suite, ref, refReport, refMetrics, &refEvents);
    ASSERT_EQ(refEvents.dropped(), 0u);
    ASSERT_GT(refEvents.size(), 0u);

    // The pool is refused: one ordered stream.
    std::vector<TimingCellConfig> configs = timingConfigs();
    obs::RunReport report;
    obs::MetricRegistry metrics;
    obs::EventTracer events(kCapacity);
    parallel::CellPool pool(4);
    suiteTimingReportEnsemble(suite, configs, report, &metrics,
                              &events, &pool);
    expectSameSweep(report, metrics, configs, refReport, refMetrics,
                    ref, "traced");
    expectIdenticalEvents(refEvents, events, "traced");
    EXPECT_EQ(pool.stats().cellsCompleted, 0u);
}

TEST(TimingSweep, PerWorkloadFactoryWinsAndSeesTheWorkloadIndex)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    // Fault plans seeded by workload index, as the soft-error study
    // builds them; @c make is set too and must never be called.
    const auto build = [] {
        std::vector<TimingCellConfig> configs;
        for (const std::size_t budget : {8u * 1024, 32u * 1024}) {
            TimingCellConfig c(
                []() -> std::unique_ptr<FetchPredictor> {
                    ADD_FAILURE() << "make called next to "
                                     "makeForWorkload";
                    return nullptr;
                },
                "gshare.fast.fault", delayModeName(DelayMode::Ideal),
                budget, CoreConfig{});
            c.makeForWorkload = [budget](std::size_t w) {
                robust::FaultPlan plan;
                plan.upsetRatePerBit = 1e-3;
                plan.intervalBranches = 128;
                plan.seed = 1000 + 17 * w;
                return std::unique_ptr<FetchPredictor>(
                    std::make_unique<
                        robust::FaultInjectingFetchPredictor>(
                        makeFetchPredictor(PredictorKind::GshareFast,
                                           budget, DelayMode::Ideal),
                        plan));
            };
            configs.push_back(std::move(c));
        }
        return configs;
    };

    std::vector<TimingCellConfig> ref = build();
    obs::RunReport refReport;
    obs::MetricRegistry refMetrics;
    timingOracle(suite, ref, refReport, refMetrics);

    for (const unsigned jobs : {0u, 2u}) {
        std::vector<TimingCellConfig> configs = build();
        // Record which workload indices each config was built for;
        // cells of one config write distinct slots.
        std::vector<std::vector<char>> seen(
            configs.size(), std::vector<char>(suite.size(), 0));
        for (std::size_t c = 0; c < configs.size(); ++c)
            configs[c].makeForWorkload =
                [inner = configs[c].makeForWorkload,
                 &slots = seen[c]](std::size_t w) {
                    ++slots.at(w);
                    return inner(w);
                };
        obs::RunReport report;
        obs::MetricRegistry metrics;
        std::unique_ptr<parallel::CellPool> pool;
        if (jobs > 0)
            pool = std::make_unique<parallel::CellPool>(jobs);
        suiteTimingReportEnsemble(suite, configs, report, &metrics,
                                  nullptr, pool.get());
        expectSameSweep(report, metrics, configs, refReport,
                        refMetrics, ref,
                        "jobs " + std::to_string(jobs));
        for (const auto &slots : seen)
            EXPECT_EQ(slots, std::vector<char>(suite.size(), 1));
    }
}

TEST(BenchOps, EnvironmentOverride)
{
    unsetenv("BPSIM_OPS_PER_WORKLOAD");
    EXPECT_EQ(benchOpsPerWorkload(1234), 1234u);
    setenv("BPSIM_OPS_PER_WORKLOAD", "777", 1);
    EXPECT_EQ(benchOpsPerWorkload(1234), 777u);
    // Anything but a whole positive decimal falls back: no
    // truncation of "1e6" to 1 or "400k" to 400.
    for (const char *bad :
         {"not-a-number", "1e6", "400k", "12 ", "-5", "0", ""}) {
        setenv("BPSIM_OPS_PER_WORKLOAD", bad, 1);
        EXPECT_EQ(benchOpsPerWorkload(1234), 1234u)
            << '"' << bad << '"';
    }
    unsetenv("BPSIM_OPS_PER_WORKLOAD");
}

TEST(ParseDecimal, AcceptsOnlyWholeDecimalsUpToTheBound)
{
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("42"), 42u);
    EXPECT_EQ(parseDecimal("007"), 7u);
    EXPECT_EQ(parseDecimal("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseDecimal("64", 64), 64u);
    for (const char *bad :
         {"", "-5", "+5", "1e6", "400k", "1.5", "12 ", " 12", "0x10",
          "18446744073709551616", "99999999999999999999999"})
        EXPECT_EQ(parseDecimal(bad), std::nullopt) << '"' << bad << '"';
    EXPECT_EQ(parseDecimal("65", 64), std::nullopt);
}

} // namespace
} // namespace bpsim
