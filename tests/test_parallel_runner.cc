/**
 * @file
 * Tests for the deterministic cell pool (src/parallel) and the
 * parallel suite helpers: every index computed exactly once, commits
 * in strict index order, serial-exact exception semantics, and —
 * the contract the whole subsystem exists for — RunReports that are
 * byte-identical to a serial run at any job count.
 */

#include "parallel/cell_pool.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "guarded_sweep_fixtures.hh"
#include "predictors/static_pred.hh"
#include "robust/run_manifest.hh"

namespace bpsim {
namespace {

using parallel::CellPool;

TEST(CellPool, ComputesEveryIndexOnceAndCommitsInOrder)
{
    constexpr std::size_t kCells = 32;
    CellPool pool(4);
    std::array<std::atomic<int>, kCells> computed{};
    std::vector<std::size_t> committed; // commit is single-threaded
    pool.run(
        kCells, [&](std::size_t i) { computed[i].fetch_add(1); },
        [&](std::size_t i) { committed.push_back(i); });
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(computed[i].load(), 1) << "cell " << i;
    ASSERT_EQ(committed.size(), kCells);
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(committed[i], i);
}

TEST(CellPool, SingleJobRunsInlineOnCallingThread)
{
    CellPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::size_t calls = 0;
    pool.run(8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
    });
    EXPECT_EQ(calls, 8u);
    EXPECT_EQ(pool.stats().jobs, 1u);
}

TEST(CellPool, MoreJobsThanCells)
{
    CellPool pool(32);
    std::array<std::atomic<int>, 3> computed{};
    std::vector<std::size_t> committed;
    pool.run(
        3, [&](std::size_t i) { computed[i].fetch_add(1); },
        [&](std::size_t i) { committed.push_back(i); });
    for (auto &c : computed)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(pool.stats().maxQueueDepth, 0u);
}

TEST(CellPool, ComputeFailureRethrowsLowestIndexAfterJoin)
{
    CellPool pool(4);
    std::vector<std::size_t> committed;
    try {
        pool.run(
            16,
            [&](std::size_t i) {
                if (i >= 3)
                    throw std::runtime_error("cell " +
                                             std::to_string(i));
            },
            [&](std::size_t i) { committed.push_back(i); });
        FAIL() << "expected run() to throw";
    } catch (const std::runtime_error &e) {
        // The lowest failing index wins, exactly where a serial
        // loop would have stopped.
        EXPECT_STREQ(e.what(), "cell 3");
    }
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(CellPool, CommitFailureCancelsOutstandingCells)
{
    CellPool pool(4);
    std::vector<std::size_t> committed;
    EXPECT_THROW(
        pool.run(
            64, [](std::size_t) {},
            [&](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("commit failed");
                committed.push_back(i);
            }),
        std::runtime_error);
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1}));
}

TEST(CellPool, StatsAccumulateAcrossRuns)
{
    CellPool pool(2);
    pool.run(5, [](std::size_t) {});
    pool.run(3, [](std::size_t) {});
    const auto &s = pool.stats();
    EXPECT_EQ(s.jobs, 2u);
    EXPECT_EQ(s.runs, 2u);
    EXPECT_EQ(s.cellsCompleted, 8u);
    EXPECT_EQ(s.cellMs.size(), 8u);
    EXPECT_GE(s.wallMs, 0.0);
}

TEST(JobsResolution, EnvAndFallbacks)
{
    unsetenv("BPSIM_JOBS");
    EXPECT_EQ(parallel::envJobs(), 0u);
    EXPECT_EQ(parallel::resolveJobs(5), 5u);
    EXPECT_EQ(parallel::resolveJobs(0), parallel::hardwareJobs());

    setenv("BPSIM_JOBS", "3", 1);
    EXPECT_EQ(parallel::envJobs(), 3u);
    EXPECT_EQ(parallel::resolveJobs(0), 3u);
    EXPECT_EQ(parallel::resolveJobs(7), 7u); // explicit request wins

    setenv("BPSIM_JOBS", "0", 1);
    EXPECT_EQ(parallel::envJobs(), 0u);
    setenv("BPSIM_JOBS", "banana", 1);
    EXPECT_EQ(parallel::envJobs(), 0u);
    unsetenv("BPSIM_JOBS");
    EXPECT_GE(parallel::hardwareJobs(), 1u);
}

// ---------------------------------------------------------------------
// Suite-level determinism: the acceptance contract is that a parallel
// run's RunReport JSON is byte-identical to the serial one.
// ---------------------------------------------------------------------

TEST(ParallelSuite, TraceGenerationMatchesSerial)
{
    const SuiteTraces serial(8000, 11);
    CellPool pool(4);
    const SuiteTraces par(8000, 11, &pool);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(par.trace(i).size(), serial.trace(i).size());
        for (std::size_t k = 0; k < serial.trace(i).size(); ++k) {
            const MicroOp &a = serial.trace(i)[k];
            const MicroOp &b = par.trace(i)[k];
            ASSERT_EQ(a.pc, b.pc) << i << "/" << k;
            ASSERT_EQ(a.taken, b.taken) << i << "/" << k;
            ASSERT_EQ(static_cast<int>(a.cls),
                      static_cast<int>(b.cls))
                << i << "/" << k;
        }
    }
}

TEST(ParallelSuite, AccuracyReportByteIdenticalAtAnyJobCount)
{
    const SuiteTraces suite(10000, 5);
    const auto configs = [] {
        std::vector<AccuracyCellConfig> v;
        v.emplace_back(
            [] {
                return makePredictor(PredictorKind::Gshare, 4 * 1024);
            },
            "gshare", 4 * 1024);
        return v;
    };

    obs::RunReport serial = freshReport("parallel_determinism");
    obs::MetricRegistry serialMetrics;
    auto serialConfigs = configs();
    suiteAccuracyReportEnsemble(suite, serialConfigs, serial,
                                &serialMetrics, nullptr);
    const std::string serialBytes = serial.toJson().dump(2);
    const std::string serialMetricBytes =
        serialMetrics.toJson().dump(2);

    // jobs > cells (32 vs 12) is deliberately included.
    for (unsigned jobs : {2u, 4u, 32u}) {
        CellPool pool(jobs);
        obs::RunReport report = freshReport("parallel_determinism");
        obs::MetricRegistry metrics;
        auto pooled = configs();
        suiteAccuracyReportEnsemble(suite, pooled, report, &metrics,
                                    &pool);
        EXPECT_DOUBLE_EQ(pooled[0].meanPercent,
                         serialConfigs[0].meanPercent)
            << "jobs " << jobs;
        EXPECT_EQ(report.toJson().dump(2), serialBytes)
            << "jobs " << jobs;
        EXPECT_EQ(metrics.toJson().dump(2), serialMetricBytes)
            << "jobs " << jobs;
        EXPECT_EQ(pool.stats().cellsCompleted, suite.size());
    }
}

TEST(ParallelSuite, TimingReportByteIdenticalAtAnyJobCount)
{
    const SuiteTraces suite(6000, 6);
    const auto configs = [] {
        return std::vector<TimingCellConfig>{
            {[] {
                 return std::make_unique<SingleCycleFetchPredictor>(
                     makePredictor(PredictorKind::GshareFast,
                                   16 * 1024));
             },
             "gshare.fast", "ideal", 16 * 1024, CoreConfig{}}};
    };

    obs::RunReport serial = freshReport("parallel_determinism");
    obs::MetricRegistry serialMetrics;
    auto serialConfigs = configs();
    suiteTimingReportEnsemble(suite, serialConfigs, serial,
                              &serialMetrics);
    const std::string serialBytes = serial.toJson().dump(2);
    const std::string serialMetricBytes =
        serialMetrics.toJson().dump(2);

    for (unsigned jobs : {2u, 4u}) {
        CellPool pool(jobs);
        obs::RunReport report = freshReport("parallel_determinism");
        obs::MetricRegistry metrics;
        auto pooled = configs();
        suiteTimingReportEnsemble(suite, pooled, report, &metrics,
                                  nullptr, &pool);
        EXPECT_DOUBLE_EQ(pooled[0].harmonicMeanIpc,
                         serialConfigs[0].harmonicMeanIpc)
            << "jobs " << jobs;
        EXPECT_EQ(report.toJson().dump(2), serialBytes)
            << "jobs " << jobs;
        EXPECT_EQ(metrics.toJson().dump(2), serialMetricBytes)
            << "jobs " << jobs;
    }
}

// ---------------------------------------------------------------------
// Guarded sweeps on the pool: single-writer manifest, cell-order
// rows and annotations, and resume that stays byte-identical.
// ---------------------------------------------------------------------

TEST(ParallelGuarded, ReportByteIdenticalToSerial)
{
    const robust::CellGuard guard = guardFor("");
    obs::RunReport serial = freshReport();
    obs::MetricRegistry serialMetrics;
    auto serialConfigs = gshareConfigs();
    const EnsembleStats serialStats = suiteAccuracyReportEnsemble(
        smallSuite(), serialConfigs, serial, &serialMetrics, nullptr,
        &guard);
    EXPECT_EQ(serialStats.completed, 2 * smallSuite().size());
    EXPECT_EQ(serial.toJson().dump(2), referenceBytes());

    CellPool pool(4);
    obs::RunReport report = freshReport();
    obs::MetricRegistry metrics;
    auto configs = gshareConfigs();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, report, &metrics, &pool, &guard);
    EXPECT_EQ(stats.completed, serialStats.completed);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(report.toJson().dump(2), serial.toJson().dump(2));
    EXPECT_EQ(metrics.toJson().dump(2), serialMetrics.toJson().dump(2));
}

TEST(CellPool, RetryExhaustionSurfacesSerialExactLowestIndex)
{
    // A worker whose cell exhausts its RetryPolicy inside compute()
    // throws like any other compute failure: the pool joins, cancels
    // outstanding work, and rethrows the LOWEST failing index — the
    // error a serial loop would have hit first — regardless of which
    // worker finished first at jobs=8.
    CellPool pool(8);
    robust::RetryPolicy retry;
    retry.maxAttempts = 2;
    std::atomic<unsigned> sleeps{0};
    const robust::Sleeper sleeper =
        [&](std::chrono::milliseconds) { ++sleeps; };

    std::vector<std::size_t> committed;
    try {
        pool.run(
            16,
            [&](std::size_t i) {
                const auto r = robust::retryCall(
                    retry,
                    [&] {
                        if (i >= 5)
                            throw std::runtime_error(
                                "cell " + std::to_string(i) +
                                " keeps failing");
                    },
                    sleeper);
                if (!r.succeeded)
                    throw std::runtime_error(r.lastError);
            },
            [&](std::size_t i) { committed.push_back(i); });
        FAIL() << "expected run() to throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 5 keeps failing");
    }
    EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    // Every failing cell that ran slept between its two attempts;
    // none of them really blocked.
    EXPECT_GE(sleeps.load(), 1u);
}

TEST(ParallelGuarded, DeadlineExhaustionAnnotatesSerialExact)
{
    // Deadline + RetryPolicy composed under a parallel run: two
    // cells outlive their per-attempt deadline on every try. The
    // parallel sweep must finish the healthy cells, annotate the
    // exhausted ones with the serial-exact message, and produce a
    // report byte-identical to the serial sweep's. The replay polls
    // every 65,536 branches, so the traces must reach a poll.
    const SuiteTraces suite(400000, 7);
    ASSERT_GT(suite.trace(2).branchView().size(), 65536u);
    ASSERT_GT(suite.trace(7).branchView().size(), 65536u);
    const auto configs = [] {
        std::vector<AccuracyCellConfig> v(1);
        v[0].makeForWorkload = [](std::size_t w) {
            return w == 2 || w == 7
                       ? std::unique_ptr<DirectionPredictor>(
                             std::make_unique<StallingPredictor>())
                       : makePredictor(PredictorKind::Bimodal, 1024);
        };
        v[0].name = "stall";
        v[0].budgetBytes = 1024;
        return v;
    };
    // The healthy cells finish well inside the 100 ms budget.
    const robust::CellGuard guard =
        guardFor("", 2, std::chrono::milliseconds{100});

    obs::RunReport serial = freshReport();
    auto serialConfigs = configs();
    const EnsembleStats serialStats = suiteAccuracyReportEnsemble(
        suite, serialConfigs, serial, nullptr, nullptr, &guard);
    EXPECT_EQ(serialStats.completed, suite.size() - 2);
    EXPECT_EQ(serialStats.failed, 2u);
    ASSERT_EQ(serial.annotations.size(), 2u);
    EXPECT_EQ(serial.annotations[0].key, suite.name(2) + "|stall||1024");
    EXPECT_EQ(serial.annotations[1].key, suite.name(7) + "|stall||1024");
    for (const auto &a : serial.annotations)
        EXPECT_EQ(a.message, "failed after 2 attempt(s): deadline "
                             "exceeded: accuracy cell");

    CellPool pool(4);
    obs::RunReport parallelReport = freshReport();
    auto parallelConfigs = configs();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        suite, parallelConfigs, parallelReport, nullptr, &pool, &guard);
    EXPECT_EQ(stats.completed, serialStats.completed);
    EXPECT_EQ(stats.failed, serialStats.failed);
    EXPECT_EQ(parallelReport.toJson().dump(2),
              serial.toJson().dump(2));
    EXPECT_DOUBLE_EQ(parallelConfigs[0].meanPercent,
                     serialConfigs[0].meanPercent);
}

TEST(ParallelGuarded, ExhaustedCellsLandInManifestWithAttempts)
{
    const std::string manifest = std::string(::testing::TempDir()) +
                                 "/parallel_exhaust_manifest.json";
    std::remove(manifest.c_str());
    auto configs = gshareConfigs([](std::size_t cell) {
        if (cell == 1)
            throw std::runtime_error("synthetic failure");
    });
    const robust::CellGuard guard = guardFor(manifest, 2);
    CellPool pool(4);
    obs::RunReport report = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, report, nullptr, &pool, &guard);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 2 * smallSuite().size() - 1);

    // The checkpoint file carries the failure verbatim, so a resumed
    // campaign (and bpstat manifest) see attempts and error intact.
    const robust::RunManifest m = robust::RunManifest::load(manifest);
    const robust::CellRecord *failed =
        m.find(smallSuite().name(1) + "|gshare||1024");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, robust::CellRecord::Status::Failed);
    EXPECT_EQ(failed->attempts, 2u);
    EXPECT_EQ(failed->error, "synthetic failure");
    EXPECT_EQ(m.done(), 2 * smallSuite().size() - 1);
    std::remove(manifest.c_str());
}

TEST(ParallelGuarded, KilledCampaignResumesByteIdentical)
{
    const std::string manifest = std::string(::testing::TempDir()) +
                                 "/parallel_resume_manifest.json";
    std::remove(manifest.c_str());
    const robust::CellGuard guard = guardFor(manifest);
    const std::size_t total = 2 * smallSuite().size();
    const std::size_t killAt = 9;

    // A 4-worker sweep killed at cell 9: the pool commits cells 0-8
    // in order, then unwinds with the manifest saved.
    {
        CellPool pool(4);
        auto configs = gshareConfigs([killAt](std::size_t cell) {
            if (cell == killAt)
                throw Killed{};
        });
        obs::RunReport partial = freshReport();
        EXPECT_THROW(suiteAccuracyReportEnsemble(smallSuite(), configs,
                                                 partial, nullptr,
                                                 &pool, &guard),
                     Killed);
    }
    EXPECT_EQ(robust::RunManifest::load(manifest).done(), killAt);

    // A 4-worker restart computes only the remaining cells and
    // writes the uninterrupted serial report.
    std::mutex mu;
    std::vector<std::size_t> computed;
    auto configs = gshareConfigs([&](std::size_t cell) {
        std::lock_guard<std::mutex> lock(mu);
        computed.push_back(cell);
    });
    CellPool pool(4);
    obs::RunReport resumed = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, resumed, nullptr, &pool, &guard);
    EXPECT_EQ(stats.resumed, killAt);
    EXPECT_EQ(stats.completed, total - killAt);
    std::sort(computed.begin(), computed.end());
    ASSERT_EQ(computed.size(), total - killAt);
    EXPECT_EQ(computed.front(), killAt);
    EXPECT_EQ(resumed.toJson().dump(2), referenceBytes());
    std::remove(manifest.c_str());
}

} // namespace
} // namespace bpsim
