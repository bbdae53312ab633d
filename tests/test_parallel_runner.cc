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

#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "predictors/static_pred.hh"
#include "robust/hardened_runner.hh"

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

obs::RunReport
freshReport()
{
    obs::RunReport report;
    report.experiment = "parallel_determinism";
    return report;
}

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

    obs::RunReport serial = freshReport();
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
        obs::RunReport report = freshReport();
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

    obs::RunReport serial = freshReport();
    obs::MetricRegistry serialMetrics;
    auto serialConfigs = configs();
    suiteTimingReportEnsemble(suite, serialConfigs, serial,
                              &serialMetrics);
    const std::string serialBytes = serial.toJson().dump(2);
    const std::string serialMetricBytes =
        serialMetrics.toJson().dump(2);

    for (unsigned jobs : {2u, 4u}) {
        CellPool pool(jobs);
        obs::RunReport report = freshReport();
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
// Hardened campaigns on the pool: single-writer manifest, cell-order
// rows, and resume that stays byte-identical.
// ---------------------------------------------------------------------

obs::RunReport::Row
hardenedRow(const std::string &workload, Counter mispredictions)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = "gshare";
    row.budgetBytes = 1024;
    row.branches = 1000;
    row.mispredictions = mispredictions;
    return row;
}

std::vector<robust::SuiteCell>
hardenedCells(std::size_t n)
{
    std::vector<robust::SuiteCell> cells;
    for (std::size_t i = 0; i < n; ++i) {
        const obs::RunReport::Row row =
            hardenedRow("wl" + std::to_string(i), 100 + i);
        cells.push_back(
            {row.key(),
             [row](const robust::Deadline &) { return row; }});
    }
    return cells;
}

TEST(ParallelHardened, ReportByteIdenticalToSerial)
{
    obs::RunReport serial = freshReport();
    robust::HardenedSuiteRunner serialRunner("", robust::RetryPolicy{});
    const auto serialSummary =
        serialRunner.run(hardenedCells(8), serial);
    EXPECT_EQ(serialSummary.completed, 8u);
    const std::string serialBytes = serial.toJson().dump(2);

    CellPool pool(4);
    obs::RunReport report = freshReport();
    robust::HardenedSuiteRunner runner("", robust::RetryPolicy{},
                                       std::chrono::milliseconds{0},
                                       &pool);
    const auto summary = runner.run(hardenedCells(8), report);
    EXPECT_EQ(summary.completed, 8u);
    EXPECT_TRUE(summary.allOk());
    EXPECT_EQ(report.toJson().dump(2), serialBytes);
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

TEST(ParallelHardened, DeadlineExhaustionAnnotatesSerialExact)
{
    // Deadline + RetryPolicy composed under a parallel run: two
    // cells blow their per-attempt deadline on every try. The
    // parallel campaign must finish the healthy cells, annotate the
    // exhausted ones with the serial-exact message, and produce a
    // report byte-identical to the serial campaign's.
    const auto buildCells = [] {
        std::vector<robust::SuiteCell> cells;
        for (std::size_t i = 0; i < 8; ++i) {
            const obs::RunReport::Row row =
                hardenedRow("wl" + std::to_string(i), 100 + i);
            const bool slow = i == 2 || i == 6;
            cells.push_back(
                {row.key(), [row, slow](const robust::Deadline &d) {
                     if (slow) {
                         // Burn past the 1ms budget, then poll the
                         // way runAccuracy's hook would.
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds{5});
                         d.check(row.workload);
                     }
                     return row;
                 }});
        }
        return cells;
    };

    robust::RetryPolicy retry;
    retry.maxAttempts = 3;
    // The two slow cells retry on different workers, so the fake
    // sleeper's count is shared between threads.
    const auto runCampaign = [&](parallel::CellPool *pool,
                                 obs::RunReport &report,
                                 std::atomic<unsigned> &sleeps) {
        robust::HardenedSuiteRunner runner(
            "", retry, std::chrono::milliseconds{1}, pool);
        std::atomic<unsigned> *count = &sleeps;
        runner.setSleeper(
            [count](std::chrono::milliseconds) { ++*count; });
        return runner.run(buildCells(), report);
    };

    obs::RunReport serial = freshReport();
    std::atomic<unsigned> serialSleeps{0};
    const auto serialSummary =
        runCampaign(nullptr, serial, serialSleeps);
    EXPECT_EQ(serialSummary.completed, 6u);
    EXPECT_EQ(serialSummary.failed, 2u);
    EXPECT_EQ(serialSummary.retries, 4u); // 2 cells x 2 extra tries
    // Retries backed off through the fake sleeper, never for real.
    EXPECT_EQ(serialSleeps.load(), 4u);

    ASSERT_EQ(serial.annotations.size(), 2u);
    EXPECT_EQ(serial.annotations[0].message,
              "failed after 3 attempt(s): deadline exceeded: wl2");
    EXPECT_EQ(serial.annotations[1].message,
              "failed after 3 attempt(s): deadline exceeded: wl6");

    CellPool pool(4);
    obs::RunReport parallelReport = freshReport();
    std::atomic<unsigned> parallelSleeps{0};
    const auto summary =
        runCampaign(&pool, parallelReport, parallelSleeps);
    EXPECT_EQ(summary.completed, serialSummary.completed);
    EXPECT_EQ(summary.failed, serialSummary.failed);
    EXPECT_EQ(summary.retries, serialSummary.retries);
    EXPECT_EQ(parallelSleeps.load(), serialSleeps.load());
    EXPECT_EQ(parallelReport.toJson().dump(2),
              serial.toJson().dump(2));
}

TEST(ParallelHardened, ExhaustedCellsLandInManifestWithAttempts)
{
    const std::string manifest = std::string(::testing::TempDir()) +
                                 "/parallel_exhaust_manifest.json";
    std::remove(manifest.c_str());

    std::vector<robust::SuiteCell> cells = hardenedCells(4);
    cells[1].run = [](const robust::Deadline &) -> obs::RunReport::Row {
        throw std::runtime_error("synthetic failure");
    };

    robust::RetryPolicy retry;
    retry.maxAttempts = 2;
    CellPool pool(4);
    obs::RunReport report = freshReport();
    robust::HardenedSuiteRunner runner(manifest, retry,
                                       std::chrono::milliseconds{0},
                                       &pool);
    runner.setSleeper([](std::chrono::milliseconds) {});
    const auto summary = runner.run(cells, report);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.completed, 3u);

    // The checkpoint file carries the failure verbatim, so a resumed
    // campaign (and bpstat manifest) see attempts and error intact.
    const robust::RunManifest m = robust::RunManifest::load(manifest);
    const robust::CellRecord *failed = m.find(cells[1].key);
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->status, robust::CellRecord::Status::Failed);
    EXPECT_EQ(failed->attempts, 2u);
    EXPECT_EQ(failed->error, "synthetic failure");
    std::remove(manifest.c_str());
}

TEST(ParallelHardened, KilledCampaignResumesByteIdentical)
{
    const std::string manifest = std::string(::testing::TempDir()) +
                                 "/parallel_resume_manifest.json";
    std::remove(manifest.c_str());

    obs::RunReport reference = freshReport();
    robust::HardenedSuiteRunner ref("", robust::RetryPolicy{});
    ref.run(hardenedCells(6), reference);
    const std::string referenceBytes = reference.toJson().dump(2);

    // Parallel campaign killed at a cell boundary.
    {
        CellPool pool(3);
        obs::RunReport partial = freshReport();
        robust::HardenedSuiteRunner runner(
            manifest, robust::RetryPolicy{},
            std::chrono::milliseconds{0}, &pool);
        runner.setAfterCellHook([](std::size_t finalized) {
            if (finalized == 3)
                throw std::runtime_error("killed");
        });
        EXPECT_THROW(runner.run(hardenedCells(6), partial),
                     std::runtime_error);
    }

    // Parallel restart resumes the done cells and completes the rest;
    // the final report matches the uninterrupted serial run exactly.
    CellPool pool(3);
    obs::RunReport resumed = freshReport();
    robust::HardenedSuiteRunner runner(manifest, robust::RetryPolicy{},
                                       std::chrono::milliseconds{0},
                                       &pool);
    const auto summary = runner.run(hardenedCells(6), resumed);
    EXPECT_EQ(summary.resumed, 3u);
    EXPECT_EQ(summary.completed, 3u);
    EXPECT_EQ(resumed.toJson().dump(2), referenceBytes);
    std::remove(manifest.c_str());
}

} // namespace
} // namespace bpsim
