/**
 * @file
 * Tests for hardened suite execution: retry backoff, deadlines,
 * manifest round-tripping and identity checks, and the guarded suite
 * sweeps (robust::CellGuard on core/runner.hh) — retries, failure
 * annotations, deadlines and checkpoint/resume with byte-identical
 * reports.
 */

#include "robust/run_manifest.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "guarded_sweep_fixtures.hh"
#include "robust/cell_guard.hh"
#include "robust/deadline.hh"
#include "robust/retry.hh"
#include "robust/trace_fault.hh"

namespace bpsim {
namespace {

using namespace std::chrono_literals;
using robust::Deadline;
using robust::RetryPolicy;
using robust::RunManifest;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

/** Sleeper that records instead of blocking. */
struct FakeSleeper
{
    std::vector<std::chrono::milliseconds> slept;
    robust::Sleeper
    hook()
    {
        return [this](std::chrono::milliseconds ms) {
            slept.push_back(ms);
        };
    }
};

obs::RunReport::Row
makeRow(const std::string &workload, Counter mispredictions)
{
    obs::RunReport::Row row;
    row.workload = workload;
    row.predictor = "gshare";
    row.budgetBytes = 1024;
    row.branches = 1000;
    row.mispredictions = mispredictions;
    return row;
}

TEST(RetryPolicy, DelaysGrowAndStayBounded)
{
    RetryPolicy p;
    p.baseDelay = 10ms;
    p.maxDelay = 100ms;
    p.jitterFraction = 0.0;
    EXPECT_EQ(p.delayBefore(1).count(), 10);
    EXPECT_EQ(p.delayBefore(2).count(), 20);
    EXPECT_EQ(p.delayBefore(3).count(), 40);
    EXPECT_EQ(p.delayBefore(5).count(), 100);  // capped
    EXPECT_EQ(p.delayBefore(60).count(), 100); // shift-safe
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded)
{
    RetryPolicy p;
    p.baseDelay = 100ms;
    p.maxDelay = 100ms;
    p.jitterFraction = 0.25;
    for (unsigned a = 1; a < 10; ++a) {
        const auto d1 = p.delayBefore(a);
        const auto d2 = p.delayBefore(a);
        EXPECT_EQ(d1.count(), d2.count()) << "attempt " << a;
        EXPECT_GE(d1.count(), 75) << "attempt " << a;
        EXPECT_LE(d1.count(), 125) << "attempt " << a;
    }
    // Different attempts land on different jitter.
    EXPECT_NE(p.delayBefore(1).count(), p.delayBefore(2).count());
}

TEST(RetryCall, CountsAttemptsAndSleeps)
{
    RetryPolicy p;
    p.maxAttempts = 4;
    FakeSleeper sleeper;
    int calls = 0;
    const auto r = robust::retryCall(
        p,
        [&] {
            if (++calls < 3)
                throw std::runtime_error("transient");
        },
        sleeper.hook());
    EXPECT_TRUE(r.succeeded);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(sleeper.slept.size(), 2u);
    EXPECT_EQ(r.lastError, "transient");
}

TEST(RetryCall, ExhaustsAttempts)
{
    RetryPolicy p;
    p.maxAttempts = 2;
    FakeSleeper sleeper;
    const auto r = robust::retryCall(
        p, [] { throw std::runtime_error("permanent"); },
        sleeper.hook());
    EXPECT_FALSE(r.succeeded);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(r.lastError, "permanent");
    EXPECT_EQ(sleeper.slept.size(), 1u); // no sleep after last try
}

TEST(DeadlineTest, ExpiresAndThrows)
{
    const auto now = Deadline::Clock::now();
    const Deadline past = Deadline::at(now - 1ms);
    EXPECT_TRUE(past.expired());
    EXPECT_EQ(past.remaining().count(), 0);
    EXPECT_THROW(past.check("unit test"), robust::DeadlineExceeded);

    const Deadline future = Deadline::at(now + 1h);
    EXPECT_FALSE(future.expired());
    EXPECT_NO_THROW(future.check("unit test"));

    const Deadline forever = Deadline::unlimited();
    EXPECT_FALSE(forever.expired());
    EXPECT_TRUE(forever.unlimitedBudget());
}

TEST(RunManifestTest, RoundTripsThroughDisk)
{
    const std::string path = tempPath("manifest_roundtrip.json");
    RunManifest m("unit_test", 4000, 7);
    m.markDone("a|gshare||1024", 1, makeRow("a", 100).toJson());
    m.markFailed("b|gshare||1024", 3, "deadline exceeded: cell");
    m.save(path);

    const RunManifest loaded = RunManifest::load(path);
    EXPECT_EQ(loaded.experiment(), "unit_test");
    EXPECT_EQ(loaded.opsPerWorkload(), 4000u);
    EXPECT_EQ(loaded.seed(), 7u);
    ASSERT_EQ(loaded.cells().size(), 2u);
    EXPECT_TRUE(loaded.isDone("a|gshare||1024"));
    EXPECT_FALSE(loaded.isDone("b|gshare||1024"));
    EXPECT_EQ(loaded.done(), 1u);
    EXPECT_EQ(loaded.failed(), 1u);

    const auto *failed = loaded.find("b|gshare||1024");
    ASSERT_NE(failed, nullptr);
    EXPECT_EQ(failed->attempts, 3u);
    EXPECT_EQ(failed->error, "deadline exceeded: cell");

    // Cached rows replay bit-exactly.
    const auto row = obs::RunReport::Row::fromJson(
        loaded.find("a|gshare||1024")->row);
    EXPECT_EQ(row.mispredictions, 100u);
    std::remove(path.c_str());
}

TEST(RunManifestTest, LoadErrorsAreTyped)
{
    EXPECT_THROW(RunManifest::load("/nonexistent/manifest.json"),
                 robust::RunManifestError);

    const std::string path = tempPath("manifest_bad.json");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema_version\": 2, \"cells\": ", f);
    std::fclose(f);
    EXPECT_THROW(RunManifest::load(path), robust::RunManifestError);
    std::remove(path.c_str());
}

TEST(RunManifestTest, SaveIsAtomic)
{
    const std::string path = tempPath("manifest_atomic.json");
    RunManifest m("unit_test", 4000, 7);
    m.markDone("a|g||1", 1, makeRow("a", 1).toJson());
    m.save(path);
    // No temp file left behind, and the target parses.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    EXPECT_NO_THROW(RunManifest::load(path));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Guarded sweeps: the suite sweeps under a robust::CellGuard.
// ---------------------------------------------------------------------

TEST(GuardedSweep, RunsAllCellsWithoutManifest)
{
    const robust::CellGuard guard = guardFor("");
    obs::RunReport report = freshReport();
    auto configs = gshareConfigs();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, report, nullptr, nullptr, &guard);
    const std::size_t cells = 2 * smallSuite().size();
    EXPECT_EQ(stats.completed, cells);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, 0u);
    // A guarded sweep never batches, and its rows are the
    // unguarded (batched) sweep's.
    EXPECT_EQ(stats.groups, 0u);
    EXPECT_EQ(stats.serialCells, cells);
    EXPECT_TRUE(report.annotations.empty());
    EXPECT_EQ(report.toJson().dump(2), referenceBytes());
}

TEST(GuardedSweep, RetriesTransientFailures)
{
    int attempts = 0;
    auto configs = gshareConfigs([&attempts](std::size_t cell) {
        if (cell == 5 && ++attempts < 3)
            throw std::runtime_error("transient io");
    });
    const robust::CellGuard guard = guardFor("", 3);
    obs::RunReport report = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, report, nullptr, nullptr, &guard);
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(stats.completed, 2 * smallSuite().size());
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(report.toJson().dump(2), referenceBytes());
}

TEST(GuardedSweep, AnnotatesPermanentFailures)
{
    const std::size_t nw = smallSuite().size();
    auto configs = gshareConfigs([nw](std::size_t cell) {
        if (cell == nw + 1)
            throw std::runtime_error("disk on fire");
    });
    const robust::CellGuard guard = guardFor("", 2);
    obs::RunReport report = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, report, nullptr, nullptr, &guard);
    EXPECT_EQ(stats.completed, 2 * nw - 1);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(report.rows.size(), 2 * nw - 1); // partial but usable
    const std::string badKey = smallSuite().name(1) + "|gshare||2048";
    ASSERT_EQ(report.annotations.size(), 1u);
    EXPECT_EQ(report.annotations[0].key, badKey);
    EXPECT_EQ(report.annotations[0].message,
              "failed after 2 attempt(s): disk on fire");
    // The failed cell stays out of its config's mean.
    EXPECT_EQ(configs[1].results[1].branches, 0u);
    EXPECT_GT(configs[1].meanPercent, 0.0);

    // Partial reports survive serialization with their annotations.
    const obs::RunReport back =
        obs::RunReport::fromJson(report.toJson());
    ASSERT_EQ(back.annotations.size(), 1u);
    EXPECT_EQ(back.annotations[0].key, badKey);
    EXPECT_EQ(back.annotations[0].message,
              report.annotations[0].message);
}

TEST(GuardedSweep, CellTimeoutBecomesAFailureNotAHang)
{
    // The replay polls its deadline every 65,536 branches: workload
    // 0 must be long enough to reach a poll.
    const SuiteTraces suite(400000, 7);
    ASSERT_GT(suite.trace(0).branchView().size(), 65536u);
    std::vector<AccuracyCellConfig> configs(1);
    configs[0].makeForWorkload = [](std::size_t w) {
        return w == 0 ? std::unique_ptr<DirectionPredictor>(
                            std::make_unique<StallingPredictor>())
                      : makePredictor(PredictorKind::Bimodal, 1024);
    };
    configs[0].name = "stall";
    configs[0].budgetBytes = 1024;
    // The other cells finish well inside the 100 ms budget.
    const robust::CellGuard guard = guardFor("", 2, 100ms);
    obs::RunReport report = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        suite, configs, report, nullptr, nullptr, &guard);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, suite.size() - 1);
    ASSERT_EQ(report.annotations.size(), 1u);
    EXPECT_EQ(report.annotations[0].key, suite.name(0) + "|stall||1024");
    EXPECT_EQ(report.annotations[0].message,
              "failed after 2 attempt(s): deadline exceeded: "
              "accuracy cell");
}

TEST(GuardedSweep, InjectedIoFaultsAreRetriedToSuccess)
{
    // Fail roughly half the attempts, capped so success is certain.
    robust::IoFaultInjector io(0.5, 99, 8);
    auto configs = gshareConfigs([&io](std::size_t) {
        if (io.shouldFail())
            throw std::runtime_error("injected io failure");
    });
    const robust::CellGuard guard = guardFor("", 5);
    obs::RunReport report = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, report, nullptr, nullptr, &guard);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, io.failures());
    EXPECT_GT(io.failures(), 0u);
    EXPECT_EQ(report.toJson().dump(2), referenceBytes());
}

TEST(GuardedSweep, KilledCampaignResumesByteIdentical)
{
    const std::string manifest = tempPath("resume_manifest.json");
    std::remove(manifest.c_str());
    const robust::CellGuard guard = guardFor(manifest);
    const std::size_t total = 2 * smallSuite().size();
    const std::size_t killAt = 15;

    // The first run dies at cell 15, as if the process were killed
    // there. Cells 0-14 have committed and the manifest survives.
    {
        auto configs = gshareConfigs([killAt](std::size_t cell) {
            if (cell == killAt)
                throw Killed{};
        });
        obs::RunReport partial = freshReport();
        EXPECT_THROW(suiteAccuracyReportEnsemble(smallSuite(), configs,
                                                 partial, nullptr,
                                                 nullptr, &guard),
                     Killed);
    }
    EXPECT_EQ(RunManifest::load(manifest).done(), killAt);

    // The restart computes only the remaining cells and writes the
    // uninterrupted report.
    std::vector<std::size_t> computed;
    auto configs = gshareConfigs(
        [&computed](std::size_t cell) { computed.push_back(cell); });
    obs::RunReport resumed = freshReport();
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        smallSuite(), configs, resumed, nullptr, nullptr, &guard);
    EXPECT_EQ(stats.resumed, killAt);
    EXPECT_EQ(stats.completed, total - killAt);
    ASSERT_EQ(computed.size(), total - killAt);
    EXPECT_EQ(computed.front(), killAt);
    EXPECT_EQ(resumed.toJson().dump(2), referenceBytes());

    // A third run resumes everything and is still identical, means
    // included.
    auto again = gshareConfigs([](std::size_t) {
        ADD_FAILURE() << "a fully resumed sweep computed a cell";
    });
    obs::RunReport third = freshReport();
    const EnsembleStats s3 = suiteAccuracyReportEnsemble(
        smallSuite(), again, third, nullptr, nullptr, &guard);
    EXPECT_EQ(s3.resumed, total);
    EXPECT_EQ(s3.completed, 0u);
    EXPECT_EQ(third.toJson().dump(2), referenceBytes());
    EXPECT_DOUBLE_EQ(again[1].meanPercent, configs[1].meanPercent);
    std::remove(manifest.c_str());
}

TEST(GuardedSweep, AccuracyAndTimingShareOneManifest)
{
    const std::string manifest = tempPath("shared_manifest.json");
    std::remove(manifest.c_str());
    const robust::CellGuard guard = guardFor(manifest);
    const auto timingConfigs = [] {
        return std::vector<TimingCellConfig>{
            {[] {
                 return makeFetchPredictor(PredictorKind::Gshare,
                                           4 * 1024,
                                           DelayMode::Overriding);
             },
             "gshare", delayModeName(DelayMode::Overriding), 4 * 1024,
             CoreConfig{}}};
    };
    const auto campaign = [&](obs::RunReport &report,
                              std::vector<TimingCellConfig> &tim) {
        auto acc = gshareConfigs();
        const EnsembleStats a = suiteAccuracyReportEnsemble(
            smallSuite(), acc, report, nullptr, nullptr, &guard);
        const EnsembleStats t = suiteTimingReportEnsemble(
            smallSuite(), tim, report, nullptr, nullptr, nullptr,
            &guard);
        return a.resumed + t.resumed;
    };

    obs::RunReport first = freshReport();
    auto firstTiming = timingConfigs();
    EXPECT_EQ(campaign(first, firstTiming), 0u);
    obs::RunReport second = freshReport();
    auto secondTiming = timingConfigs();
    EXPECT_EQ(campaign(second, secondTiming), 3 * smallSuite().size());
    EXPECT_EQ(second.toJson().dump(2), first.toJson().dump(2));
    // A resumed timing cell's result is rebuilt from its row.
    EXPECT_DOUBLE_EQ(secondTiming[0].harmonicMeanIpc,
                     firstTiming[0].harmonicMeanIpc);
    EXPECT_EQ(secondTiming[0].results[3].cycles,
              firstTiming[0].results[3].cycles);
    std::remove(manifest.c_str());
}

TEST(GuardedSweep, RefusesAManifestFromAnotherCampaign)
{
    const std::string manifest = tempPath("identity_manifest.json");
    std::remove(manifest.c_str());
    const robust::CellGuard guard = guardFor(manifest);
    {
        auto configs = gshareConfigs();
        obs::RunReport report = freshReport();
        suiteAccuracyReportEnsemble(smallSuite(), configs, report,
                                    nullptr, nullptr, &guard);
    }
    const auto rerun = [&](const SuiteTraces &suite,
                           const char *experiment) {
        auto configs = gshareConfigs();
        obs::RunReport report = freshReport(experiment);
        suiteAccuracyReportEnsemble(suite, configs, report, nullptr,
                                    nullptr, &guard);
    };
    // Another trace length or seed names the same row keys but other
    // traces: replaying the cached rows would be silently wrong.
    EXPECT_THROW(rerun(SuiteTraces(5000, 7), "guarded_sweep"),
                 robust::RunManifestError);
    EXPECT_THROW(rerun(SuiteTraces(4000, 8), "guarded_sweep"),
                 robust::RunManifestError);
    EXPECT_THROW(rerun(smallSuite(), "another_study"),
                 robust::RunManifestError);
    EXPECT_NO_THROW(rerun(smallSuite(), "guarded_sweep"));
    std::remove(manifest.c_str());
}

TEST(RunManifestTest, OpenChecksIdentityAndSchema)
{
    const std::string path = tempPath("manifest_identity.json");
    RunManifest("study", 4000, 7).save(path);
    EXPECT_NO_THROW(RunManifest::open(path, "study", 4000, 7));
    EXPECT_THROW(RunManifest::open(path, "study", 100000, 7),
                 robust::RunManifestError);
    EXPECT_THROW(RunManifest::open(path, "study", 4000, 42),
                 robust::RunManifestError);
    EXPECT_THROW(RunManifest::open(path, "other", 4000, 7),
                 robust::RunManifestError);

    // A schema-1 manifest carries no identity: refuse it.
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema_version\": 1, \"tool\": \"bpsim-manifest\", "
               "\"experiment\": \"study\", \"cells\": []}",
               f);
    std::fclose(f);
    EXPECT_THROW(RunManifest::open(path, "study", 4000, 7),
                 robust::RunManifestError);
    std::remove(path.c_str());

    // No file: a fresh manifest with this identity.
    const RunManifest fresh = RunManifest::open(path, "study", 4000, 7);
    EXPECT_EQ(fresh.opsPerWorkload(), 4000u);
    EXPECT_TRUE(fresh.cells().empty());
}

} // namespace
} // namespace bpsim
