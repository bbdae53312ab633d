/**
 * @file
 * Contract tests for the artifact registry (bench/artifact_registry):
 * stable unique names, and the determinism guarantee the sweep
 * engine rests on — every artifact produces byte-identical RunReport
 * rows and table text whether its body runs against a private
 * CellPool (the standalone bench) or a SweepPool sharing one
 * SweepScheduler with the other thirteen artifacts (bpsweep).
 */

#include "artifact_registry.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/span_trace.hh"
#include "parallel/cell_pool.hh"
#include "parallel/sweep_scheduler.hh"
#include "trace/shared_trace_pool.hh"

namespace bpsim {
namespace {

TEST(ArtifactRegistry, NamesAreUniqueAndStable)
{
    const auto &defs = artifactRegistry();
    ASSERT_EQ(defs.size(), 16u);

    std::set<std::string> names;
    for (const auto &def : defs) {
        EXPECT_FALSE(def.spec.name.empty());
        EXPECT_FALSE(def.spec.title.empty());
        EXPECT_NE(def.fn, nullptr) << def.spec.name;
        EXPECT_TRUE(names.insert(def.spec.name).second)
            << "duplicate artifact name " << def.spec.name;
    }

    // These names are CLI arguments, report 'experiment' fields and
    // CI job configuration — renaming one is a breaking change, so
    // pin the full set.
    const std::set<std::string> expected = {
        "fig1_accuracy_budget", "fig2_ideal_vs_overriding",
        "fig5_accuracy_large",  "fig6_per_benchmark_accuracy",
        "fig7_ipc_budget",      "fig8_per_benchmark_ipc",
        "table2_access_delay",  "ablation_update_delay",
        "ablation_delay_hiding", "ablation_pipeline",
        "study_disagreement",   "study_pipeline_depth",
        "study_context_switch", "study_soft_error",
        "study_protection_surface", "study_field_vulnerability",
    };
    EXPECT_EQ(names, expected);
}

TEST(ArtifactRegistry, FindArtifactResolvesEveryNameOnly)
{
    for (const auto &def : artifactRegistry()) {
        const ArtifactDef *found = findArtifact(def.spec.name);
        ASSERT_NE(found, nullptr) << def.spec.name;
        EXPECT_EQ(found, &def);
    }
    EXPECT_EQ(findArtifact("no_such_artifact"), nullptr);
    EXPECT_EQ(findArtifact(""), nullptr);
}

/** One artifact's complete observable behavior. */
struct Capture
{
    int exitCode = 0;
    std::string output;
    std::string rowsJson; ///< report minus the metrics snapshot
};

std::string
rowsOnlyJson(const obs::RunReport &report)
{
    obs::RunReport stripped = report;
    stripped.metrics = obs::Json();
    return stripped.toJson().dump(2);
}

TEST(ArtifactRegistry, SweepRunsAreByteIdenticalToStandaloneRuns)
{
    // Small but non-trivial traces; enough cells that the sweep
    // genuinely interleaves artifacts on the shared workers.
    ASSERT_EQ(0, setenv("BPSIM_OPS_PER_WORKLOAD", "1000", 1));
    ASSERT_EQ(0, unsetenv("BPSIM_TRACE_CACHE"));
    ASSERT_EQ(0, unsetenv("BPSIM_JOBS"));
    SharedTracePool::global().clear();

    const auto &defs = artifactRegistry();

    // Standalone shape: each body on its own private CellPool, one
    // after another (what `bench/<name> --jobs 4 --report ...` does,
    // minus the CLI).
    std::vector<Capture> solo(defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
        parallel::CellPool pool(4);
        BufferedSweepContext ctx(defs[i].spec, &pool,
                                 /*want_report=*/true);
        solo[i].exitCode = defs[i].fn(defs[i].spec, ctx);
        ctx.finalize();
        solo[i].output = ctx.output();
        solo[i].rowsJson = rowsOnlyJson(ctx.report());
        EXPECT_EQ(solo[i].exitCode, 0) << defs[i].spec.name;
    }

    // Sweep shape: all registered artifact bodies concurrently, each on a
    // SweepPool view of one shared 4-worker scheduler (what bpsweep
    // --all --jobs 4 does, minus the CLI).
    std::vector<Capture> swept(defs.size());
    {
        parallel::SweepScheduler scheduler(4);
        std::vector<std::unique_ptr<parallel::SweepPool>> pools;
        std::vector<std::unique_ptr<BufferedSweepContext>> contexts;
        for (const auto &def : defs) {
            pools.push_back(std::make_unique<parallel::SweepPool>(
                scheduler, def.spec.name));
            contexts.push_back(
                std::make_unique<BufferedSweepContext>(
                    def.spec, pools.back().get(),
                    /*want_report=*/true));
        }
        std::vector<std::thread> drivers;
        for (std::size_t i = 0; i < defs.size(); ++i)
            drivers.emplace_back([&, i] {
                swept[i].exitCode =
                    defs[i].fn(defs[i].spec, *contexts[i]);
                contexts[i]->finalize();
            });
        for (auto &t : drivers)
            t.join();
        for (std::size_t i = 0; i < defs.size(); ++i) {
            swept[i].output = contexts[i]->output();
            swept[i].rowsJson = rowsOnlyJson(contexts[i]->report());
        }
        contexts.clear();
        pools.clear(); // all SweepPools die before the scheduler
    }

    for (std::size_t i = 0; i < defs.size(); ++i) {
        EXPECT_EQ(swept[i].exitCode, solo[i].exitCode)
            << defs[i].spec.name;
        EXPECT_EQ(swept[i].output, solo[i].output)
            << defs[i].spec.name;
        EXPECT_EQ(swept[i].rowsJson, solo[i].rowsJson)
            << defs[i].spec.name;
    }
}

TEST(ArtifactRegistry,
     SweepRowsAreByteIdenticalWithFlightRecorderInstalled)
{
    // The flight recorder observes the harness only; rows and table
    // text must not change when it is installed (the --timeline
    // variant of the determinism contract). A subset of artifacts
    // keeps this affordable next to the full-suite test above.
    ASSERT_EQ(0, setenv("BPSIM_OPS_PER_WORKLOAD", "500", 1));
    ASSERT_EQ(0, unsetenv("BPSIM_TRACE_CACHE"));
    ASSERT_EQ(0, unsetenv("BPSIM_JOBS"));
    SharedTracePool::global().clear();

    const auto &all = artifactRegistry();
    const std::vector<const ArtifactDef *> defs = {
        &all[0], &all[1], &all[2], &all[3]};

    std::vector<Capture> solo(defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
        parallel::CellPool pool(4);
        BufferedSweepContext ctx(defs[i]->spec, &pool,
                                 /*want_report=*/true);
        solo[i].exitCode = defs[i]->fn(defs[i]->spec, ctx);
        ctx.finalize();
        solo[i].output = ctx.output();
        solo[i].rowsJson = rowsOnlyJson(ctx.report());
    }

    std::vector<Capture> swept(defs.size());
    auto recorder = std::make_unique<obs::SpanRecorder>();
    obs::SpanRecorder::install(recorder.get());
    {
        parallel::SweepScheduler scheduler(4);
        std::vector<std::unique_ptr<parallel::SweepPool>> pools;
        std::vector<std::unique_ptr<BufferedSweepContext>> contexts;
        for (const auto *def : defs) {
            pools.push_back(std::make_unique<parallel::SweepPool>(
                scheduler, def->spec.name));
            contexts.push_back(
                std::make_unique<BufferedSweepContext>(
                    def->spec, pools.back().get(),
                    /*want_report=*/true));
        }
        std::vector<std::thread> drivers;
        for (std::size_t i = 0; i < defs.size(); ++i)
            drivers.emplace_back([&, i] {
                obs::SpanRecorder::nameThisThread(
                    "driver " + defs[i]->spec.name);
                swept[i].exitCode =
                    defs[i]->fn(defs[i]->spec, *contexts[i]);
                contexts[i]->finalize();
            });
        for (auto &t : drivers)
            t.join();
        for (std::size_t i = 0; i < defs.size(); ++i) {
            swept[i].output = contexts[i]->output();
            swept[i].rowsJson = rowsOnlyJson(contexts[i]->report());
        }
        contexts.clear();
        pools.clear();
    }
    obs::SpanRecorder::install(nullptr);

    for (std::size_t i = 0; i < defs.size(); ++i) {
        EXPECT_EQ(swept[i].exitCode, solo[i].exitCode)
            << defs[i]->spec.name;
        EXPECT_EQ(swept[i].output, solo[i].output)
            << defs[i]->spec.name;
        EXPECT_EQ(swept[i].rowsJson, solo[i].rowsJson)
            << defs[i]->spec.name;
    }
    // The sweep actually recorded something: worker + driver rings.
    EXPECT_GT(recorder->threadCount(), 4u);
}

int
orderedOkBody(const ArtifactSpec &spec, SweepContext &ctx)
{
    ctx.printf("%s: header\n", spec.name.c_str());
    ctx.pool()->run(
        3, [](std::size_t) {},
        [&](std::size_t i) {
            ctx.printf("%s: cell %zu committed\n",
                       spec.name.c_str(), i);
        });
    ctx.printf("%s: footer\n", spec.name.c_str());
    return 0;
}

int
orderedFailingBody(const ArtifactSpec &spec, SweepContext &ctx)
{
    ctx.printf("%s: header\n", spec.name.c_str());
    ctx.pool()->run(
        4,
        [](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("cell 2 exploded");
        },
        [&](std::size_t i) {
            ctx.printf("%s: cell %zu committed\n",
                       spec.name.c_str(), i);
        });
    ctx.printf("%s: footer\n", spec.name.c_str());
    return 0;
}

ArtifactSpec
probeSpec(const std::string &name, const std::string &title)
{
    ArtifactSpec spec;
    spec.name = name;
    spec.title = title;
    return spec;
}

TEST(ArtifactRegistry, BufferedOutputStaysOrderedWhenABodyFails)
{
    // A mid-sweep compute failure must not garble the other
    // artifacts' buffered output, and the failing artifact's buffer
    // must hold exactly the text committed before the failing index
    // (the CellPool contract: commits happen in index order, and the
    // lowest-index failure stops the committer).
    ArtifactDef alpha{probeSpec("alpha", "ok artifact"),
                      &orderedOkBody};
    ArtifactDef beta{probeSpec("beta", "failing artifact"),
                     &orderedFailingBody};
    ArtifactDef gamma{probeSpec("gamma", "ok artifact"),
                      &orderedOkBody};
    const std::vector<const ArtifactDef *> defs = {&alpha, &beta,
                                                   &gamma};

    std::vector<Capture> res(defs.size());
    std::vector<std::string> errors(defs.size());
    {
        parallel::SweepScheduler scheduler(2);
        std::vector<std::unique_ptr<parallel::SweepPool>> pools;
        std::vector<std::unique_ptr<BufferedSweepContext>> contexts;
        for (const auto *def : defs) {
            pools.push_back(std::make_unique<parallel::SweepPool>(
                scheduler, def->spec.name));
            contexts.push_back(
                std::make_unique<BufferedSweepContext>(
                    def->spec, pools.back().get(),
                    /*want_report=*/false));
        }
        std::vector<std::thread> drivers;
        for (std::size_t i = 0; i < defs.size(); ++i)
            drivers.emplace_back([&, i] {
                // The bpsweep driver shape: catch, record, finalize.
                try {
                    res[i].exitCode =
                        defs[i]->fn(defs[i]->spec, *contexts[i]);
                } catch (const std::exception &e) {
                    res[i].exitCode = 1;
                    errors[i] = e.what();
                }
                contexts[i]->finalize();
            });
        for (auto &t : drivers)
            t.join();
        for (std::size_t i = 0; i < defs.size(); ++i)
            res[i].output = contexts[i]->output();
        contexts.clear();
        pools.clear();
    }

    const std::string okOutput =
        "{0}: header\n"
        "{0}: cell 0 committed\n"
        "{0}: cell 1 committed\n"
        "{0}: cell 2 committed\n"
        "{0}: footer\n";
    const auto expand = [](std::string tmpl, const std::string &n) {
        std::string out;
        std::size_t pos = 0, hit;
        while ((hit = tmpl.find("{0}", pos)) != std::string::npos) {
            out += tmpl.substr(pos, hit - pos);
            out += n;
            pos = hit + 3;
        }
        out += tmpl.substr(pos);
        return out;
    };

    EXPECT_EQ(res[0].exitCode, 0);
    EXPECT_EQ(res[0].output, expand(okOutput, "alpha"));
    EXPECT_EQ(res[2].exitCode, 0);
    EXPECT_EQ(res[2].output, expand(okOutput, "gamma"));

    EXPECT_EQ(res[1].exitCode, 1);
    EXPECT_EQ(errors[1], "cell 2 exploded");
    EXPECT_EQ(res[1].output, "beta: header\n"
                             "beta: cell 0 committed\n"
                             "beta: cell 1 committed\n");
}

TEST(ArtifactRegistry, StandaloneTraceWithJobsWarnsSerialFallback)
{
    const ArtifactSpec spec =
        probeSpec("warn_probe", "warning probe");
    const std::string tracePath =
        (std::filesystem::temp_directory_path() /
         "bpsim_test_warn_probe_trace.json")
            .string();

    BenchArgs traced;
    traced.trace = tracePath;
    traced.jobs = 4;
    testing::internal::CaptureStderr();
    {
        StandaloneSweepContext ctx(spec, traced);
    }
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--trace forces serial cell execution"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("--jobs 4 ignored"), std::string::npos) << err;

    // No warning without --trace, or when the run is serial anyway.
    BenchArgs untraced;
    untraced.jobs = 4;
    testing::internal::CaptureStderr();
    {
        StandaloneSweepContext ctx(spec, untraced);
    }
    err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("serial cell execution"), std::string::npos)
        << err;

    BenchArgs serialTraced;
    serialTraced.trace = tracePath;
    serialTraced.jobs = 1;
    testing::internal::CaptureStderr();
    {
        StandaloneSweepContext ctx(spec, serialTraced);
    }
    err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("serial cell execution"), std::string::npos)
        << err;

    std::remove(tracePath.c_str());
}

int
throwingBody(const ArtifactSpec &, SweepContext &)
{
    throw std::runtime_error("manifest belongs to another campaign");
}

TEST(ArtifactRegistry, ArtifactMainReportsAnExceptionAndReturnsOne)
{
    const ArtifactDef def{probeSpec("throw_probe", "throwing artifact"),
                          &throwingBody};
    char arg0[] = "throw_probe";
    char *argv[] = {arg0, nullptr};
    testing::internal::CaptureStderr();
    const int code = artifactMain(def, 1, argv);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1);
    EXPECT_EQ(err,
              "throw_probe: manifest belongs to another campaign\n");
}

} // namespace
} // namespace bpsim
