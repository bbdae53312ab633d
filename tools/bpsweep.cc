/**
 * @file
 * bpsweep — run every paper artifact in one process, on one shared
 * worker pool.
 *
 *   bpsweep --list                      name + title of each artifact
 *   bpsweep --all [--jobs N] [--report-dir DIR]
 *           [--timeline FILE] [--progress]
 *   bpsweep NAME... [same options]
 *
 * Fourteen separate bench processes at --jobs N each leave cores idle
 * whenever one bench is in a serial phase (trace generation, report
 * assembly, the tail of an uneven grid). bpsweep instead hosts every
 * artifact body in one process: each gets a driver thread and a
 * SweepPool view onto one SweepScheduler, whose N workers drain all
 * artifacts' cell deques with work stealing — so the long-pole
 * artifact keeps every core busy while short ones finish. Traces are
 * materialized once process-wide through the SharedTracePool instead
 * of once per bench.
 *
 * Determinism contract: each artifact's rows are computed on workers
 * but committed on its own driver thread in strict index order (the
 * CellPool contract), so each per-artifact report written under
 * --report-dir is row-identical to the standalone bench's `--jobs N`
 * report — `bpstat diff` between the two is the CI gate. Table text
 * is buffered per artifact and flushed in registry order, so stdout
 * is stable no matter how the sweep interleaved.
 *
 * Observability (neither affects the committed rows — the report
 * determinism gate runs with them on):
 *
 *  - --timeline FILE installs an obs::SpanRecorder for the whole
 *    sweep and writes a Chrome trace-event JSON flight recording
 *    (worker/driver tracks, per-cell spans, steal instants, idle
 *    gaps, trace-pool and trace-cache spans) for Perfetto or
 *    `bpstat timeline`.
 *  - --progress refreshes a one-line live meter on stderr from a
 *    dedicated thread: artifacts and cells done, busy workers, ETA.
 *
 * Exit codes: 0 all artifacts succeeded, 1 any body failed (its
 * buffered output and error still print), 2 usage error.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact_registry.hh"
#include "obs/report_session.hh"
#include "obs/span_trace.hh"
#include "parallel/sweep_scheduler.hh"
#include "trace/shared_trace_pool.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --list\n"
                 "       %s (--all | NAME...) [--jobs N] "
                 "[--report-dir DIR]\n"
                 "           [--timeline FILE] [--progress]\n",
                 argv0, argv0);
    return 2;
}

/** Result of one artifact body, filled in by its driver thread. */
struct ArtifactResult
{
    int exitCode = 0;
    std::string error; ///< what() of an escaped exception, if any
    double wallMs = 0.0;
};

/**
 * Live one-line progress meter on stderr, refreshed by a dedicated
 * thread on a wall-clock tick. Reads only the scheduler's racy
 * progress() snapshot and an atomic artifact counter — it can never
 * perturb the committed rows.
 */
class ProgressMeter
{
  public:
    ProgressMeter(const bpsim::parallel::SweepScheduler &scheduler,
                  const std::atomic<std::size_t> &artifacts_done,
                  std::size_t artifacts_total)
        : sched_(scheduler),
          artifactsDone_(artifacts_done),
          artifactsTotal_(artifacts_total),
          start_(std::chrono::steady_clock::now()),
          thread_([this] { loop(); })
    {
    }

    ~ProgressMeter() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stop_)
                return;
            stop_ = true;
        }
        tick_.notify_all();
        thread_.join();
        std::fputc('\n', stderr);
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            render();
            tick_.wait_for(lock, std::chrono::milliseconds(500),
                           [this] { return stop_; });
            if (stop_) {
                render(); // final state before the newline
                return;
            }
        }
    }

    void
    render()
    {
        const auto p = sched_.progress();
        bpsim::Counter enqueued = 0, done = 0;
        for (const auto &q : p.queues) {
            enqueued += q.enqueued;
            done += q.done;
        }
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        // ETA from throughput so far against the cells enqueued so
        // far; an estimate only, since drivers enqueue as they go.
        char eta[32];
        if (done > 0 && enqueued > done) {
            const double rem = elapsed *
                               static_cast<double>(enqueued - done) /
                               static_cast<double>(done);
            std::snprintf(eta, sizeof(eta), "ETA %4.0fs", rem);
        } else {
            std::snprintf(eta, sizeof(eta), "ETA   --");
        }
        std::fprintf(stderr,
                     "\r[bpsweep] artifacts %zu/%zu | cells "
                     "%llu/%llu | busy %zu/%u | %5.0fs | %s   ",
                     artifactsDone_.load(std::memory_order_relaxed),
                     artifactsTotal_,
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(enqueued),
                     p.busyWorkers, p.jobs, elapsed, eta);
        std::fflush(stderr);
    }

    const bpsim::parallel::SweepScheduler &sched_;
    const std::atomic<std::size_t> &artifactsDone_;
    const std::size_t artifactsTotal_;
    const std::chrono::steady_clock::time_point start_;
    std::mutex mu_;
    std::condition_variable tick_;
    bool stop_ = false;
    std::thread thread_; ///< last member: starts after state is ready
};

} // namespace

int
main(int argc, char **argv)
{
    using bpsim::ArtifactDef;
    using bpsim::artifactRegistry;

    const unsigned jobs = bpsim::takeJobsFlag(argc, argv);
    const std::string reportDir =
        bpsim::obs::takeFlag(argc, argv, "--report-dir");
    const std::string timelinePath =
        bpsim::obs::takeFlag(argc, argv, "--timeline");
    bool all = false, list = false, progress = false;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--all") == 0)
            all = true;
        else if (std::strcmp(argv[i], "--list") == 0)
            list = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            progress = true;
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], argv[i]);
            return usage(argv[0]);
        } else
            names.emplace_back(argv[i]);
    }

    if (list) {
        for (const ArtifactDef &def : artifactRegistry())
            std::printf("%-28s %s\n", def.spec.name.c_str(),
                        def.spec.title.c_str());
        return 0;
    }
    if (!all && names.empty())
        return usage(argv[0]);
    for (const auto &name : names) {
        if (!bpsim::findArtifact(name)) {
            std::fprintf(stderr, "%s: unknown artifact '%s' "
                         "(try --list)\n", argv[0], name.c_str());
            return 2;
        }
    }

    // Selection in registry (canonical) order, so output and report
    // files are stable regardless of CLI argument order.
    std::vector<const ArtifactDef *> selected;
    for (const ArtifactDef &def : artifactRegistry()) {
        if (all)
            selected.push_back(&def);
        else
            for (const auto &name : names)
                if (name == def.spec.name) {
                    selected.push_back(&def);
                    break;
                }
    }

    const bool wantReport = !reportDir.empty();
    if (wantReport) {
        std::error_code ec;
        std::filesystem::create_directories(reportDir, ec);
        if (ec) {
            std::fprintf(stderr, "%s: cannot create %s: %s\n",
                         argv[0], reportDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    // The flight recorder must be installed before the scheduler
    // spawns its workers and drained only after every recording
    // thread (workers AND drivers) has been joined — hence the
    // recorder outliving the scheduler scope below.
    std::unique_ptr<bpsim::obs::SpanRecorder> recorder;
    if (!timelinePath.empty()) {
        recorder =
            std::make_unique<bpsim::obs::SpanRecorder>(1 << 15);
        bpsim::obs::SpanRecorder::install(recorder.get());
        bpsim::obs::SpanRecorder::nameThisThread("main");
    }

    const auto sweepStart = std::chrono::steady_clock::now();
    std::vector<ArtifactResult> results(selected.size());
    std::vector<std::unique_ptr<bpsim::BufferedSweepContext>> contexts(
        selected.size());
    bpsim::parallel::SweepSchedulerStats sched;
    {
        bpsim::parallel::SweepScheduler scheduler(jobs);
        std::atomic<std::size_t> artifactsDone{0};

        // Pools must die before the scheduler; contexts outlive the
        // pools only because nothing touches ctx.pool() after join.
        std::vector<std::unique_ptr<bpsim::parallel::SweepPool>> pools(
            selected.size());
        std::vector<std::thread> drivers;
        drivers.reserve(selected.size());
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const ArtifactDef *def = selected[i];
            pools[i] = std::make_unique<bpsim::parallel::SweepPool>(
                scheduler, def->spec.name);
            contexts[i] = std::make_unique<bpsim::BufferedSweepContext>(
                def->spec, pools[i].get(), wantReport);
            drivers.emplace_back([def, &ctx = *contexts[i],
                                  &res = results[i], &artifactsDone] {
                bpsim::obs::SpanRecorder::nameThisThread(
                    "driver " + def->spec.name);
                const auto t0 = std::chrono::steady_clock::now();
                try {
                    bpsim::obs::SpanScope bodySpan("artifact",
                                                   def->spec.name);
                    res.exitCode = def->fn(def->spec, ctx);
                } catch (const std::exception &e) {
                    res.exitCode = 1;
                    res.error = e.what();
                }
                res.wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                artifactsDone.fetch_add(1,
                                        std::memory_order_relaxed);
            });
        }
        {
            std::unique_ptr<ProgressMeter> meter;
            if (progress)
                meter = std::make_unique<ProgressMeter>(
                    scheduler, artifactsDone, selected.size());
            for (auto &t : drivers)
                t.join();
        }

        // Snapshot metrics on the main thread, after the drivers are
        // done: the sweep-level scheduler counters join each report's
        // registry here (bpstat summary reads them), and finalize()
        // then attaches the snapshot exactly as the driver used to.
        sched = scheduler.stats();
        for (auto &ctx : contexts) {
            if (wantReport)
                sched.publish(ctx->metrics());
            ctx->finalize();
        }
    }
    const double sweepMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - sweepStart)
            .count();

    if (recorder) {
        // Workers and drivers are joined; drain and export.
        bpsim::obs::SpanRecorder::install(nullptr);
        if (!recorder->writeFile(timelinePath))
            return 1;
        std::fprintf(stderr,
                     "obs: wrote timeline %s (%zu threads%s)\n",
                     timelinePath.c_str(), recorder->threadCount(),
                     recorder->dropped() ? ", ring overflowed" : "");
    }

    // Flush buffered output and reports in registry order.
    bool failed = false;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const ArtifactDef *def = selected[i];
        const auto &out = contexts[i]->output();
        if (i > 0)
            std::fputc('\n', stdout);
        std::fwrite(out.data(), 1, out.size(), stdout);
        if (!results[i].error.empty())
            std::fprintf(stderr, "bpsweep: %s failed: %s\n",
                         def->spec.name.c_str(),
                         results[i].error.c_str());
        if (results[i].exitCode != 0)
            failed = true;
        if (wantReport) {
            const std::string path =
                reportDir + "/" + def->spec.name + ".json";
            if (contexts[i]->report().writeFile(path))
                std::fprintf(stderr,
                             "obs: wrote report %s (%zu rows)\n",
                             path.c_str(),
                             contexts[i]->report().rows.size());
            else
                failed = true;
        }
    }

    const auto pool = bpsim::SharedTracePool::global().stats();
    std::printf("\n-- bpsweep summary --------------------------------"
                "------------\n");
    std::printf("%-28s %8s %10s\n", "artifact", "exit", "wall ms");
    for (std::size_t i = 0; i < selected.size(); ++i)
        std::printf("%-28s %8d %10.0f\n",
                    selected[i]->spec.name.c_str(),
                    results[i].exitCode, results[i].wallMs);
    std::printf("sweep: %zu artifact(s), %u job(s), %.0f ms wall\n",
                selected.size(), sched.jobs, sweepMs);
    std::printf("scheduler: %llu cell(s), %llu steal(s), "
                "%zu peak active queue(s)\n",
                static_cast<unsigned long long>(sched.cells),
                static_cast<unsigned long long>(sched.steals),
                sched.peakActiveQueues);
    std::printf("trace pool: %llu memory hit(s), %llu disk hit(s), "
                "%llu generated, %llu evicted\n",
                static_cast<unsigned long long>(pool.memoryHits),
                static_cast<unsigned long long>(pool.diskHits),
                static_cast<unsigned long long>(pool.generated),
                static_cast<unsigned long long>(pool.evictions));

    return failed ? 1 : 0;
}
