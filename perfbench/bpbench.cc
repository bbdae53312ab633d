/**
 * @file
 * bpbench — the measuring program behind perfbench/run.py. It runs one
 * workload through the simulator's public module functions and prints
 * host-time measurements as JSON lines; run.py builds it, picks the
 * goldens, takes medians and prints the result.
 *
 * Workloads (a cell is one predictor configuration replayed over one
 * of the 12 SPECint stand-in traces):
 *   fig1_accuracy  Figure 1's grid (4 kinds x 9 budgets x 12 traces),
 *                  warm v3 trace cache, one worker, through the same
 *                  suiteAccuracyReportEnsemble call the artifact makes.
 *   fig8_timing    Figure 8's four overriding configurations x 12
 *                  traces, warm, one worker, suiteTimingReportEnsemble.
 *   shootout_cold  all nine kinds at 64 KB x 12 traces, from an empty
 *                  trace-cache directory, on a CellPool of nproc workers.
 *
 * Modes:
 *   prime   fill the warm trace cache (--cache) for the workload
 *   rows    one pass down the serial reference path (BPSIM_ENSEMBLE=0,
 *           one worker); writes the rows to --out (and --report)
 *   timed   untraced passes until --seconds have elapsed; one JSON
 *           line per pass (the reference kernel's time before and
 *           after it, setup_s, sweep_s, wall_s, failed cells against
 *           --golden), then the process's peak RSS
 *   traced  one traced pass that calls each layer's public function
 *           itself, with an obs::SpanRecorder span around every call;
 *           writes the span file to --out and prints the counters
 *   host    the compiler and build type this binary was built with
 *
 * Modelled caches, BTB and predictors start empty in every cell: each
 * cell builds a fresh predictor and runTiming builds a fresh core.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ensemble.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/run_report.hh"
#include "obs/span_trace.hh"
#include "parallel/cell_pool.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;
using namespace bpsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload { Fig1, Fig8, Shootout };

struct Options
{
    Workload workload = Workload::Fig1;
    std::string mode;
    std::uint64_t seed = 42;
    Counter ops = 0;
    double seconds = 1.0;
    std::string cache;  ///< warm trace-cache directory
    std::string work;   ///< scratch directory (cold caches, reports)
    std::string golden; ///< golden rows (timed / traced check)
    std::string out;    ///< rows file (rows) or span file (traced)
    std::string report; ///< optional RunReport JSON (rows)
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "bpbench: %s\n", msg.c_str());
    std::exit(2);
}

struct AccuracyCell
{
    PredictorKind kind;
    std::size_t budget;
};

/** Figure 1's cells, budget-major and kind-minor like the artifact. */
const std::vector<PredictorKind> &
fig1Kinds()
{
    static const std::vector<PredictorKind> kinds = {
        PredictorKind::Gshare,
        PredictorKind::BiMode,
        PredictorKind::MultiComponent,
        PredictorKind::Perceptron,
    };
    return kinds;
}

std::vector<AccuracyCell>
accuracyCells(Workload w)
{
    std::vector<AccuracyCell> cells;
    if (w == Workload::Fig1) {
        for (std::size_t b : figure1BudgetsBytes())
            for (PredictorKind k : fig1Kinds())
                cells.push_back({k, b});
    } else if (w == Workload::Shootout) {
        for (PredictorKind k : allKinds())
            cells.push_back({k, 64 * 1024});
    }
    return cells;
}

/** Figure 8's four overriding configurations. */
std::vector<AccuracyCell>
timingCells(Workload w)
{
    if (w != Workload::Fig8)
        return {};
    return {
        {PredictorKind::MultiComponent, 53 * 1024},
        {PredictorKind::Gskew, 64 * 1024},
        {PredictorKind::Perceptron, 64 * 1024},
        {PredictorKind::GshareFast, 64 * 1024},
    };
}

constexpr DelayMode kTimingMode = DelayMode::Overriding;

/** One row as a golden line: the row key, then every counter. */
std::string
rowLine(const obs::RunReport::Row &r)
{
    std::string s = r.key();
    for (unsigned long long v :
         {static_cast<unsigned long long>(r.branches),
          static_cast<unsigned long long>(r.mispredictions),
          static_cast<unsigned long long>(r.hasTiming),
          static_cast<unsigned long long>(r.issueWidth),
          static_cast<unsigned long long>(r.cycles),
          static_cast<unsigned long long>(r.instructions),
          static_cast<unsigned long long>(r.squashedUops),
          static_cast<unsigned long long>(r.flushes),
          static_cast<unsigned long long>(r.flushCyclesOverride),
          static_cast<unsigned long long>(r.flushCyclesMispredict),
          static_cast<unsigned long long>(r.stallCyclesIcache),
          static_cast<unsigned long long>(r.stallCyclesBtb),
          static_cast<unsigned long long>(r.robStallCycles)}) {
        s += '\t';
        s += std::to_string(v);
    }
    return s;
}

/** Golden rows keyed by row key; a cell fails when its line differs
 *  from the golden's or either side lacks it. */
class Golden
{
  public:
    explicit Golden(const std::string &path)
    {
        if (path.empty())
            return;
        std::ifstream in(path);
        if (!in)
            die("cannot open golden " + path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            const auto tab = line.find('\t');
            lines_[line.substr(0, tab)] = line;
        }
        if (lines_.empty())
            die("golden " + path + " holds no rows");
    }

    bool enabled() const { return !lines_.empty(); }

    /** Cells compared: the union of report and golden keys. */
    std::size_t
    failedCells(const std::vector<obs::RunReport::Row> &rows,
                std::size_t *cells) const
    {
        std::size_t failed = 0;
        std::size_t matched = 0;
        for (const auto &r : rows) {
            const auto it = lines_.find(r.key());
            if (it == lines_.end()) {
                ++failed;
                continue;
            }
            ++matched;
            if (it->second != rowLine(r))
                ++failed;
        }
        const std::size_t missing = lines_.size() - matched;
        *cells = rows.size() + missing;
        return failed + missing;
    }

  private:
    std::map<std::string, std::string> lines_;
};

std::vector<AccuracyCellConfig>
accuracyConfigs(Workload w)
{
    std::vector<AccuracyCellConfig> configs;
    for (const auto &c : accuracyCells(w))
        configs.emplace_back(
            [k = c.kind, b = c.budget] { return makePredictor(k, b); },
            kindName(c.kind), c.budget);
    return configs;
}

std::vector<TimingCellConfig>
timingConfigs(Workload w)
{
    std::vector<TimingCellConfig> configs;
    for (const auto &c : timingCells(w))
        configs.emplace_back(
            [k = c.kind, b = c.budget] {
                return makeFetchPredictor(k, b, kTimingMode);
            },
            kindName(c.kind), delayModeName(kTimingMode), c.budget,
            CoreConfig{});
    return configs;
}

unsigned
workloadJobs(const Options &o)
{
    return o.workload == Workload::Shootout
               ? parallel::hardwareJobs()
               : 1;
}

std::string
coldDir(const Options &o)
{
    return o.work + "/cold-cache";
}

/** Empty shootout_cold's trace-cache directory, outside the timed
 *  phases. */
void
clearColdDir(const Options &o)
{
    if (o.workload == Workload::Shootout)
        fs::remove_all(coldDir(o));
}

/** The workload's suite: loaded from the warm cache, or generated
 *  and stored into the empty cold one on @p pool (shootout_cold). */
std::unique_ptr<SuiteTraces>
buildSuite(const Options &o, parallel::CellPool *pool)
{
    if (o.workload == Workload::Shootout)
        return std::make_unique<SuiteTraces>(o.ops, o.seed, pool,
                                             TraceCache(coldDir(o)));
    return std::make_unique<SuiteTraces>(o.ops, o.seed, nullptr,
                                         TraceCache(o.cache));
}

/** The workload's suite call: the same entry point its artifact
 *  uses. Rows land in @p report. */
EnsembleStats
sweep(const Options &o, const SuiteTraces &suite,
      parallel::CellPool *pool, obs::RunReport &report)
{
    if (o.workload == Workload::Fig8) {
        auto configs = timingConfigs(o.workload);
        return suiteTimingReportEnsemble(suite, configs, report,
                                         nullptr, nullptr, pool);
    }
    auto configs = accuracyConfigs(o.workload);
    return suiteAccuracyReportEnsemble(suite, configs, report, nullptr,
                                       pool);
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Fig1:
        return "fig1_accuracy";
      case Workload::Fig8:
        return "fig8_timing";
      case Workload::Shootout:
        return "shootout_cold";
    }
    return "?";
}

/**
 * A fixed kernel that runs no simulator code and touches no memory
 * beyond a 16 KiB table: a gshare-style walk driven by 8 M xorshift
 * branches, about 0.08 s on a quiet host. Its time says how fast the
 * host ran this thread just then.
 */
double
referenceKernelSeconds()
{
    constexpr std::size_t kTable = std::size_t{1} << 14;
    constexpr int kBranches = 1 << 23;
    std::vector<std::uint8_t> table(kTable, 1);
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, history = 0, correct = 0;
    for (int i = 0; i < kBranches; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto pc = static_cast<std::uint32_t>(x >> 20);
        const bool taken = (pc ^ (pc >> 9)) & 1;
        std::uint8_t &ctr = table[(pc ^ history) & (kTable - 1)];
        correct += (ctr >= 2) == taken;
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else if (ctr > 0) {
            --ctr;
        }
        history = (history << 1 | taken) & 0xfffff;
    }
    // Keep the loop: its result is otherwise unused.
    asm volatile("" : : "r"(correct));
    return secondsSince(t0);
}

/** The reference kernel on @p threads threads at once (a workload's
 *  worker count): the mean of their times. */
double
referenceSeconds(unsigned threads)
{
    std::vector<double> times(threads);
    std::vector<std::thread> others;
    for (unsigned i = 1; i < threads; ++i)
        others.emplace_back(
            [&times, i] { times[i] = referenceKernelSeconds(); });
    times[0] = referenceKernelSeconds();
    for (auto &t : others)
        t.join();
    double sum = 0.0;
    for (double t : times)
        sum += t;
    return sum / threads;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
writeLines(const std::string &path,
           const std::vector<obs::RunReport::Row> &rows)
{
    std::ofstream out(path);
    for (const auto &r : rows)
        out << rowLine(r) << '\n';
    if (!out)
        die("cannot write " + path);
}

int
modePrime(const Options &o)
{
    if (o.workload == Workload::Shootout)
        return 0;
    const SuiteTraces suite(o.ops, o.seed, nullptr, TraceCache(o.cache));
    std::printf("{\"primed\": %zu, \"generated\": %llu}\n", suite.size(),
                static_cast<unsigned long long>(suite.cacheMisses()));
    return 0;
}

int
modeRows(const Options &o)
{
    // The serial reference path: no ensemble batching, one worker.
    ::setenv("BPSIM_ENSEMBLE", "0", 1);
    std::unique_ptr<parallel::CellPool> pool;
    if (o.workload == Workload::Shootout)
        pool = std::make_unique<parallel::CellPool>(1);
    clearColdDir(o);
    const auto suite = buildSuite(o, pool.get());
    obs::RunReport report;
    report.experiment = workloadName(o.workload);
    sweep(o, *suite, pool.get(), report);
    writeLines(o.out, report.rows);
    if (!o.report.empty() && !report.writeFile(o.report))
        die("cannot write " + o.report);
    clearColdDir(o);
    std::printf("{\"rows\": %zu}\n", report.rows.size());
    return 0;
}

int
modeTimed(const Options &o)
{
    const Golden golden(o.golden);
    if (!golden.enabled())
        die("timed mode needs --golden");
    const std::string reportPath = o.work + "/timed-report.json";
    clearColdDir(o);
    const auto start = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(start) < o.seconds;
         ++pass, clearColdDir(o)) {
        // The reference kernel on the workload's width, just before
        // and just after the pass: how fast the host ran the pass.
        const double refBefore = referenceSeconds(workloadJobs(o));
        // A warm set-up takes tens of milliseconds, so a pass repeats it
        // to give setup_s's median more samples; the last one is swept.
        const int setups = o.workload == Workload::Shootout ? 1 : 5;
        std::string setupList;
        std::unique_ptr<parallel::CellPool> pool;
        std::unique_ptr<SuiteTraces> suite;
        auto t0 = Clock::now();
        double setup = 0.0;
        for (int i = 0; i < setups; ++i) {
            suite.reset();
            t0 = Clock::now();
            if (o.workload == Workload::Shootout)
                pool = std::make_unique<parallel::CellPool>(
                    workloadJobs(o), "shootout");
            suite = buildSuite(o, pool.get());
            setup = secondsSince(t0);
            char buf[32];
            std::snprintf(buf, sizeof buf, "%s%.9f", i ? ", " : "", setup);
            setupList += buf;
        }
        if (o.workload != Workload::Shootout && suite->cacheMisses())
            die("warm trace cache is not primed");

        const auto t1 = Clock::now();
        obs::RunReport report;
        report.experiment = workloadName(o.workload);
        const EnsembleStats stats = sweep(o, *suite, pool.get(), report);
        const double sweepS = secondsSince(t1);

        if (!report.writeFile(reportPath))
            die("cannot write " + reportPath);
        std::size_t cells = 0;
        const std::size_t failed =
            golden.failedCells(report.rows, &cells);
        const double wall = secondsSince(t0);
        const double refAfter = referenceSeconds(workloadJobs(o));

        std::printf(
            "{\"pass\": %d, \"ref_s\": [%.9f, %.9f], "
            "\"setup_s\": %.9f, \"setups_s\": [%s], "
            "\"sweep_s\": %.9f, \"wall_s\": %.9f, \"cells\": %zu, "
            "\"failed\": %zu, \"batched_cells\": %zu, "
            "\"serial_cells\": %zu, \"groups\": %zu, "
            "\"cache_hits\": %llu, \"cache_misses\": %llu}\n",
            pass, refBefore, refAfter, setup, setupList.c_str(), sweepS,
            wall, cells, failed, stats.batchedCells, stats.serialCells,
            stats.groups,
            static_cast<unsigned long long>(suite->cacheHits()),
            static_cast<unsigned long long>(suite->cacheMisses()));
        std::fflush(stdout);
    }
    std::printf("{\"peak_rss_mb\": %.6f}\n", peakRssMb());
    return 0;
}

/**
 * The traced pass. The "mirror" section redoes the workload's work by
 * calling each layer's public function itself — trace generation and
 * cache store/load, predictor replay, ensemble replay, the timing core
 * and the report write — on a CellPool of the workload's width, with a
 * span around every call. The "extra" section then takes what the
 * rates and ratios need: serial replays of the ensemble groups (the
 * speedup's base), predict/update replays of the timing cells' fetch
 * predictors (subtracted from runTiming to give the core's own time),
 * and a one-trace probe of every layer the workload does not use, so
 * every per-layer metric is measured on every workload.
 */
class TracedPass
{
  public:
    explicit TracedPass(const Options &o)
        : o_(o), names_(specint2000Names()), rec_(1 << 14)
    {
        obs::SpanRecorder::install(&rec_);
        obs::SpanRecorder::nameThisThread("bpbench");
    }
    ~TracedPass() { obs::SpanRecorder::install(nullptr); }
    TracedPass(const TracedPass &) = delete;
    TracedPass &operator=(const TracedPass &) = delete;

    int
    run()
    {
        const Golden golden(o_.golden);
        clearColdDir(o_);
        const auto t0 = Clock::now();
        const std::uint64_t m0 = rec_.nowNs();
        parallel::CellPool pool(workloadJobs(o_), "mirror");
        mirrorSetup(pool);
        mirrorSweep(pool);
        const std::size_t reportBytes = mirrorReport();
        const double mirrorS = secondsSince(t0);
        rec_.span("bench", "mirror", m0, rec_.nowNs() - m0);
        std::size_t cells = 0;
        const std::size_t failed =
            golden.enabled() ? golden.failedCells(report_.rows, &cells)
                             : 0;
        const double residentMb = residentBytes() / (1024.0 * 1024.0);

        const std::uint64_t e0 = rec_.nowNs();
        extra();
        rec_.span("bench", "extra", e0, rec_.nowNs() - e0);
        clearColdDir(o_);
        fs::remove_all(o_.work + "/probe-cache");

        obs::SpanRecorder::install(nullptr);
        if (rec_.dropped())
            die("span rings overflowed");
        if (!rec_.writeFile(o_.out))
            die("cannot write " + o_.out);

        const parallel::PoolStats &ps = pool.stats();
        std::printf(
            "{\"mirror_s\": %.9f, \"cells\": %zu, \"failed\": %zu, "
            "\"cache_hits\": %llu, \"cache_misses\": %llu, "
            "\"resident_mb\": %.6f, \"report_bytes\": %zu, "
            "\"branches\": %llu, \"mispredictions\": %llu, "
            "\"fetch_branches\": %llu, \"disagreements\": %llu, "
            "\"cycles\": %llu, \"instructions\": %llu, "
            "\"flush_cycles\": %llu, \"rob_stall_cycles\": %llu, "
            "\"squashed_uops\": %llu, \"pool_jobs\": %u, "
            "\"pool_wall_s\": %.9f, \"pool_busy_s\": %.9f, "
            "\"pool_cells\": %llu, \"pool_max_queue\": %zu}\n",
            mirrorS, cells, failed, ull(hits_), ull(misses_), residentMb,
            reportBytes, ull(branches_), ull(mispredictions_),
            ull(fetchBranches_), ull(disagreements_), ull(sim_.cycles),
            ull(sim_.instructions), ull(sim_.flushCycles()),
            ull(sim_.robStallCycles), ull(sim_.squashedUops), ps.jobs,
            ps.wallMs / 1e3, ps.busyMs / 1e3,
            ull(ps.cellsCompleted), ps.maxQueueDepth);
        return 0;
    }

  private:
    static unsigned long long ull(Counter c) { return c; }

    /** Time @p fn under a span of layer @p cat; @p arg names the
     *  unit of work @p fn returns. */
    template <typename Fn>
    auto
    span(const char *cat, const std::string &name, const char *arg,
         Fn &&fn)
    {
        const std::uint64_t t0 = rec_.nowNs();
        auto [result, work] = fn();
        rec_.span(cat, name, t0, rec_.nowNs() - t0, arg, work);
        return std::move(result);
    }

    TraceBuffer
    generate(std::size_t i)
    {
        return span("workloads", "generate", "ops", [&] {
            const auto w = makeWorkload(names_[i]);
            TraceBuffer t = generateTrace(*w, o_.ops, o_.seed);
            const std::uint64_t n = t.size();
            return std::pair{std::move(t), n};
        });
    }

    void
    store(const TraceCache &cache, std::size_t i, const TraceBuffer &t)
    {
        span("trace", "store", "ops", [&] {
            if (!cache.store(names_[i], o_.ops, o_.seed, t))
                throw std::runtime_error("trace store failed");
            return std::pair{0, static_cast<std::uint64_t>(t.size())};
        });
    }

    TraceBuffer
    load(const TraceCache &cache, std::size_t i)
    {
        return span("trace", "load", "ops", [&] {
            auto t = cache.load(names_[i], o_.ops, o_.seed);
            if (!t)
                throw std::runtime_error("trace cache miss: " +
                                         names_[i]);
            const std::uint64_t n = t->size();
            return std::pair{std::move(*t), n};
        });
    }

    /** First op-stream touch of a zero-copy buffer decodes it. */
    void
    decode(const TraceBuffer &t)
    {
        if (t.opsMaterialized())
            return;
        span("trace", "decode", "ops", [&] {
            (void)t[0];
            return std::pair{0, static_cast<std::uint64_t>(t.size())};
        });
    }

    AccuracyResult
    replay(PredictorKind k, std::size_t budget, const TraceBuffer &t,
           const char *arg = "branches")
    {
        auto pred = span("predictors", "make", "budget", [&] {
            return std::pair{makePredictor(k, budget),
                             static_cast<std::uint64_t>(budget)};
        });
        const AccuracyResult r =
            span("predictors", kindName(k), arg, [&] {
                const AccuracyResult a = runAccuracy(*pred, t);
                return std::pair{a, static_cast<std::uint64_t>(
                                        a.branches)};
            });
        branches_ += r.branches;
        mispredictions_ += r.mispredictions;
        return r;
    }

    /** One ensemble group: every Figure 1 budget of @p k on @p t. */
    std::vector<AccuracyResult>
    ensemble(PredictorKind k, const TraceBuffer &t)
    {
        std::vector<std::unique_ptr<DirectionPredictor>> owned;
        std::vector<DirectionPredictor *> members;
        span("predictors", "make", "members", [&] {
            for (std::size_t b : figure1BudgetsBytes())
                owned.push_back(makePredictor(k, b));
            for (auto &p : owned)
                members.push_back(p.get());
            return std::pair{0, static_cast<std::uint64_t>(
                                    members.size())};
        });
        return span("core", "ensemble." + kindName(k), "member_branches",
                    [&] {
                        auto rs = runAccuracyEnsemble(members, t);
                        std::uint64_t n = 0;
                        for (const auto &r : rs)
                            n += r.branches;
                        return std::pair{std::move(rs), n};
                    });
    }

    /** Replay a group's cells serially (the speedup's base). */
    void
    ensembleBase(PredictorKind k, const TraceBuffer &t)
    {
        for (std::size_t b : figure1BudgetsBytes())
            replay(k, b, t, "member_branches");
    }

    /** The fetch predictor alone over the branch columns: what a
     *  timing cell spends in `pipeline`, without the core. */
    void
    fetchReplay(const AccuracyCell &c, const TraceBuffer &t)
    {
        auto fp = makeFetchPredictor(c.kind, c.budget, kTimingMode);
        span("pipeline",
             delayModeName(kTimingMode) + "." + kindName(c.kind),
             "branches", [&] {
                 const BranchSpan bs = t.branchView();
                 for (std::size_t i = 0; i < bs.size(); ++i) {
                     const FetchPrediction p = fp->predict(bs.pc(i));
                     disagreements_ += p.bubbleCycles ? 1 : 0;
                     fp->update(bs.pc(i), bs.taken(i));
                 }
                 return std::pair{0, static_cast<std::uint64_t>(
                                         bs.size())};
             });
        fetchBranches_ += t.branchView().size();
    }

    SimResult
    timing(const AccuracyCell &c, const TraceBuffer &t)
    {
        decode(t);
        auto fp = makeFetchPredictor(c.kind, c.budget, kTimingMode);
        const SimResult r = span("sim", kindName(c.kind), "insts", [&] {
            const SimResult s = runTiming(CoreConfig{}, *fp, t);
            return std::pair{s, static_cast<std::uint64_t>(
                                    s.instructions)};
        });
        sim_.cycles += r.cycles;
        sim_.instructions += r.instructions;
        sim_.overrideStallCycles += r.overrideStallCycles;
        sim_.mispredictWaitCycles += r.mispredictWaitCycles;
        sim_.robStallCycles += r.robStallCycles;
        sim_.squashedUops += r.squashedUops;
        return r;
    }

    void
    mirrorSetup(parallel::CellPool &pool)
    {
        traces_.resize(names_.size());
        if (o_.workload == Workload::Shootout) {
            const TraceCache cache(coldDir(o_));
            pool.run(names_.size(), [&](std::size_t i) {
                traces_[i] = generate(i);
                store(cache, i, traces_[i]);
            });
            misses_ += names_.size();
            return;
        }
        const TraceCache cache(o_.cache);
        for (std::size_t i = 0; i < names_.size(); ++i)
            traces_[i] = load(cache, i);
        hits_ += names_.size();
        loadedFromCache_ = true;
    }

    void
    mirrorSweep(parallel::CellPool &pool)
    {
        const std::size_t nw = names_.size();
        report_.experiment = workloadName(o_.workload);
        report_.opsPerWorkload = o_.ops;
        report_.seed = o_.seed;
        if (o_.workload == Workload::Fig8) {
            const auto cells = timingCells(o_.workload);
            std::vector<SimResult> results(cells.size() * nw);
            pool.run(results.size(), [&](std::size_t i) {
                results[i] = timing(cells[i / nw], traces_[i % nw]);
            });
            for (std::size_t i = 0; i < results.size(); ++i)
                report_.rows.push_back(reportRow(
                    names_[i % nw], kindName(cells[i / nw].kind),
                    delayModeName(kTimingMode), cells[i / nw].budget,
                    CoreConfig{}, results[i]));
            return;
        }
        const auto cells = accuracyCells(o_.workload);
        std::vector<AccuracyResult> results(cells.size() * nw);
        if (o_.workload == Workload::Fig1) {
            // One ensemble group per (trace, kind), as
            // suiteAccuracyReportEnsemble forms them.
            const auto &kinds = fig1Kinds();
            pool.run(nw, [&](std::size_t w) {
                for (std::size_t k = 0; k < kinds.size(); ++k) {
                    const auto rs = ensemble(kinds[k], traces_[w]);
                    for (std::size_t b = 0; b < rs.size(); ++b)
                        results[(b * kinds.size() + k) * nw + w] = rs[b];
                }
            });
        } else {
            pool.run(results.size(), [&](std::size_t i) {
                const AccuracyCell &c = cells[i / nw];
                results[i] = replay(c.kind, c.budget, traces_[i % nw]);
            });
        }
        for (std::size_t i = 0; i < results.size(); ++i)
            report_.rows.push_back(reportRow(names_[i % nw],
                                             kindName(cells[i / nw].kind),
                                             cells[i / nw].budget,
                                             results[i]));
    }

    std::size_t
    mirrorReport()
    {
        const std::string path = o_.work + "/traced-report.json";
        return span("obs", "report", "bytes", [&] {
            if (!report_.writeFile(path))
                throw std::runtime_error("cannot write " + path);
            const auto n = static_cast<std::size_t>(fs::file_size(path));
            return std::pair{n, static_cast<std::uint64_t>(n)};
        });
    }

    /** Heap bytes of the trace buffers plus the mapped cache entries
     *  a warm set-up reads. */
    double
    residentBytes() const
    {
        double bytes = 0.0;
        const TraceCache cache(o_.cache);
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            bytes += static_cast<double>(traces_[i].memoryBytes());
            if (loadedFromCache_)
                bytes += static_cast<double>(fs::file_size(
                    cache.entryPath(names_[i], o_.ops, o_.seed)));
        }
        return bytes;
    }

    void
    extra()
    {
        const TraceBuffer &probe = traces_.front();
        const bool fig1 = o_.workload == Workload::Fig1;
        const bool fig8 = o_.workload == Workload::Fig8;

        // trace/workloads: the set-up path this workload does not take.
        if (o_.workload == Workload::Shootout) {
            const TraceCache cache(coldDir(o_));
            std::vector<TraceBuffer> loaded;
            for (std::size_t i = 0; i < names_.size(); ++i)
                loaded.push_back(load(cache, i));
            decode(loaded.front());
        } else {
            const TraceCache cache(o_.work + "/probe-cache");
            fs::remove_all(cache.dir());
            store(cache, 0, generate(0));
        }

        // predictors: every kind, serially; core: the ensemble
        // groups with their serial base.
        if (fig1) {
            for (const TraceBuffer &t : traces_)
                for (PredictorKind k : fig1Kinds())
                    ensembleBase(k, t);
        } else {
            for (PredictorKind k : fig1Kinds()) {
                ensemble(k, probe);
                ensembleBase(k, probe);
            }
        }
        if (o_.workload != Workload::Shootout)
            for (PredictorKind k : allKinds())
                replay(k, 64 * 1024, probe);

        // pipeline and sim: the fetch predictors alone, and the core.
        for (const auto &c : timingCells(Workload::Fig8)) {
            if (fig8) {
                for (const TraceBuffer &t : traces_)
                    fetchReplay(c, t);
            } else {
                fetchReplay(c, probe);
                timing(c, probe);
            }
        }
    }

    const Options &o_;
    const std::vector<std::string> &names_;
    obs::SpanRecorder rec_;
    std::vector<TraceBuffer> traces_;
    obs::RunReport report_;
    bool loadedFromCache_ = false;
    Counter hits_ = 0;
    Counter misses_ = 0;
    // replay() also runs on shootout_cold's pool workers.
    std::atomic<Counter> branches_{0};
    std::atomic<Counter> mispredictions_{0};
    Counter fetchBranches_ = 0;
    Counter disagreements_ = 0;
    SimResult sim_;
};

int
modeHost()
{
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                BPBENCH_COMPILER, BPBENCH_BUILD_TYPE);
    return 0;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            if (v == "fig1_accuracy")
                o.workload = Workload::Fig1;
            else if (v == "fig8_timing")
                o.workload = Workload::Fig8;
            else if (v == "shootout_cold")
                o.workload = Workload::Shootout;
            else
                die("unknown workload " + v);
        } else if (a == "--mode") {
            o.mode = v;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--ops") {
            o.ops = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--cache") {
            o.cache = v;
        } else if (a == "--work") {
            o.work = v;
        } else if (a == "--golden") {
            o.golden = v;
        } else if (a == "--out") {
            o.out = v;
        } else if (a == "--report") {
            o.report = v;
        } else {
            die("unknown argument " + a);
        }
    }
    if (o.mode != "host") {
        if (o.ops == 0 || o.work.empty())
            die("--ops and --work are required");
        if (o.workload != Workload::Shootout && o.cache.empty())
            die("--cache is required for warm workloads");
        if ((o.mode == "rows" || o.mode == "traced") && o.out.empty())
            die("--out is required");
        fs::create_directories(o.work);
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parse(argc, argv);
        if (o.mode == "host")
            return modeHost();
        if (o.mode == "prime")
            return modePrime(o);
        if (o.mode == "rows")
            return modeRows(o);
        if (o.mode == "timed")
            return modeTimed(o);
        if (o.mode == "traced")
            return TracedPass(o).run();
        die("unknown mode '" + o.mode + "'");
    } catch (const std::exception &e) {
        die(e.what());
    }
}
