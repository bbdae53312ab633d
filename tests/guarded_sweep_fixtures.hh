/**
 * @file
 * Shared fixtures of the guarded-sweep tests (robust::CellGuard on
 * the suite sweeps of core/runner.hh): a small suite, a guard that
 * never really sleeps, configs whose factories a test can fail,
 * count or kill per cell, and a predictor that outlives a short
 * deadline.
 */

#ifndef BPSIM_TESTS_GUARDED_SWEEP_FIXTURES_HH
#define BPSIM_TESTS_GUARDED_SWEEP_FIXTURES_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "obs/run_report.hh"
#include "robust/cell_guard.hh"

namespace bpsim {

/** A non-std::exception type: retryCall lets it through, so a sweep
 *  that meets it unwinds the way a killed campaign stops. */
struct Killed
{
};

/** Twelve workloads of 4,000 ops: fast, and shared by every test. */
inline const SuiteTraces &
smallSuite()
{
    static const SuiteTraces suite(4000, 7);
    return suite;
}

inline obs::RunReport
freshReport(const char *experiment = "guarded_sweep")
{
    obs::RunReport report;
    report.experiment = experiment;
    return report;
}

/** Retries back off for 0 ms, so no test really sleeps. */
inline robust::CellGuard
guardFor(std::string manifest, unsigned attempts = 3,
         std::chrono::milliseconds timeout = std::chrono::milliseconds{0})
{
    robust::CellGuard guard;
    guard.manifestPath = std::move(manifest);
    guard.retry.maxAttempts = attempts;
    guard.retry.baseDelay = std::chrono::milliseconds{0};
    guard.cellTimeout = timeout;
    return guard;
}

/**
 * Two gshare configs over smallSuite(). Each cell's factory first
 * calls @p hook with the cell's row index (config x workloads +
 * workload), so a test can fail, count or kill chosen cells. Under a
 * pool the hook runs on workers.
 */
inline std::vector<AccuracyCellConfig>
gshareConfigs(std::function<void(std::size_t)> hook = {})
{
    const std::size_t nw = smallSuite().size();
    std::vector<AccuracyCellConfig> v;
    for (std::size_t c = 0; c < 2; ++c) {
        AccuracyCellConfig cfg;
        const std::size_t budget = (c + 1) * 1024;
        cfg.makeForWorkload = [hook, c, nw, budget](std::size_t w) {
            if (hook)
                hook(c * nw + w);
            return makePredictor(PredictorKind::Gshare, budget);
        };
        cfg.name = "gshare";
        cfg.budgetBytes = budget;
        v.push_back(std::move(cfg));
    }
    return v;
}

/** The unguarded, serial sweep's report over gshareConfigs(). */
inline std::string
referenceBytes()
{
    obs::RunReport report = freshReport();
    auto configs = gshareConfigs();
    suiteAccuracyReportEnsemble(smallSuite(), configs, report);
    return report.toJson().dump(2);
}

/** A predictor that stalls for 200 ms on its first prediction, so a
 *  shorter deadline has expired by the time the replay first polls
 *  (after 65,536 branches). */
class StallingPredictor : public DirectionPredictor
{
  public:
    bool
    predict(Addr) override
    {
        if (!stalled_) {
            stalled_ = true;
            std::this_thread::sleep_for(std::chrono::milliseconds{200});
        }
        return true;
    }
    void update(Addr, bool) override {}
    std::size_t storageBits() const override { return 0; }
    std::string name() const override { return "stalling"; }

  private:
    bool stalled_ = false;
};

} // namespace bpsim

#endif // BPSIM_TESTS_GUARDED_SWEEP_FIXTURES_HH
