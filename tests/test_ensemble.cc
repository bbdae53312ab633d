/**
 * @file
 * Golden equivalence of the batched ensemble replay engine against
 * the serial path: for every factory predictor kind, a group of one
 * member per standard budget replayed in one pass must produce
 * byte-identical counts, describeStats() gauges and visitState()
 * dumps to running each member alone. Also pins the grouping rules
 * (only bare members of one known concrete type batch; wrapped
 * members, mixed types and unknown user subclasses refuse and replay
 * through the virtual loop), the BPSIM_ENSEMBLE=0 escape hatch, and
 * suiteAccuracyReportEnsemble's contract that its RunReport is
 * byte-identical to the serial oracle in sweep_oracle.hh. Timing
 * sweeps never batch; their cases live in test_runner.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ensemble.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "robust/fault_injector.hh"
#include "robust/protection.hh"
#include "robust/state_visitor.hh"
#include "sweep_oracle.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

/** Flattens every visited field into one comparable dump. */
struct StateDump : robust::StateVisitor
{
    struct Field
    {
        std::string name;
        std::size_t count;
        unsigned bits;
        std::vector<std::uint64_t> values;

        bool
        operator==(const Field &o) const
        {
            return name == o.name && count == o.count &&
                   bits == o.bits && values == o.values;
        }
    };
    std::vector<Field> fields;

    void
    visit(const robust::StateField &f) override
    {
        Field out{f.name, f.count, f.bits, {}};
        out.values.reserve(f.count);
        for (std::size_t i = 0; i < f.count; ++i)
            out.values.push_back(f.load(i));
        fields.push_back(std::move(out));
    }
};

TraceBuffer
suiteTrace()
{
    const auto w = makeWorkload(specint2000Names().front());
    return generateTrace(*w, 40000, 9);
}

void
expectSameState(DirectionPredictor &a, DirectionPredictor &b)
{
    StateDump da;
    StateDump db;
    a.visitState(da);
    b.visitState(db);
    ASSERT_EQ(da.fields.size(), db.fields.size());
    for (std::size_t i = 0; i < da.fields.size(); ++i)
        ASSERT_TRUE(da.fields[i] == db.fields[i])
            << "field " << da.fields[i].name;

    const auto sa = a.describeStats();
    const auto sb = b.describeStats();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i].name, sb[i].name);
        ASSERT_EQ(sa[i].value, sb[i].value);
    }
}

TEST(EnsembleReplay, BatchedMatchesSerialEverywhere)
{
    const TraceBuffer trace = suiteTrace();
    for (const PredictorKind kind : allKinds()) {
        SCOPED_TRACE(kindName(kind));

        // One member per standard budget: the widest same-family
        // group a figure sweep would ever form.
        std::vector<std::unique_ptr<DirectionPredictor>> batched;
        std::vector<std::unique_ptr<DirectionPredictor>> serial;
        std::vector<DirectionPredictor *> members;
        for (const std::size_t budget : standardBudgets()) {
            batched.push_back(makePredictor(kind, budget));
            serial.push_back(makePredictor(kind, budget));
            members.push_back(batched.back().get());
        }
        ASSERT_TRUE(ensembleBatchable(members));

        const std::vector<AccuracyResult> rb =
            runAccuracyEnsemble(members, trace);
        ASSERT_EQ(rb.size(), members.size());
        for (std::size_t j = 0; j < members.size(); ++j) {
            SCOPED_TRACE("budget " +
                         std::to_string(standardBudgets()[j]));
            const AccuracyResult rs =
                runAccuracy(*serial[j], trace);
            ASSERT_EQ(rb[j].branches, rs.branches);
            ASSERT_EQ(rb[j].mispredictions, rs.mispredictions);
            expectSameState(*batched[j], *serial[j]);
        }
    }
}

/** A predictor the monomorphic dispatcher has never heard of. */
struct UnknownDirectionPredictor final : DirectionPredictor
{
    std::string name() const override { return "unknown"; }
    std::size_t storageBits() const override { return 8; }
    bool predict(Addr) override { return false; }
    void update(Addr, bool) override {}
};

TEST(EnsembleReplay, ProbeRejectsWrappedMixedAndLoneGroups)
{
    auto g0 = makePredictor(PredictorKind::Gshare, 4 * 1024);
    auto g1 = makePredictor(PredictorKind::Gshare, 16 * 1024);
    auto b0 = makePredictor(PredictorKind::Bimodal, 4 * 1024);

    // A genuine same-type pair batches...
    EXPECT_TRUE(ensembleBatchable({g0.get(), g1.get()}));
    // ...but a lone config, mixed kinds, or a null member do not.
    EXPECT_FALSE(ensembleBatchable({g0.get()}));
    EXPECT_FALSE(ensembleBatchable({}));
    EXPECT_FALSE(ensembleBatchable({g0.get(), b0.get()}));
    EXPECT_FALSE(ensembleBatchable({g0.get(), nullptr}));
    EXPECT_FALSE(ensembleBatchable({nullptr, g0.get()}));

    // Any wrapped member refuses: fault-injected pairs, protected
    // pairs, and either next to a bare sibling of its inner kind.
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-4;
    auto f0 = std::make_unique<robust::FaultInjectingPredictor>(
        makePredictor(PredictorKind::Gshare, 4 * 1024), plan);
    auto f1 = std::make_unique<robust::FaultInjectingPredictor>(
        makePredictor(PredictorKind::Gshare, 16 * 1024), plan);
    EXPECT_FALSE(ensembleBatchable({f0.get(), f1.get()}));
    robust::ProtectionConfig prot;
    prot.policy = robust::ProtectionPolicy::ParityInvalidate;
    auto p0 = makeProtectedPredictor(PredictorKind::Gshare, 4 * 1024,
                                     prot, robust::FaultPlan{});
    auto p1 = makeProtectedPredictor(PredictorKind::Gshare, 16 * 1024,
                                     prot, robust::FaultPlan{});
    EXPECT_FALSE(ensembleBatchable({p0.get(), p1.get()}));
    EXPECT_FALSE(ensembleBatchable({g0.get(), f0.get()}));
    EXPECT_FALSE(ensembleBatchable({g0.get(), p0.get()}));
    EXPECT_FALSE(ensembleBatchable({g0.get(), f0.get(), p0.get()}));

    // An unknown user subclass refuses outright.
    UnknownDirectionPredictor u0;
    UnknownDirectionPredictor u1;
    EXPECT_FALSE(ensembleBatchable({&u0, &u1}));
}

TEST(EnsembleReplay, NullMemberThrows)
{
    const TraceBuffer trace = suiteTrace();
    auto g0 = makePredictor(PredictorKind::Gshare, 4 * 1024);
    EXPECT_THROW(runAccuracyEnsemble({g0.get(), nullptr}, trace),
                 std::invalid_argument);
    EXPECT_THROW(runAccuracyEnsemble({nullptr}, trace),
                 std::invalid_argument);
}

/** runAccuracyEnsemble over @p batched must match runAccuracy over
 *  each of @p serial: counts, describeStats() gauges (injector flip
 *  and event counters, protection ledgers) and state dumps. */
void
expectEnsembleMatchesSerial(
    const std::vector<std::unique_ptr<DirectionPredictor>> &batched,
    const std::vector<std::unique_ptr<DirectionPredictor>> &serial,
    const TraceBuffer &trace)
{
    std::vector<DirectionPredictor *> members;
    for (const auto &m : batched)
        members.push_back(m.get());
    const std::vector<AccuracyResult> rb =
        runAccuracyEnsemble(members, trace);
    ASSERT_EQ(rb.size(), members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
        SCOPED_TRACE("member " + std::to_string(j));
        const AccuracyResult rs = runAccuracy(*serial[j], trace);
        EXPECT_EQ(rb[j].branches, rs.branches);
        EXPECT_EQ(rb[j].mispredictions, rs.mispredictions);
        expectSameState(*batched[j], *serial[j]);
    }
}

TEST(EnsembleReplay, WrappedGroupFallsBackToVirtualLoopBitIdentical)
{
    // A fault-injected pair is refused by the probe; handed to
    // runAccuracyEnsemble anyway, it replays through the virtual
    // loop and matches serial runs exactly (same plan + seed =>
    // identical flip sequence per member).
    const TraceBuffer trace = suiteTrace();
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-4;
    plan.intervalBranches = 1024;

    const auto build = [&] {
        std::vector<std::unique_ptr<DirectionPredictor>> v;
        for (const std::size_t budget : {4096u, 16384u})
            v.push_back(
                std::make_unique<robust::FaultInjectingPredictor>(
                    makePredictor(PredictorKind::Gshare, budget),
                    plan));
        return v;
    };
    const auto batched = build();
    const auto serial = build();
    EXPECT_FALSE(
        ensembleBatchable({batched[0].get(), batched[1].get()}));
    expectEnsembleMatchesSerial(batched, serial, trace);
}

TEST(EnsembleReplay, MixedWrapperGroupMatchesSerial)
{
    // A bare gshare, a fault-injected one and a protected one:
    // mixed types, so the probe refuses and runAccuracyEnsemble
    // falls back to the virtual loop, where every wrapper's cadence
    // fires at the serial update counts.
    const TraceBuffer trace = suiteTrace();
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-4;
    plan.intervalBranches = 512;
    robust::ProtectionConfig prot;
    prot.policy = robust::ProtectionPolicy::SecdedCorrect;
    robust::FaultPlan protPlan;
    protPlan.upsetRatePerBit = 1e-4;
    protPlan.intervalBranches = 512;

    const auto build = [&] {
        std::vector<std::unique_ptr<DirectionPredictor>> v;
        v.push_back(makePredictor(PredictorKind::Gshare, 16 * 1024));
        v.push_back(
            std::make_unique<robust::FaultInjectingPredictor>(
                makePredictor(PredictorKind::Gshare, 16 * 1024),
                plan));
        v.push_back(makeProtectedPredictor(
            PredictorKind::Gshare, 16 * 1024, prot, protPlan));
        return v;
    };
    const auto batched = build();
    const auto serial = build();
    EXPECT_FALSE(ensembleBatchable(
        {batched[0].get(), batched[1].get(), batched[2].get()}));
    expectEnsembleMatchesSerial(batched, serial, trace);
}

/** The fig-sweep config list used by the suite-level tests: two
 *  batchable families plus one lone config on the serial path. */
std::vector<AccuracyCellConfig>
sweepConfigs()
{
    std::vector<AccuracyCellConfig> configs;
    for (const std::size_t budget :
         {1024u, 4096u, 16384u}) {
        AccuracyCellConfig c;
        c.make = [budget] {
            return makePredictor(PredictorKind::Gshare, budget);
        };
        c.name = kindName(PredictorKind::Gshare);
        c.budgetBytes = budget;
        configs.push_back(std::move(c));
    }
    for (const std::size_t budget : {2048u, 8192u}) {
        AccuracyCellConfig c;
        c.make = [budget] {
            return makePredictor(PredictorKind::Perceptron, budget);
        };
        c.name = kindName(PredictorKind::Perceptron);
        c.budgetBytes = budget;
        configs.push_back(std::move(c));
    }
    AccuracyCellConfig lone;
    lone.make = [] {
        return makePredictor(PredictorKind::Bimodal, 4096);
    };
    lone.name = kindName(PredictorKind::Bimodal);
    lone.budgetBytes = 4096;
    configs.push_back(std::move(lone));
    return configs;
}

/** Metrics dump with the ensemble engine's own gauges removed — the
 *  one allowed difference from the serial path. */
std::string
metricsSansEnsemble(const obs::MetricRegistry &metrics)
{
    std::istringstream in(metrics.toJson().dump(2));
    std::string out;
    std::string line;
    while (std::getline(in, line))
        if (line.find("core.ensemble.") == std::string::npos)
            out += line + '\n';
    return out;
}

TEST(EnsembleReplay, SuiteReportMatchesSerialByteForByte)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());

    // Batched sweep.
    std::vector<AccuracyCellConfig> configs = sweepConfigs();
    obs::RunReport batchedReport;
    obs::MetricRegistry batchedMetrics;
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        suite, configs, batchedReport, &batchedMetrics);

    // gshare group of 3 and perceptron group of 2 batch; the lone
    // bimodal runs serially.
    EXPECT_EQ(stats.groups, 2u);
    EXPECT_EQ(stats.batchWidth, 3u);
    EXPECT_EQ(stats.batchedCells, 5u * suite.size());
    EXPECT_EQ(stats.serialCells, 1u * suite.size());

    // Serial reference: the oracle runs each config in list order
    // over the same suite.
    std::vector<AccuracyCellConfig> ref = sweepConfigs();
    obs::RunReport serialReport;
    obs::MetricRegistry serialMetrics;
    accuracyOracle(suite, ref, serialReport, &serialMetrics);

    EXPECT_EQ(batchedReport.toJson().dump(2),
              serialReport.toJson().dump(2));
    EXPECT_EQ(metricsSansEnsemble(batchedMetrics),
              metricsSansEnsemble(serialMetrics));
    ASSERT_EQ(configs.size(), ref.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(configs[i].meanPercent, ref[i].meanPercent);
        ASSERT_EQ(configs[i].results.size(), ref[i].results.size());
        for (std::size_t w = 0; w < ref[i].results.size(); ++w) {
            EXPECT_EQ(configs[i].results[w].branches,
                      ref[i].results[w].branches);
            EXPECT_EQ(configs[i].results[w].mispredictions,
                      ref[i].results[w].mispredictions);
        }
    }

    // The engine reports how it executed.
    EXPECT_EQ(batchedMetrics.gauge("core.ensemble.batched_cells")
                  .value(),
              static_cast<double>(stats.batchedCells));
    EXPECT_EQ(batchedMetrics.gauge("core.ensemble.batch_width")
                  .value(),
              static_cast<double>(stats.batchWidth));
}

TEST(EnsembleReplay, EnvEscapeForcesSerialIdenticalOutput)
{
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());

    std::vector<AccuracyCellConfig> batched = sweepConfigs();
    obs::RunReport batchedReport;
    suiteAccuracyReportEnsemble(suite, batched, batchedReport);

    ASSERT_EQ(::setenv("BPSIM_ENSEMBLE", "0", 1), 0);
    EXPECT_FALSE(ensembleEnabled());
    std::vector<AccuracyCellConfig> forced = sweepConfigs();
    obs::RunReport forcedReport;
    const EnsembleStats stats =
        suiteAccuracyReportEnsemble(suite, forced, forcedReport);
    ::unsetenv("BPSIM_ENSEMBLE");
    EXPECT_TRUE(ensembleEnabled());

    EXPECT_EQ(stats.batchedCells, 0u);
    EXPECT_EQ(stats.groups, 0u);
    EXPECT_EQ(stats.serialCells, 6u * suite.size());
    EXPECT_EQ(forcedReport.toJson().dump(2),
              batchedReport.toJson().dump(2));
}

TEST(EnsembleReplay, MixedWrapperSuiteReportMatchesSerial)
{
    // Protected and fault-injected gshare variants next to two bare
    // ones — the protection-surface sweep shape. The bare siblings
    // still batch; the wrapped configs run as serial cells.
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    robust::ProtectionConfig prot;
    prot.policy = robust::ProtectionPolicy::SecdedCorrect;
    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-4;
    plan.intervalBranches = 256;

    const auto build = [&] {
        std::vector<AccuracyCellConfig> configs;
        for (const std::size_t budget : {4096u, 16384u})
            configs.emplace_back(
                [budget] {
                    return makePredictor(PredictorKind::Gshare, budget);
                },
                "gshare", budget);
        configs.emplace_back(
            [prot, plan] {
                return makeProtectedPredictor(PredictorKind::Gshare,
                                              16 * 1024, prot, plan);
            },
            "gshare.secded", 16 * 1024);
        configs.emplace_back(
            [plan] {
                return std::make_unique<
                    robust::FaultInjectingPredictor>(
                    makePredictor(PredictorKind::Gshare, 16 * 1024),
                    plan);
            },
            "gshare.fault", 16 * 1024);
        return configs;
    };

    std::vector<AccuracyCellConfig> configs = build();
    obs::RunReport batchedReport;
    obs::MetricRegistry batchedMetrics;
    const EnsembleStats stats = suiteAccuracyReportEnsemble(
        suite, configs, batchedReport, &batchedMetrics);
    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.batchWidth, 2u);
    EXPECT_EQ(stats.batchedCells, 2u * suite.size());
    EXPECT_EQ(stats.serialCells, 2u * suite.size());

    std::vector<AccuracyCellConfig> ref = build();
    obs::RunReport serialReport;
    obs::MetricRegistry serialMetrics;
    accuracyOracle(suite, ref, serialReport, &serialMetrics);

    EXPECT_EQ(batchedReport.toJson().dump(2),
              serialReport.toJson().dump(2));
    EXPECT_EQ(metricsSansEnsemble(batchedMetrics),
              metricsSansEnsemble(serialMetrics));
}

TEST(EnsembleReplay, PerWorkloadFactoryMatchesEscapeHatch)
{
    // makeForWorkload lets the soft-error studies seed each cell's
    // fault plan by workload index; the sweep must produce the same
    // rows as the escape-hatch serial path with identical per-cell
    // seeds. Bare per-workload configs batch, the fault-injected
    // ones replay serially.
    const SuiteTraces suite(4000, 13, nullptr, TraceCache());
    const auto build = [] {
        std::vector<AccuracyCellConfig> configs;
        for (const std::size_t budget : {4096u, 16384u}) {
            AccuracyCellConfig c;
            c.makeForWorkload = [budget](std::size_t) {
                return makePredictor(PredictorKind::Gshare, budget);
            };
            c.name = "gshare";
            c.budgetBytes = budget;
            configs.push_back(std::move(c));
        }
        for (const std::size_t budget : {4096u, 16384u}) {
            AccuracyCellConfig c;
            c.makeForWorkload = [budget](std::size_t w) {
                robust::FaultPlan plan;
                plan.upsetRatePerBit = 1e-4;
                plan.intervalBranches = 512;
                plan.seed = 1000 + 17 * w;
                return std::unique_ptr<DirectionPredictor>(
                    std::make_unique<
                        robust::FaultInjectingPredictor>(
                        makePredictor(PredictorKind::Gshare,
                                      budget),
                        plan));
            };
            c.name = "gshare.fault";
            c.budgetBytes = budget;
            configs.push_back(std::move(c));
        }
        return configs;
    };

    std::vector<AccuracyCellConfig> batched = build();
    obs::RunReport batchedReport;
    const EnsembleStats stats =
        suiteAccuracyReportEnsemble(suite, batched, batchedReport);
    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.batchedCells, 2u * suite.size());
    EXPECT_EQ(stats.serialCells, 2u * suite.size());

    ASSERT_EQ(::setenv("BPSIM_ENSEMBLE", "0", 1), 0);
    std::vector<AccuracyCellConfig> forced = build();
    obs::RunReport forcedReport;
    suiteAccuracyReportEnsemble(suite, forced, forcedReport);
    ::unsetenv("BPSIM_ENSEMBLE");

    EXPECT_EQ(batchedReport.toJson().dump(2),
              forcedReport.toJson().dump(2));
}

} // namespace
} // namespace bpsim
