/**
 * @file
 * Golden-equivalence tests for event-driven cycle skipping in the
 * timing core: with CoreConfig::cycleSkip on, runTiming must produce
 * exactly the run it produces with per-cycle stepping — same final
 * cycle count, same stall/flush attribution in every SimResult
 * counter, and a byte-identical traced event stream — across all
 * twelve suite workloads and several delay modes.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/event_trace.hh"
#include "predictors/static_pred.hh"
#include "sim/ooo_core.hh"
#include "sim_result_equal.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {
namespace {

/** Run @p trace under @p make-built predictors with skipping off and
 *  on (tracing both runs) and require identical outcomes. */
void
compareRuns(const TraceBuffer &trace,
            const std::function<std::unique_ptr<FetchPredictor>()>
                &make,
            const std::string &what)
{
    CoreConfig stepped;
    stepped.cycleSkip = false;
    CoreConfig skipping;
    skipping.cycleSkip = true;

    obs::EventTracer steppedEvents;
    obs::EventTracer skippingEvents;
    auto p0 = make();
    auto p1 = make();
    const SimResult r0 =
        runTiming(stepped, *p0, trace, &steppedEvents);
    const SimResult r1 =
        runTiming(skipping, *p1, trace, &skippingEvents);
    expectIdentical(r0, r1, what);
    expectIdenticalEvents(steppedEvents, skippingEvents, what);
}

/** All twelve workloads under the delay shapes that exercise every
 *  stall reason: overriding bubbles + redirects (Overriding), hard
 *  stalls (Stall), and the plain zero-delay path (Ideal). */
TEST(CycleSkip, GoldenAcrossSuiteWorkloads)
{
    const SuiteTraces suite(25000, 11);
    const struct
    {
        PredictorKind kind;
        std::size_t budget;
        DelayMode mode;
    } configs[] = {
        {PredictorKind::Gshare, 64 * 1024, DelayMode::Overriding},
        {PredictorKind::Perceptron, 16 * 1024, DelayMode::Stall},
        {PredictorKind::Bimodal, 4 * 1024, DelayMode::Ideal},
    };
    for (const auto &c : configs) {
        for (std::size_t i = 0; i < suite.size(); ++i) {
            compareRuns(
                suite.trace(i),
                [&] {
                    return makeFetchPredictor(c.kind, c.budget,
                                              c.mode);
                },
                kindName(c.kind) + "/" + delayModeName(c.mode) + "/" +
                    suite.name(i));
        }
    }
}

/** The paper's pipelined predictor drives fetch through a different
 *  wrapper (recovery restarts, per-cycle idle ticks); the skip must
 *  not change its runs either. */
TEST(CycleSkip, GoldenForGshareFast)
{
    const SuiteTraces suite(25000, 11);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        compareRuns(
            suite.trace(i),
            [] {
                return makeFetchPredictor(PredictorKind::GshareFast,
                                          32 * 1024,
                                          DelayMode::Pipelined);
            },
            "gshare.fast/" + suite.name(i));
    }
}

/** A load-latency-bound dependence chain ends with a long back-end
 *  drain after fetch exhausts the trace — the skip's largest jumps.
 *  Keep a directed test so suite composition changes cannot silently
 *  drop the coverage. */
TEST(CycleSkip, GoldenOnSerialLoadChain)
{
    TraceBuffer t;
    for (std::size_t i = 0; i < 2000; ++i) {
        MicroOp op;
        op.pc = 0x1000 + (i % 512) * 4;
        op.cls = i % 3 == 0 ? InstClass::Load : InstClass::IntAlu;
        op.extra = 0x900000 + (i % 64) * 4096; // thrash L1D
        op.dst = static_cast<std::uint8_t>(1 + i % 2);
        op.srcA = static_cast<std::uint8_t>(1 + (i + 1) % 2);
        t.push(op);
    }
    compareRuns(
        t,
        [] {
            return std::make_unique<SingleCycleFetchPredictor>(
                std::make_unique<StaticPredictor>(true));
        },
        "serial-load-chain");
}

/** cycleSkip defaults on: the shipping configuration is the skipping
 *  one, and the default-constructed config says so. */
TEST(CycleSkip, DefaultsOn)
{
    EXPECT_TRUE(CoreConfig{}.cycleSkip);
}

} // namespace
} // namespace bpsim
