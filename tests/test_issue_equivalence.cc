/**
 * @file
 * Differential tests for the timing core's event-driven issue stage:
 * OooCore (an unissued-slot bitmask walked oldest-first) must produce
 * exactly the runs of ReferenceOooCore (the per-cycle ROB scan it
 * replaced) — every SimResult field and a byte-identical traced event
 * stream — across the twelve suite workloads, the five fetch
 * wrappers and randomized core configurations (ROB sizes around the
 * 64-bit mask word boundaries, scan windows wider than the ROB,
 * cycleSkip on and off).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/event_trace.hh"
#include "predictors/static_pred.hh"
#include "reference_ooo_core.hh"
#include "sim/ooo_core.hh"
#include "sim_result_equal.hh"
#include "trace/trace_buffer.hh"

namespace bpsim {
namespace {

using MakePredictor = std::function<std::unique_ptr<FetchPredictor>()>;

/** Large enough to hold every event of the runs below, so the
 *  streams are compared whole, not only their most recent tail. */
constexpr std::size_t kTracerCapacity = std::size_t{1} << 18;

/** The five fetch wrappers: single-cycle, overriding, stall-style
 *  delay, dual-path and cascading. */
const DelayMode kWrapperModes[] = {
    DelayMode::Ideal,    DelayMode::Overriding, DelayMode::Stall,
    DelayMode::DualPath, DelayMode::Cascading,
};

const SuiteTraces &
suite()
{
    static const SuiteTraces traces(16000, 1009);
    return traces;
}

/**
 * Run @p trace through the bitmask core and the reference scan under
 * @p cfg, each with a fresh predictor from @p make and its own
 * tracer, and require identical outcomes. When the reference run was
 * cut by the livelock guard, the bitmask core must refuse to return
 * a result instead. Returns false in that case.
 */
bool
compareCores(const CoreConfig &cfg, const TraceBuffer &trace,
             const MakePredictor &make, const std::string &what)
{
    obs::EventTracer refEvents(kTracerCapacity);
    auto refPred = make();
    ReferenceOooCore ref(cfg, *refPred);
    ref.attachTracer(&refEvents);
    const SimResult expected = ref.run(trace);

    obs::EventTracer events(kTracerCapacity);
    auto pred = make();
    OooCore core(cfg, *pred);
    core.attachTracer(&events);
    if (expected.instructions < trace.size()) {
        EXPECT_THROW(core.run(trace), std::runtime_error) << what;
        return false;
    }
    const SimResult got = core.run(trace);
    expectIdentical(expected, got, what);
    EXPECT_LE(refEvents.recorded(), refEvents.capacity()) << what;
    expectIdenticalEvents(refEvents, events, what);
    return true;
}

std::string
describe(const CoreConfig &cfg)
{
    return "rob=" + std::to_string(cfg.robEntries) +
           " width=" + std::to_string(cfg.issueWidth) +
           " fb=" + std::to_string(cfg.fetchBufferEntries) +
           " fe=" + std::to_string(cfg.frontEndDepth) +
           " mul=" + std::to_string(cfg.mulCycles) +
           " l1d=" + std::to_string(cfg.l1dHitCycles) +
           " l2=" + std::to_string(cfg.l2HitCycles) +
           " mem=" + std::to_string(cfg.memoryCycles) +
           " skip=" + (cfg.cycleSkip ? "on" : "off");
}

/** The Table 1 core on every workload under every fetch wrapper. */
TEST(IssueEquivalence, SuiteWorkloadsTimesFetchWrappers)
{
    const SuiteTraces &s = suite();
    for (const DelayMode mode : kWrapperModes) {
        for (std::size_t i = 0; i < s.size(); ++i) {
            compareCores(
                CoreConfig{}, s.trace(i),
                [mode] {
                    return makeFetchPredictor(PredictorKind::Gshare,
                                              16 * 1024, mode);
                },
                delayModeName(mode) + "/" + s.name(i));
        }
    }
}

/** The paper's pipelined gshare.fast and the overriding perceptron
 *  drive fetch differently (recovery restarts, long bubbles). */
TEST(IssueEquivalence, PipelinedAndPerceptronFetch)
{
    const SuiteTraces &s = suite();
    for (std::size_t i = 0; i < s.size(); ++i) {
        compareCores(
            CoreConfig{}, s.trace(i),
            [] {
                return makeFetchPredictor(PredictorKind::GshareFast,
                                          32 * 1024,
                                          DelayMode::Pipelined);
            },
            "gshare.fast/" + s.name(i));
        compareCores(
            CoreConfig{}, s.trace(i),
            [] {
                return makeFetchPredictor(PredictorKind::Perceptron,
                                          64 * 1024,
                                          DelayMode::Overriding);
            },
            "perceptron/" + s.name(i));
    }
}

/**
 * Randomized core configurations. The ROB sizes straddle the mask's
 * word boundaries (a single word, a full word, a partial last word)
 * and most are smaller than the issueWidth * 8 scan window; with
 * 16K-op traces robHead_ wraps hundreds of times per run.
 */
TEST(IssueEquivalence, RandomizedCoreConfigs)
{
    const std::size_t robSizes[] = {1,  2,   63,  64,  65,
                                    127, 128, 129, 200, 512};
    const PredictorKind kinds[] = {PredictorKind::Gshare,
                                   PredictorKind::Bimodal,
                                   PredictorKind::Perceptron};
    const SuiteTraces &s = suite();
    Rng rng(0x155e);
    unsigned compared = 0;
    unsigned runs = 0;
    for (const std::size_t rob : robSizes) {
        for (unsigned rep = 0; rep < 4; ++rep) {
            CoreConfig cfg;
            cfg.robEntries = rob;
            cfg.issueWidth =
                static_cast<unsigned>(rng.nextBetween(1, 16));
            cfg.fetchBufferEntries =
                static_cast<std::size_t>(rng.nextBetween(1, 96));
            cfg.frontEndDepth =
                static_cast<unsigned>(rng.nextBetween(1, 30));
            cfg.mulCycles = static_cast<unsigned>(rng.nextBetween(1, 20));
            cfg.l1dHitCycles =
                static_cast<unsigned>(rng.nextBetween(1, 5));
            cfg.l2HitCycles =
                static_cast<unsigned>(rng.nextBetween(1, 30));
            cfg.memoryCycles =
                static_cast<unsigned>(rng.nextBetween(10, 300));
            cfg.cycleSkip = rng.nextBool();
            const std::size_t w = rng.nextRange(s.size());
            const PredictorKind kind = kinds[rng.nextRange(3)];
            const DelayMode mode = kWrapperModes[rng.nextRange(5)];
            ++runs;
            if (compareCores(
                    cfg, s.trace(w),
                    [kind, mode] {
                        return makeFetchPredictor(kind, 8 * 1024, mode);
                    },
                    describe(cfg) + " " + kindName(kind) + "/" +
                        delayModeName(mode) + "/" + s.name(w)))
                ++compared;
        }
    }
    // The livelock guard may cut a rare 1-entry-ROB run; the bulk
    // must still be compared field by field.
    EXPECT_GE(compared * 10, runs * 9);
}

/** Scan windows far wider than the ROB, and a ROB larger than the
 *  window, on a fixed dependence-heavy trace with long-latency loads
 *  so that many entries wait unissued behind their producers. */
TEST(IssueEquivalence, ScanWindowEdges)
{
    TraceBuffer t;
    for (std::size_t i = 0; i < 6000; ++i) {
        MicroOp op;
        op.pc = 0x1000 + (i % 256) * 4;
        op.cls = i % 4 == 0 ? InstClass::Load
                 : i % 7 == 0 ? InstClass::IntMul
                              : InstClass::IntAlu;
        op.extra = 0x800000 + (i * 2654435761u) % (8u << 20);
        op.dst = static_cast<std::uint8_t>(1 + i % 5);
        op.srcA = static_cast<std::uint8_t>(1 + (i + 2) % 5);
        op.srcB = static_cast<std::uint8_t>(i % 3 == 0 ? 0 : 6);
        t.push(op);
    }
    const MakePredictor make = [] {
        return std::make_unique<SingleCycleFetchPredictor>(
            std::make_unique<StaticPredictor>(true));
    };
    for (const std::size_t rob : {1, 7, 64, 65, 129, 1024}) {
        for (const unsigned width : {1u, 3u, 8u, 16u}) {
            for (const bool skip : {false, true}) {
                CoreConfig cfg;
                cfg.robEntries = rob;
                cfg.issueWidth = width;
                cfg.memoryCycles = 40;
                cfg.cycleSkip = skip;
                EXPECT_TRUE(compareCores(cfg, t, make, describe(cfg)));
            }
        }
    }
}

/** Figure 8's four overriding-era predictors, plus two odd core
 *  configurations under other wrappers, on every fifth workload. */
TEST(IssueEquivalence, Fig8KindsAndOddCores)
{
    CoreConfig small;
    small.robEntries = 65;
    small.issueWidth = 12;
    CoreConfig tiny;
    tiny.robEntries = 3;
    tiny.issueWidth = 2;
    tiny.cycleSkip = false;
    const struct
    {
        PredictorKind kind;
        std::size_t budget;
        DelayMode mode;
        CoreConfig cfg;
    } cells[] = {
        {PredictorKind::MultiComponent, 53 * 1024, DelayMode::Overriding,
         CoreConfig{}},
        {PredictorKind::Gskew, 64 * 1024, DelayMode::Overriding,
         CoreConfig{}},
        {PredictorKind::Perceptron, 64 * 1024, DelayMode::Overriding,
         small},
        {PredictorKind::GshareFast, 64 * 1024, DelayMode::Ideal,
         CoreConfig{}},
        {PredictorKind::Gshare, 16 * 1024, DelayMode::Cascading, tiny},
    };
    const SuiteTraces &s = suite();
    for (std::size_t w = 0; w < s.size(); w += 5) {
        for (const auto &c : cells) {
            EXPECT_TRUE(compareCores(
                c.cfg, s.trace(w),
                [&c] {
                    return makeFetchPredictor(c.kind, c.budget, c.mode);
                },
                describe(c.cfg) + " " + kindName(c.kind) + "/" +
                    delayModeName(c.mode) + "/" + s.name(w)));
        }
    }
}

} // namespace
} // namespace bpsim
