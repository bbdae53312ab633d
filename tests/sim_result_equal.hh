/**
 * @file
 * Exact-equality checks for timing runs, shared by the tests that
 * prove a simulator speedup changes nothing observable: every
 * SimResult counter and rate, and the traced event stream event by
 * event.
 */

#ifndef BPSIM_TESTS_SIM_RESULT_EQUAL_HH
#define BPSIM_TESTS_SIM_RESULT_EQUAL_HH

#include <gtest/gtest.h>

#include <string>

#include "obs/event_trace.hh"
#include "sim/ooo_core.hh"

namespace bpsim {

/** Every counter and rate of two SimResults must agree exactly. */
inline void
expectIdentical(const SimResult &a, const SimResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredictions, b.mispredictions);
    EXPECT_EQ(a.overridingBubbleCycles, b.overridingBubbleCycles);
    EXPECT_EQ(a.btbMissPenaltyCycles, b.btbMissPenaltyCycles);
    EXPECT_EQ(a.mispredictWaitCycles, b.mispredictWaitCycles);
    EXPECT_EQ(a.icacheStallCycles, b.icacheStallCycles);
    EXPECT_EQ(a.frontEndStallCycles, b.frontEndStallCycles);
    EXPECT_EQ(a.overrideStallCycles, b.overrideStallCycles);
    EXPECT_EQ(a.btbStallCycles, b.btbStallCycles);
    EXPECT_EQ(a.robStallCycles, b.robStallCycles);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.squashedUops, b.squashedUops);
    EXPECT_EQ(a.l1iMissRate, b.l1iMissRate);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.btbHitRate, b.btbHitRate);
}

/** The traced event streams must match event by event. */
inline void
expectIdenticalEvents(const obs::EventTracer &a,
                      const obs::EventTracer &b,
                      const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.recorded(), b.recorded());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const obs::TraceEvent &ea = a.at(i);
        const obs::TraceEvent &eb = b.at(i);
        ASSERT_EQ(ea.cycle, eb.cycle) << "event " << i;
        ASSERT_EQ(ea.pc, eb.pc) << "event " << i;
        ASSERT_EQ(ea.arg, eb.arg) << "event " << i;
        ASSERT_EQ(static_cast<int>(ea.type),
                  static_cast<int>(eb.type))
            << "event " << i;
    }
}

} // namespace bpsim

#endif // BPSIM_TESTS_SIM_RESULT_EQUAL_HH
