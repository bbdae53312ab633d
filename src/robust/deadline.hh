/**
 * @file
 * Cooperative per-cell watchdog.
 *
 * The simulator is single-threaded and allocation-heavy, so a
 * preemptive watchdog (signals, killer threads) would leave state
 * unrecoverable. Instead a Deadline is a steady-clock budget that
 * long loops poll: check() throws DeadlineExceeded once the budget
 * is spent, unwinding cleanly through the cell boundary where a
 * guarded sweep (robust::CellGuard) catches it, retries the cell and
 * at worst annotates it as timed out and moves on. runAccuracy()'s
 * poll hook (core/runner.hh) calls check() every 65,536 branches,
 * bounding detection latency without a per-iteration cost.
 *
 * Tests construct deadlines from an explicit fake "now" so timeout
 * paths are exercised without real waiting.
 */

#ifndef BPSIM_ROBUST_DEADLINE_HH
#define BPSIM_ROBUST_DEADLINE_HH

#include <chrono>
#include <stdexcept>
#include <string>

namespace bpsim::robust {

/** Thrown by Deadline::check() when the budget is exhausted. */
class DeadlineExceeded : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A point in time work must finish by. */
class Deadline
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A deadline @p budget from now. */
    static Deadline
    after(std::chrono::milliseconds budget)
    {
        return Deadline(Clock::now() + budget, false);
    }

    /** A deadline that never expires. */
    static Deadline
    unlimited()
    {
        return Deadline(Clock::time_point::max(), true);
    }

    /** A deadline at an explicit time point (tests). */
    static Deadline
    at(Clock::time_point when)
    {
        return Deadline(when, false);
    }

    bool
    unlimitedBudget() const
    {
        return unlimited_;
    }

    bool
    expired() const
    {
        return !unlimited_ && Clock::now() >= when_;
    }

    /** Budget remaining; zero when expired, huge when unlimited. */
    std::chrono::milliseconds
    remaining() const
    {
        if (unlimited_)
            return std::chrono::milliseconds::max();
        const auto now = Clock::now();
        if (now >= when_)
            return std::chrono::milliseconds{0};
        return std::chrono::duration_cast<std::chrono::milliseconds>(
            when_ - now);
    }

    /** Throw DeadlineExceeded naming @p what when expired. */
    void
    check(const std::string &what) const
    {
        if (expired())
            throw DeadlineExceeded("deadline exceeded: " + what);
    }

  private:
    Deadline(Clock::time_point when, bool unlimited)
        : when_(when), unlimited_(unlimited)
    {
    }

    Clock::time_point when_;
    bool unlimited_;
};

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_DEADLINE_HH
