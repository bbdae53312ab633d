/**
 * @file
 * Bounded-exponential-backoff retry with deterministic jitter.
 *
 * Long suite campaigns hit transient failures (flaky filesystems,
 * injected I/O faults, OOM-killed children). A RetryPolicy describes
 * how to wait between attempts: delay doubles per attempt from
 * baseDelay up to maxDelay, then a jitter factor derived from the
 * policy seed and the attempt number perturbs it by up to
 * +/-jitterFraction. The jitter is a pure function of (seed,
 * attempt) — two runs of the same campaign back off identically,
 * preserving the repo's reproducibility contract.
 *
 * retryCall() runs a callable under a policy, treating any thrown
 * std::exception as a retriable failure, and reports how many
 * attempts were spent. Sleeping is pluggable so tests never
 * actually block.
 */

#ifndef BPSIM_ROBUST_RETRY_HH
#define BPSIM_ROBUST_RETRY_HH

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/rng.hh"

namespace bpsim::robust {

/** Backoff shape for retried operations. */
struct RetryPolicy
{
    /** Total tries including the first (>= 1). */
    unsigned maxAttempts = 3;
    std::chrono::milliseconds baseDelay{25};
    std::chrono::milliseconds maxDelay{2000};
    /** Delay is scaled by 1 +/- U*jitterFraction (deterministic). */
    double jitterFraction = 0.25;
    std::uint64_t seed = 0xbac0ff;

    /**
     * Delay to sleep before retry number @p attempt (attempt 1 is
     * the first *re*try). Pure function of the policy and attempt.
     */
    std::chrono::milliseconds delayBefore(unsigned attempt) const;
};

/** Outcome of a retried operation. */
struct RetryResult
{
    bool succeeded = false;
    /** Attempts consumed (1 = first try succeeded). */
    unsigned attempts = 0;
    /** what() of the last failure ("" when succeeded first try). */
    std::string lastError;
};

/** Sleep hook; the default really sleeps. */
using Sleeper = std::function<void(std::chrono::milliseconds)>;

/** The default Sleeper: std::this_thread::sleep_for. */
inline void
realSleep(std::chrono::milliseconds ms)
{
    if (ms.count() > 0)
        std::this_thread::sleep_for(ms);
}

/**
 * Run @p fn until it returns without throwing or the policy's
 * attempts are exhausted. @p fn failures must be signalled by
 * throwing std::exception subclasses.
 */
template <typename Fn>
RetryResult
retryCall(const RetryPolicy &policy, Fn &&fn,
          const Sleeper &sleep = realSleep)
{
    RetryResult r;
    const unsigned attempts =
        policy.maxAttempts == 0 ? 1 : policy.maxAttempts;
    for (unsigned a = 1; a <= attempts; ++a) {
        r.attempts = a;
        try {
            fn();
            r.succeeded = true;
            return r;
        } catch (const std::exception &e) {
            r.lastError = e.what();
            if (a < attempts)
                sleep(policy.delayBefore(a));
        }
    }
    return r;
}

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_RETRY_HH
