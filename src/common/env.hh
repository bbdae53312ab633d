/**
 * @file
 * The one parser for the run-size environment variables
 * (BPSIM_JOBS, BPSIM_OPS_PER_WORKLOAD, BPSIM_TRACE_POOL_MB).
 */

#ifndef BPSIM_COMMON_ENV_HH
#define BPSIM_COMMON_ENV_HH

#include <cstdlib>

namespace bpsim {

/**
 * Environment variable @p name as a positive decimal integer, or 0
 * when it is unset or anything else ("", "0", "-5", "1e6", "400k",
 * "1.5", "12 "). The whole string must parse, so callers fall back
 * to their default instead of acting on a truncated prefix.
 */
inline long long
envPositiveDecimal(const char *name)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return 0;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0)
        return 0;
    return v;
}

} // namespace bpsim

#endif // BPSIM_COMMON_ENV_HH
