/**
 * @file
 * The one parser for whole decimal numbers given on the command line
 * (examples/cli's --ops, --budget-kb, --seed) or in the run-size
 * environment variables (BPSIM_JOBS, BPSIM_OPS_PER_WORKLOAD,
 * BPSIM_TRACE_POOL_MB).
 */

#ifndef BPSIM_COMMON_ENV_HH
#define BPSIM_COMMON_ENV_HH

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace bpsim {

/**
 * @p s as a whole decimal number no larger than @p max, or nullopt
 * for anything else: "", "-5", "+5", "1e6", "400k", "1.5", "12 ",
 * " 12", or a value above @p max (overflow included). Only ASCII
 * digits are accepted and the whole string must parse, so callers
 * never act on a truncated prefix.
 */
inline std::optional<std::uint64_t>
parseDecimal(std::string_view s, std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || stop != end || v > max)
        return std::nullopt;
    return v;
}

/**
 * Environment variable @p name as a positive decimal integer
 * (parseDecimal), or 0 when it is unset, "0" or anything else, so
 * callers fall back to their default.
 */
inline long long
envPositiveDecimal(const char *name)
{
    const char *env = std::getenv(name);
    const auto v = env ? parseDecimal(env, LLONG_MAX) : std::nullopt;
    return v ? static_cast<long long>(*v) : 0;
}

} // namespace bpsim

#endif // BPSIM_COMMON_ENV_HH
