/**
 * @file
 * Out-of-line bodies for the perceptron dense kernels; see the
 * header for why they are multiversioned.
 */

#include "common/vec_kernels.hh"

namespace bpsim {

// target_clones needs the definitions out of line so the compiler
// can emit one symbol per ISA plus the ifunc resolver. Both loops
// are written so the vectorizer sees a plain reduction / elementwise
// min-max pattern at any width.
//
// Not under ThreadSanitizer: GCC instruments the generated ifunc
// resolver, which the dynamic loader runs during relocation, before
// the TSan runtime is initialized, so every binary linking these
// kernels segfaults before main(). no_sanitize("thread") on the
// functions does not reach the resolver; a TSan build runs the
// default (baseline-ISA) bodies instead.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define BPSIM_VEC_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define BPSIM_VEC_CLONES
#endif

BPSIM_VEC_CLONES
int
dotSignedI16Wide(const std::int16_t *w, const std::int16_t *x,
                 std::size_t n)
{
    int acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<int>(w[i]) * static_cast<int>(x[i]);
    return acc;
}

BPSIM_VEC_CLONES
void
trainSignedI16Wide(std::int16_t *w, const std::int16_t *x,
                   std::size_t n, int dir, int lo, int hi)
{
    for (std::size_t i = 0; i < n; ++i) {
        int v = static_cast<int>(w[i]) + dir * static_cast<int>(x[i]);
        v = v < lo ? lo : (v > hi ? hi : v);
        w[i] = static_cast<std::int16_t>(v);
    }
}

#undef BPSIM_VEC_CLONES

} // namespace bpsim
