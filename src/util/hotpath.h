/**
 * @file
 * Hot-kernel dispatch helpers.
 *
 * EMSTRESS_TARGET_CLONES marks a function for ISA function
 * multiversioning: the compiler emits one body per listed target
 * (here AVX2 plus the baseline) and an ifunc resolver picks the
 * widest one the CPU supports at load time.
 *
 * Its one user is the PDN transient's state update, whose vector
 * lanes carry *independent* state rows. Widening the vector changes
 * how many independent rows advance per instruction, never the order
 * of operations within any one of them — so every clone produces
 * bit-identical results and the determinism contract (identical
 * output across machines, thread counts, and replay) is preserved.
 * Apply it only to kernels of that shape: never to reductions or
 * anything whose FP association depends on lane count.
 *
 * FMA is intentionally *not* in the clone list, and src/ builds
 * with -ffp-contract=off: fused multiply-add rounds a*b+c once
 * instead of twice, which would make FMA-capable hosts (an FMA clone
 * here, or an aarch64 build, where FMA is baseline) disagree with
 * baseline x86-64 ones bit-for-bit.
 */

#ifndef EMSTRESS_UTIL_HOTPATH_H
#define EMSTRESS_UTIL_HOTPATH_H

/* ThreadSanitizer initializes after ifunc resolvers run, and the
 * resolver emitted for target_clones segfaults under its runtime
 * (reproduced with gcc 12: any TSan binary containing a clone
 * crashes before main). Every clone is bit-identical to the
 * baseline by contract, so dropping the dispatch under TSan changes
 * performance only, never results. */
#if defined(__SANITIZE_THREAD__)
#define EMSTRESS_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EMSTRESS_TSAN_ACTIVE 1
#endif
#endif

#if defined(__x86_64__) && defined(__gnu_linux__) \
    && (defined(__GNUC__) || defined(__clang__)) \
    && !defined(EMSTRESS_TSAN_ACTIVE)
#define EMSTRESS_TARGET_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define EMSTRESS_TARGET_CLONES
#endif

#endif // EMSTRESS_UTIL_HOTPATH_H
