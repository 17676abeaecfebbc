#pragma once

/// \file simd.hpp
/// \brief Function-multiversioning helpers for the batched hot-path kernels.
///
/// RFADE_TARGET_CLONES_AVX2 compiles the annotated function twice — a
/// baseline-ISA version and an AVX2 version — and lets the dynamic loader
/// (ifunc) pick at startup.  RFADE_TARGET_CLONES_WIDE is the wider tier:
/// it adds an avx512f clone (512-bit vectors) on x86-64.  On aarch64 the
/// macros expand to nothing *by design*: NEON is part of the baseline ISA
/// there, so the default build already auto-vectorizes the kernels with
/// NEON and there is no wider tier to clone (SVE multiversioning needs the
/// GCC 14+ "arch=" FMV syntax; revisit when the toolchain floor moves).
///
/// Bit-identity contract: the clones deliberately do *not* enable FMA via
/// the target set (neither "avx2" nor the x86 FMV machinery turns on
/// -mfma), and AVX-512F — whose 512-bit FMA is part of the base feature —
/// is kept honest by compiling every strict-FP kernel TU with
/// -ffp-contract=off (see CMakeLists.txt): fused contraction would change
/// the bit pattern of the planar kernels against the std::complex
/// reference paths, and the hot paths promise bit-identical results
/// across code paths and clone tiers.  The one exception is the bulk
/// Box-Muller fill, whose transcendental calls go through libmvec: vector
/// variants of log/sin/cos differ across ISA widths by a few ulp, so that
/// kernel's cross-ISA contract is ulp-level (its within-process purity is
/// still exact — ifunc resolves one clone per process).  On toolchains or
/// targets without multiversioning support the macros expand to nothing
/// and the baseline loop is used everywhere.
///
/// One body per kernel, both precisions: the loop nest is written once as
/// a function template marked RFADE_CLONE_BODY (always_inline), and each
/// element type gets a thin non-template entry point carrying
/// RFADE_TARGET_CLONES_WIDE whose body only forwards to it (e.g.
/// crossfade_body<T> behind the double and float crossfade_kernel in
/// numeric/matrix_ops.cpp).  target_clones itself never touches a
/// template: the body is inlined into every clone of every wrapper, so
/// each clone compiles it for its own ISA (zmm on avx512f) under the
/// TU's FP flags — the same code a hand-written per-type copy produces.
///
/// Explicit vectors for register-blocked complex arithmetic: a kernel
/// that keeps complex accumulators in registers is written in GCC/Clang
/// vector_size types (every width it uses, tails included), never in
/// fixed-size scalar arrays of accumulators.  -ffp-contract=off does not
/// reach GCC's SLP complex-multiply pattern: a scalar array of interleaved
/// accumulators updated as acc[2q] += ar*br - ai*bi,
/// acc[2q+1] += ar*bi + ai*br compiles under GCC 12 to vfmaddsub (fused,
/// single rounding) in the avx512f clone, which changes the bits.
/// Explicit vectors hand the vectorizer nothing to pattern-match.
/// bench/check_strict_fp_objects.sh (run by CI) rejects any fused
/// multiply-add, vfmaddsub included, in the strict-FP objects.
///
/// Such a kernel cannot sit behind target_clones: every clone would
/// compile the same vector width, and a vector wider than the clone's
/// registers is lowered through memory (64-byte vectors in the avx2 and
/// default clones ran 4-7x slower than the scalar loop they replace).
/// It uses RFADE_TARGET_VERSION instead — GCC/Clang target-attribute
/// multiversioning, resolved by the same ifunc machinery — with one
/// non-template entry point per ISA forwarding to the body instantiated
/// at that ISA's register width: a "default" version (16-byte vectors:
/// SSE2, or NEON on aarch64), then, under RFADE_HAS_TARGET_VERSIONS,
/// "avx2" (32 bytes) and "avx512f" (64 bytes) versions (the coloring GEMM
/// in numeric/matrix_ops.cpp).  Where multiversioning is unavailable the
/// macro expands to nothing and only the default version is compiled.

// Sanitizers and ifunc-based multiversioning do not mix: the clone
// resolver runs during dynamic relocation, before the sanitizer runtime
// initializes, and TSan's function-entry instrumentation in (or reached
// from) the resolver segfaults on the uninitialized runtime.  Fall back
// to the baseline loop under ASan and TSan.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RFADE_DETAIL_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RFADE_DETAIL_SANITIZED 1
#endif

#if defined(__x86_64__) && defined(__linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(RFADE_DETAIL_SANITIZED)
#define RFADE_TARGET_CLONES_AVX2 __attribute__((target_clones("default", "avx2")))
#define RFADE_TARGET_CLONES_WIDE \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#define RFADE_HAS_TARGET_VERSIONS 1
#define RFADE_TARGET_VERSION(isa) __attribute__((target(isa)))
#else
#define RFADE_TARGET_CLONES_AVX2
#define RFADE_TARGET_CLONES_WIDE
#define RFADE_HAS_TARGET_VERSIONS 0
#define RFADE_TARGET_VERSION(isa)
#endif

/// Marks the shared template body of a multiversioned kernel (see the
/// file comment): always inlined, so it is compiled once per clone.
#define RFADE_CLONE_BODY [[gnu::always_inline]] inline
