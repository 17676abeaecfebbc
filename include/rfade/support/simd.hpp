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
/// planar_gemm_body<T> behind the double and float planar_gemm_tile in
/// numeric/matrix_ops.cpp).  target_clones itself never touches a
/// template: the body is inlined into every clone of every wrapper, so
/// each clone compiles it for its own ISA (zmm on avx512f) under the
/// TU's FP flags — the same code a hand-written per-type copy produces.

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
#else
#define RFADE_TARGET_CLONES_AVX2
#define RFADE_TARGET_CLONES_WIDE
#endif

/// Marks the shared template body of a multiversioned kernel (see the
/// file comment): always inlined, so it is compiled once per clone.
#define RFADE_CLONE_BODY [[gnu::always_inline]] inline
