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
/// Bit-identity contract: fused multiply-add is never the compiler's
/// choice.  Every strict-FP kernel TU is compiled with -ffp-contract=off
/// (see CMakeLists.txt), because contraction is compiler- and ISA-chosen:
/// the avx512f clones have 512-bit FMA in their base feature set, and a
/// contracted mul+add would change the bit pattern of one clone against
/// another and against the scalar reference paths, while the hot paths
/// promise bit-identical results across code paths and clone tiers.
///
/// Where FMA is wanted it is an explicit per-lane contract instead.  The
/// coloring GEMM (numeric/matrix_ops.cpp) computes every output lane as
/// acc = fma(ai, y, fma(ar, x, acc)), kk ascending from +0 (on the real
/// lane fma(ai, -bi, fma(ar, br, acc)), on the imaginary lane
/// fma(ai, br, fma(ar, bi, acc))), written with vfmadd intrinsics in its
/// "avx2,fma" and "avx512f,fma" versions and std::fma per lane in its
/// default version (SSE2, NEON and every sanitizer build).  Each fused
/// op is correctly rounded wherever it runs, and the tile shape never
/// changes an element's sequence of ops, so the GEMM's bits are the same
/// at every ISA tier and equal the scalar numeric::fused_mac loop (which
/// the per-draw matvec runs through numeric::fused_mac_column, beside the
/// GEMM in a "default" and an "fma" version).  The
/// FFT butterflies, the crossfade, the strided scale and the metrics
/// accumulators stay unfused (mul and add rounded separately).
///
/// The one exception to exact cross-tier bits is the bulk Box-Muller tile
/// (random/bulk_gaussian.cpp), whose transcendental calls go through
/// libmvec: vector variants of log/sin/cos differ across ISA widths by a
/// few ulp, so that kernel's cross-ISA contract is ulp-level (its
/// within-process purity is still exact — ifunc resolves one clone per
/// process).  The fill's counter -> uniform stage before it is exact and
/// bit-identical at every width.  On toolchains or targets without
/// multiversioning support the macros expand to nothing and the baseline
/// loop is used everywhere.
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
/// multiply-add in the strict-FP objects outside the coloring GEMM's
/// versions (and vfmaddsub everywhere), and requires FMA on zmm / ymm in
/// the GEMM's avx512f / avx2 versions.
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
/// "avx2" (32 bytes) and "avx512f" (64 bytes) versions.  Users:
///  - the coloring GEMM in numeric/matrix_ops.cpp, whose wider versions
///    are "avx2,fma" and "avx512f,fma" (GCC mangles them .avx2_fma and
///    .avx512f_fma) and whose avx512f tile is 8 rows x 3 zmm;
///  - the FFT butterfly kernel in fft/fft.cpp (fused stage pairs on 4
///    points in registers): planar_kernel vectorises transform_batched
///    across lanes, interleaved_kernel vectorises transform across
///    consecutive points;
///  - the bulk fill's Philox counter -> uniform stage in
///    random/bulk_gaussian.cpp: the scalar loop in "default" (which the
///    wider versions also run for their tails), 4 counters per ymm in
///    "avx2" and 8 per zmm in "avx512f", written in intrinsics.
/// Where multiversioning is unavailable the macro expands to nothing and
/// only the default version is compiled.
///
/// The trap when a versioned function uses intrinsics: a target-specific
/// function (an intrinsic, or a helper marked RFADE_TARGET_VERSION) cannot
/// be inlined into a target-less always_inline body, so an
/// RFADE_CLONE_BODY template cannot call one — GCC rejects the inline
/// with "target specific option mismatch".  Give every helper on such a
/// path its version's target (as the Philox helpers do), or mark the
/// versioned entry point [[gnu::flatten]] so the intrinsics inline into
/// it directly.  The coloring GEMM takes a third way: its body calls
/// X86Fma::madd overloads that carry their own target ("fma" or
/// "avx512f") and are not always_inline, so the target-less body
/// compiles, and the inliner folds them into the "avx2,fma" /
/// "avx512f,fma" versions, whose targets include theirs (the object check
/// fails if one stays out of line).  Pass vectors to such helpers by
/// reference: a vector argument or return value in a target-less body
/// draws GCC's -Wpsabi ABI warning.

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
