#!/usr/bin/env sh
# Object-code contracts on the multiversioned kernels.
#
# fft.cpp and matrix_ops.cpp are compiled with -ffp-contract=off and carry
# target_clones("default", "avx2", "avx512f") wrappers (or, for the
# coloring GEMM and the FFT butterflies, per-ISA target versions) around
# one shared template body per kernel.  The compiler must contract nothing
# in them: contraction is compiler- and ISA-chosen, so it would change the
# bits of the kernels between clones and against their scalar references.
#
# The one place fused multiply-adds belong is the coloring GEMM
# (coloring_gemm_kernel in matrix_ops.cpp), where they are written
# explicitly, per lane, in a fixed order: its avx512f versions
# ("avx512f,fma") must hold FMA on zmm and its avx2 versions ("avx2,fma")
# FMA on ymm, or the kernel fell back to a narrower or unfused form.  The
# per-draw matvec's column step beside it (fused_mac_column_kernel, the
# same explicit order) must hold FMA in its "fma" version, or that version
# calls libm per op.  Every other function of matrix_ops.cpp.o, and all of
# fft.cpp.o, must hold no fused multiply-add.  Both objects must contain zmm instructions (the
# avx512f clones and versions still vectorise at full width).
#
# metrics/accumulators.cpp and support/exact_sum.cpp are compiled with
# -ffp-contract=off too and must hold no fused multiply-add either: the
# level-crossing |z|^2 band argument counts three roundings, and the lag
# products and mutual-information terms must be the very products the
# shard merges re-form.  accumulators.cpp carries no versions, so no zmm
# is required there.
#
# The mean/gain tail after the coloring (core/mean_source.cpp,
# core/gain_source.cpp, scenario/composite/shadowing.cpp) must hold no
# fused multiply-add either: the phasor row update, the gain multiply and
# the shadowing FIR are mul+add sequences whose bits the fingerprints
# pin, so a later ISA version of any of them must not contract them.
#
# None of these objects may hold vfmaddsub / vfmsubadd: GCC's SLP
# complex-multiply pattern emits it for scalar arrays of interleaved
# accumulators, fused with an ISA-dependent rounding.
#
# Per-ISA target versions must have their avx512f version on zmm and
# their avx2 version on ymm, or they fell back to the 16-byte default
# version: in fft.cpp the FFT butterfly kernel (planar_kernel for
# transform_batched, interleaved_kernel for transform), in exact_sum.cpp
# the block add's pre-scan (max_magnitude) and extraction level
# (extract_level).
#
# bulk_gaussian.cpp stays relaxed-FP (its Box-Muller tile goes through
# libmvec), so it gets no FMA check.  Its Philox counter stage has one
# version per ISA, and the object must contain vpmuludq on zmm (the
# avx512f version, 8 counters per vector) and on ymm (the avx2 version,
# 4 counters per vector): without them the stage fell back to scalar.
#
# Usage: bench/check_strict_fp_objects.sh [build-dir]   (default: build)
set -eu
build=${1:-build}
status=0
fma='vfn?m(add|sub)'

# Prints the path of the object whose path ends in /$1 (a file name, or
# dir/file where the name alone is ambiguous), or reports it missing and
# returns nonzero.
find_object() {
  obj=$(find "$build/CMakeFiles/rfade.dir" -path "*/$1" | head -n 1)
  if [ -z "$obj" ]; then
    echo "$1: not found under $build/CMakeFiles/rfade.dir" >&2
    return 1
  fi
  echo "$obj"
}

# Lines matching the extended regex $3 inside the object $1's functions
# whose symbol contains $2 and whose target-version suffix names the
# feature $4 (".avx2", or ".avx2_fma" for a version with several
# features): one target version of one kernel.
version_count() {
  objdump -d "$1" | awk -v k="$2" -v re="$3" -v isa="$4" '
    />:$/ {
      inside = 0
      sym = $0
      sub(/>:$/, "", sym)
      pieces = split(sym, parts, ".")
      if (index(sym, k) && pieces > 1) {
        count = split(parts[pieces], features, "_")
        for (i = 1; i <= count; i++) inside = inside || features[i] == isa
      }
    }
    inside && $0 ~ re { n++ }
    END { print n + 0 }'
}

# Lines matching the extended regex $3 in the object $1 outside every
# function whose symbol matches the extended regex $2 (an empty $2
# exempts nothing).
count_outside() {
  objdump -d "$1" | awk -v k="$2" -v re="$3" '
    />:$/ { inside = k != "" && $0 ~ k }
    !inside && $0 ~ re { n++ }
    END { print n + 0 }'
}

# Checks that the object named $1 holds no fused multiply-add outside the
# functions whose symbol matches $2, and no vfmaddsub / vfmsubadd at all;
# with $3 = zmm, that it holds zmm code too.
check_unfused() {
  obj=$(find_object "$1") || { status=1; return; }
  stray=$(count_outside "$obj" "$2" "$fma")
  addsub=$(count_outside "$obj" "" 'vfm(addsub|subadd)')
  line="$1: fma outside ${2:-any kernel}=$stray vfmaddsub=$addsub"
  if [ "${3:-}" = zmm ]; then
    zmm=$(objdump -d "$obj" | grep -c 'zmm' || true)
    line="$line zmm=$zmm"
    if [ "$zmm" -eq 0 ]; then
      echo "$1: no zmm instructions — the avx512f clones stopped vectorising" >&2
      status=1
    fi
  fi
  echo "$line"
  if [ "$stray" -ne 0 ] || [ "$addsub" -ne 0 ]; then
    echo "$1: fused multiply-add instructions outside the explicit FMA kernel" >&2
    status=1
  fi
}

check_unfused fft.cpp.o "" zmm
check_unfused matrix_ops.cpp.o "coloring_gemm_kernel|fused_mac_column_kernel" zmm
check_unfused metrics/accumulators.cpp.o ""
check_unfused support/exact_sum.cpp.o ""
check_unfused core/mean_source.cpp.o ""
check_unfused core/gain_source.cpp.o ""
check_unfused composite/shadowing.cpp.o ""

# The coloring GEMM's explicit FMAs: on zmm in the avx512f versions and on
# ymm in the avx2 versions, double (EPKd) and float (EPKf) each.
if obj=$(find_object matrix_ops.cpp.o); then
  for kernel in coloring_gemm_kernelEPKd coloring_gemm_kernelEPKf; do
    zmm=$(version_count "$obj" "$kernel" "$fma.*zmm" avx512f)
    ymm=$(version_count "$obj" "$kernel" "$fma.*ymm" avx2)
    echo "matrix_ops.cpp.o: $kernel avx512f fma zmm=$zmm avx2 fma ymm=$ymm"
    if [ "$zmm" -eq 0 ]; then
      echo "matrix_ops.cpp.o: no zmm FMA in the avx512f $kernel — the version is gone, narrow or unfused" >&2
      status=1
    fi
    if [ "$ymm" -eq 0 ]; then
      echo "matrix_ops.cpp.o: no ymm FMA in the avx2 $kernel — the version is gone, narrow or unfused" >&2
      status=1
    fi
  done
  column=$(version_count "$obj" fused_mac_column_kernel "$fma" fma)
  echo "matrix_ops.cpp.o: fused_mac_column_kernel fma version fma=$column"
  if [ "$column" -eq 0 ]; then
    echo "matrix_ops.cpp.o: no FMA in the fma fused_mac_column_kernel — the version is gone or calls libm per op" >&2
    status=1
  fi
else
  status=1
fi

# Checks that the object $1 has zmm code in the avx512f version and ymm
# code in the avx2 version of each kernel named after it.
check_versions() {
  name=$1
  shift
  obj=$(find_object "$name") || { status=1; return; }
  for kernel in "$@"; do
    zmm=$(version_count "$obj" "$kernel" zmm avx512f)
    ymm=$(version_count "$obj" "$kernel" ymm avx2)
    echo "$name: $kernel avx512f zmm=$zmm avx2 ymm=$ymm"
    if [ "$zmm" -eq 0 ]; then
      echo "$name: no zmm in the avx512f $kernel — the version is gone or narrow" >&2
      status=1
    fi
    if [ "$ymm" -eq 0 ]; then
      echo "$name: no ymm in the avx2 $kernel — the version is gone or narrow" >&2
      status=1
    fi
  done
}

check_versions fft.cpp.o planar_kernel interleaved_kernel
check_versions support/exact_sum.cpp.o max_magnitude extract_level

name=bulk_gaussian.cpp.o
if obj=$(find_object "$name"); then
  mul_zmm=$(objdump -d "$obj" | grep -E 'vpmuludq.*zmm' -c || true)
  mul_ymm=$(objdump -d "$obj" | grep -E 'vpmuludq.*ymm' -c || true)
  echo "$name: vpmuludq zmm=$mul_zmm ymm=$mul_ymm"
  if [ "$mul_zmm" -eq 0 ]; then
    echo "$name: no zmm vpmuludq — the avx512f Philox version is gone or scalar" >&2
    status=1
  fi
  if [ "$mul_ymm" -eq 0 ]; then
    echo "$name: no ymm vpmuludq — the avx2 Philox version is gone or scalar" >&2
    status=1
  fi
else
  status=1
fi
exit $status
