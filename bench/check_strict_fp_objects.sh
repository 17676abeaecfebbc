#!/usr/bin/env sh
# Object-code contracts on the multiversioned kernels.
#
# fft.cpp and matrix_ops.cpp are compiled with -ffp-contract=off and carry
# target_clones("default", "avx2", "avx512f") wrappers (or, for the
# coloring GEMM and the FFT butterflies, per-ISA target versions) around
# one shared template body per kernel.  Their objects must contain no
# fused multiply-add, vfmaddsub included (contraction would change the
# bits of the kernels against the std::complex reference paths), and must
# contain zmm instructions (the avx512f clones still vectorise at full
# width).
#
# metrics/accumulators.cpp and support/exact_sum.cpp are compiled with
# -ffp-contract=off too and must hold no fused multiply-add either: the
# level-crossing |z|^2 band argument counts three roundings, and the lag
# products and mutual-information terms must be the very products the
# shard merges re-form.  accumulators.cpp carries no versions, so no zmm
# is required there.
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

for name in fft.cpp.o matrix_ops.cpp.o; do
  obj=$(find_object "$name") || { status=1; continue; }
  fma=$(objdump -d "$obj" | grep -cE 'vfn?m(add|sub)' || true)
  zmm=$(objdump -d "$obj" | grep -c 'zmm' || true)
  echo "$name: fma=$fma zmm=$zmm"
  if [ "$fma" -ne 0 ]; then
    echo "$name: fused multiply-add instructions in a strict-FP TU" >&2
    status=1
  fi
  if [ "$zmm" -eq 0 ]; then
    echo "$name: no zmm instructions — the avx512f clones stopped vectorising" >&2
    status=1
  fi
done

for name in metrics/accumulators.cpp.o support/exact_sum.cpp.o; do
  obj=$(find_object "$name") || { status=1; continue; }
  fma=$(objdump -d "$obj" | grep -cE 'vfn?m(add|sub)' || true)
  echo "$name: fma=$fma"
  if [ "$fma" -ne 0 ]; then
    echo "$name: fused multiply-add instructions in a strict-FP TU" >&2
    status=1
  fi
done

# Lines holding register $3 inside the object $1's functions whose symbol
# contains $2 and ends in ".$4" (one target version of one kernel).
version_count() {
  objdump -d "$1" | awk -v k="$2" -v reg="$3" -v isa="$4" '
    />:$/ { inside = index($0, k) && index($0, "." isa ">:") }
    inside && index($0, reg) { n++ }
    END { print n + 0 }'
}

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
