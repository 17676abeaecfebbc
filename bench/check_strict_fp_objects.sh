#!/usr/bin/env sh
# Object-code contracts on the multiversioned kernels.
#
# fft.cpp and matrix_ops.cpp are compiled with -ffp-contract=off and carry
# target_clones("default", "avx2", "avx512f") wrappers (or, for the
# coloring GEMM, per-ISA target versions) around one shared template body
# per kernel.  Their objects must contain no fused multiply-add, vfmaddsub
# included (contraction would change the bits of the kernels against the
# std::complex reference paths), and must contain zmm instructions (the
# avx512f clones still vectorise at full width).
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

# Prints the object's path, or reports it missing and returns nonzero.
find_object() {
  obj=$(find "$build/CMakeFiles/rfade.dir" -name "$1" | head -n 1)
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
