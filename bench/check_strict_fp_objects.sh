#!/usr/bin/env sh
# Strict-FP contract on the multiversioned kernel bodies.
#
# fft.cpp and matrix_ops.cpp are compiled with -ffp-contract=off and carry
# target_clones("default", "avx2", "avx512f") wrappers around one shared
# template body per kernel.  Their objects must contain no fused
# multiply-add (contraction would change the bits of the planar kernels
# against the std::complex reference paths) and must contain zmm
# instructions (the avx512f clones still vectorise at full width).
#
# Usage: bench/check_strict_fp_objects.sh [build-dir]   (default: build)
set -eu
build=${1:-build}
status=0
for name in fft.cpp.o matrix_ops.cpp.o; do
  obj=$(find "$build/CMakeFiles/rfade.dir" -name "$name" | head -n 1)
  if [ -z "$obj" ]; then
    echo "$name: not found under $build/CMakeFiles/rfade.dir" >&2
    status=1
    continue
  fi
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
exit $status
