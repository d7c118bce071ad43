#!/usr/bin/env bash
# Kernel certification battery (architecture contract 12): the engine's
# certified visibility band (VisibilityBall against the reference engine,
# contract 1), KAsync's batched robot selection (contract 2: its baseline
# copy and, where the CPU has AVX2, its AVX2 copy, each called directly
# and through the run-time dispatch), the
# cohesion-stretch sweep (core::InitialPairSweep, contract 10), the
# sort-free dense Look (the hashed co-location index, the grids' bitmap
# candidate enumeration and geom::half_plane_gap) and lazy perception (the
# staged snapshot, co-location on proxies and KKNPS's lazy rule) and the
# engine's incremental stop-check diameter (geom::DiameterTracker against
# geom::set_diameter) must be bit-identical to their references, or the
# build is rejected. This script
# proves it under the two configurations most likely to break bit-identity,
# memory safety or defined behaviour:
#
#   asan-ubsan  -DCOHESION_SANITIZE=address,undefined — the 660-seed
#           engine-vs-reference fuzz, the visibility-ball property tests,
#           the selection fuzz over every selection copy the host can
#           run, the 2400-case stretch-sweep fuzz, the
#           co-location, grid-enumeration, half-plane-gap, diameter-tracker
#           and lazy-KKNPS fuzzes with every allocation bounds-checked and every
#           arithmetic step (signed overflow, shifts, out-of-range
#           double -> integer casts such as the co-location cells') checked
#           for undefined behaviour, aborting on the first finding;
#   native  -DCOHESION_NATIVE=ON         — the same suites compiled with
#           -march=native (widest vectors + FMA contraction the host
#           supports; the selection's baseline copy then runs at the
#           host's width too), demonstrating the certified-band design —
#           the visibility ball's and the stretch sweep's squared-distance
#           bands alike — is immune to ISA and contraction choices.
#
# Each configuration is a scoped subtree build under $1 (default
# build/kernel-cert relative to the repo root) restricted via
# -DCOHESION_CERT_ONLY=ON to the library plus
# tests/core/engine_equivalence_test.cpp,
# tests/core/visibility_ball_test.cpp,
# tests/core/stretch_sweep_test.cpp, tests/core/colocation_test.cpp,
# tests/core/grid_enumeration_test.cpp,
# tests/geometry/half_plane_gap_test.cpp,
# tests/geometry/diameter_tracker_test.cpp,
# tests/algo/lazy_kknps_test.cpp and
# tests/sched/kasync_selection_test.cpp, so
# the battery stays cheap enough for tier-1 (the `kernel_certification`
# ctest test runs this script). A configuration whose toolchain flags do not
# work on the host (no libasan, cross-compile without native) is skipped
# with a notice — missing tooling must not fail the contract check, a red
# test must. Each step prints its wall seconds ("kernel-cert: <step>
# <name> <s> s"), so the battery's own cost can be tracked.
set -euo pipefail
cd "$(dirname "$0")/.."
root="${1:-build/kernel-cert}"

# Keep subtree builds from inheriting a parent generator's environment.
unset MAKEFLAGS CMAKEFLAGS 2>/dev/null || true

probe_flags() {  # probe_flags <name> <extra cmake cache args...>
  # Compile+link a trivial program with the configuration's flags to see
  # whether the host toolchain supports them at all.
  local name="$1"; shift
  local dir="$root/probe-$name"
  mkdir -p "$dir"
  cat > "$dir/probe.cpp" <<'EOF'
int main() { return 0; }
EOF
  local flags=()
  for arg in "$@"; do
    case "$arg" in
      -DCOHESION_SANITIZE=*) flags+=(-fsanitize="${arg#-DCOHESION_SANITIZE=}") ;;
      -DCOHESION_NATIVE=ON) flags+=(-march=native) ;;
    esac
  done
  c++ "${flags[@]}" "$dir/probe.cpp" -o "$dir/probe" >/dev/null 2>&1
}

run_config() {  # run_config <name> <extra cmake cache args...>
  local name="$1"; shift
  if ! probe_flags "$name" "$@"; then
    echo "kernel-cert: SKIP $name (host toolchain rejects its flags)"
    return 0
  fi
  local dir="$root/$name"
  echo "kernel-cert: configure $name"
  timed configure "$name" cmake -S . -B "$dir" \
        -DCOHESION_CERT_ONLY=ON \
        -DCOHESION_BUILD_BENCHES=OFF \
        -DCOHESION_BUILD_EXAMPLES=OFF \
        "$@" >/dev/null
  echo "kernel-cert: build $name"
  timed build "$name" cmake --build "$dir" --target cohesion_tests -j "$(nproc)" >/dev/null
  echo "kernel-cert: run $name"
  timed run "$name" "$dir/cohesion_tests" --gtest_brief=1
  echo "kernel-cert: PASS $name"
}

timed() {  # timed <step> <name> <command...>: run it, then print its wall seconds
  local step="$1" name="$2"; shift 2
  local start end
  start=$(date +%s.%N)
  "$@"
  end=$(date +%s.%N)
  echo "kernel-cert: $step $name $(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.1f", b - a }') s" >&2
}

run_config asan-ubsan -DCOHESION_SANITIZE=address,undefined
run_config native -DCOHESION_NATIVE=ON
echo "kernel-cert: all configurations certified bit-identical"
