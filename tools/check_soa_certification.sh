#!/usr/bin/env bash
# SoA certification battery (architecture contract 12): the SoA snapshot
# kernel, KAsync's batched robot selection (contract 2), the
# cohesion-stretch sweep (core::InitialPairSweep, contract 10) and the
# sort-free dense Look (the hashed co-location index, the grids' bitmap
# candidate enumeration and geom::half_plane_gap) and lazy perception (the
# staged snapshot, co-location on proxies and KKNPS's lazy rule) must be
# bit-identical to their references, or the build is rejected. This script proves it under
# the two configurations most likely to break bit-identity or memory
# safety:
#
#   asan    -DCOHESION_SANITIZE=address  — the 500-seed differential fuzz,
#           the pool/filter property tests, the selection fuzz, the
#           2400-case stretch-sweep fuzz, the co-location, grid-enumeration,
#           half-plane-gap and lazy-KKNPS fuzzes with every allocation and
#           gather bounds-checked;
#   native  -DCOHESION_NATIVE=ON         — the same suites compiled with
#           -march=native (widest vectors + FMA contraction the host
#           supports), demonstrating the certified-band design — the SoA
#           filter's and the stretch sweep's squared-distance bands alike —
#           is immune to ISA and contraction choices.
#
# Each configuration is a scoped subtree build under $1 (default
# build/soa-cert relative to the repo root) restricted via
# -DCOHESION_SOA_CERT_ONLY=ON to the library plus tests/core/soa_*.cpp,
# tests/core/stretch_sweep_test.cpp, tests/core/colocation_test.cpp,
# tests/core/grid_enumeration_test.cpp,
# tests/geometry/half_plane_gap_test.cpp,
# tests/algo/lazy_kknps_test.cpp and
# tests/sched/kasync_selection_test.cpp, so
# the battery stays cheap enough for tier-1 (the `soa_certification` ctest
# test runs this script). A configuration whose toolchain flags do not work
# on the host (no libasan, cross-compile without native) is skipped with a
# notice — missing tooling must not fail the contract check, a red test
# must.
set -euo pipefail
cd "$(dirname "$0")/.."
root="${1:-build/soa-cert}"

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
      -DCOHESION_SANITIZE=address) flags+=(-fsanitize=address) ;;
      -DCOHESION_NATIVE=ON) flags+=(-march=native) ;;
    esac
  done
  c++ "${flags[@]}" "$dir/probe.cpp" -o "$dir/probe" >/dev/null 2>&1
}

run_config() {  # run_config <name> <extra cmake cache args...>
  local name="$1"; shift
  if ! probe_flags "$name" "$@"; then
    echo "soa-cert: SKIP $name (host toolchain rejects its flags)"
    return 0
  fi
  local dir="$root/$name"
  echo "soa-cert: configure $name"
  cmake -S . -B "$dir" \
        -DCOHESION_SOA_CERT_ONLY=ON \
        -DCOHESION_BUILD_BENCHES=OFF \
        -DCOHESION_BUILD_EXAMPLES=OFF \
        "$@" >/dev/null
  echo "soa-cert: build $name"
  cmake --build "$dir" --target cohesion_tests -j "$(nproc)" >/dev/null
  echo "soa-cert: run $name"
  "$dir/cohesion_tests" --gtest_brief=1
  echo "soa-cert: PASS $name"
}

run_config asan -DCOHESION_SANITIZE=address
run_config native -DCOHESION_NATIVE=ON
echo "soa-cert: all configurations certified bit-identical"
