#!/usr/bin/env bash
# Docs-freshness gate: fails when the documentation set has rotted behind
# the tree. Specifically:
#
#   * every src/<subsystem>/ directory must be mentioned in
#     docs/architecture.md  (as "src/<subsystem>");
#   * every bench/bench_*.cpp must be mentioned by filename in
#     docs/benchmarks.md;
#   * every tests/oracles/*.hpp test oracle must be mentioned by filename
#     in docs/architecture.md (contract 3 lists the references);
#   * every tools/*.cpp CLI tool must be mentioned by name in README.md
#     and in docs/operations.md (the ops runbook covers every binary an
#     operator can invoke);
#   * the operator-facing cohesion_run/cohesion_merge flags and the
#     spec-level batch fields must be documented where they belong
#     (docs/operations.md for the run/ops flags, docs/experiments.md for
#     spec schema fields) — greps below, extend when adding flags;
#   * the core documentation set (README.md, docs/architecture.md,
#     docs/benchmarks.md, docs/experiments.md, docs/operations.md) must
#     exist and README.md must link every docs/ file.
#
# Run from anywhere; wired into bench/run_benches.sh and registered as the
# `docs_check` ctest test so CI fails on rot.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
complain() {
  echo "check_docs: $*" >&2
  fail=1
}

for doc in README.md docs/architecture.md docs/benchmarks.md docs/experiments.md \
           docs/operations.md; do
  [ -f "$doc" ] || complain "missing $doc"
done
[ "$fail" = 0 ] || exit 1

for dir in src/*/; do
  sub=${dir%/}
  grep -q "$sub" docs/architecture.md ||
    complain "docs/architecture.md does not mention subsystem $sub"
done

for bench in bench/bench_*.cpp; do
  name=$(basename "$bench")
  grep -q "$name" docs/benchmarks.md ||
    complain "docs/benchmarks.md does not mention $name"
done

for oracle in tests/oracles/*.hpp; do
  name=$(basename "$oracle")
  grep -q "$name" docs/architecture.md ||
    complain "docs/architecture.md does not name the test oracle $name"
done

for tool in tools/*.cpp; do
  name=$(basename "$tool" .cpp)
  grep -q "$name" README.md ||
    complain "README.md does not mention tool $name"
  grep -q "$name" docs/operations.md ||
    complain "docs/operations.md does not mention tool $name"
done

# Operator-facing CLI flags: documented in the runbook.
for flag in --shard --checkpoint --resume --fsync-every --threads --out --no-timing \
            --trace-dir --peak-rss --cache --cache-readonly --no-cache; do
  grep -q -- "$flag" docs/operations.md ||
    complain "docs/operations.md does not document cohesion_run $flag"
done
grep -q COHESION_CACHE_DIR docs/operations.md ||
  complain "docs/operations.md does not document \$COHESION_CACHE_DIR"

# Replay-tool (cohesion_replay) flags: same rule.
for flag in --check --expect-fingerprint --info --svg; do
  grep -q -- "$flag" docs/operations.md ||
    complain "docs/operations.md does not document cohesion_replay $flag"
done

# Supervisor (cohesion_launch) flags: same rule.
for flag in --shards --fault --lease-timeout --max-attempts --backoff-base --throttle-ms \
            --max-parallel --work-dir; do
  grep -q -- "$flag" docs/operations.md ||
    complain "docs/operations.md does not document cohesion_launch $flag"
done

# Work-queue daemon (cohesion_serve) flags: same rule. (--lease-timeout,
# --max-attempts, --backoff-*, --work-dir, --throttle-ms are shared with
# cohesion_launch and gated above.)
for flag in --listen --worker --submit --status --shutdown --ledger --poll-interval \
            --status-interval --jitter-seed --runner --connect-attempts --connect-backoff \
            --oneshot --wait; do
  grep -q -- "$flag" docs/operations.md ||
    complain "docs/operations.md does not document cohesion_serve $flag"
done

# The serve on-disk/degraded formats and the container recipe: runbook.
for phrase in cohesion-serve-ledger/1 cohesion-supervised-partial/1 docker-compose.yml; do
  grep -q "$phrase" docs/operations.md ||
    complain "docs/operations.md does not cover $phrase"
done

# Spec-level schema fields: documented with the rest of the spec schema
# (use_spatial_index and incremental_index as retired keys).
for field in early_stop max_time incremental_index use_spatial_index soa_kernel \
             trace flush_every index_every extends; do
  grep -q "$field" docs/experiments.md ||
    complain "docs/experiments.md does not document spec field $field"
done

# The run/ops determinism contracts live in the architecture doc.
for phrase in shard-union resume fault-tolerance "streamed metrics" \
              "cached outcome ≡ recomputed outcome" \
              "SoA snapshot ≡ scalar snapshot" \
              "byte-identical across any partition history"; do
  grep -qi "$phrase" docs/architecture.md ||
    complain "docs/architecture.md does not state the $phrase determinism contract"
done

# The SoA build toggle and its certification driver: benchmarks doc covers
# the native A/B knob, architecture doc names the enforcing ctest test.
grep -q "COHESION_NATIVE" docs/benchmarks.md docs/architecture.md ||
  complain "docs do not mention the COHESION_NATIVE build toggle"
grep -q "soa_certification" docs/architecture.md ||
  complain "docs/architecture.md does not name the soa_certification ctest test"

# The trace-file format spec lives in the runbook.
for phrase in COHTRACE cohtrace torn; do
  grep -q "$phrase" docs/operations.md ||
    complain "docs/operations.md does not cover the trace-file format ($phrase)"
done

for doc in docs/*.md; do
  name=$(basename "$doc")
  grep -q "$name" README.md ||
    complain "README.md does not link docs/$name"
done

if [ "$fail" = 0 ]; then
  echo "check_docs: OK (src subsystems, bench files, test oracles, tools, CLI flags, spec fields and doc links all covered)"
fi
exit "$fail"
