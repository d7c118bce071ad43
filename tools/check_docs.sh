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
#     operator can invoke), and every tools/*.sh script by path in some
#     docs/*.md;
#   * every flag a tool declares (read from its generated `--help`, for
#     each tool binary passed as an argument) must be documented in
#     docs/operations.md, and the spec-level batch fields in
#     docs/experiments.md;
#   * the core documentation set (README.md, docs/architecture.md,
#     docs/benchmarks.md, docs/experiments.md, docs/operations.md) must
#     exist and README.md must link every docs/ file;
#   * no tools/*.cpp opens its own output stream (std::ofstream, fopen):
#     the front ends write through run::write_file, the one checked writer;
#   * every repo path that README.md, docs/*.md or the verify skill notes
#     name in an inline code span under src/ tools/ tests/ bench/
#     perfbench/ docs/ examples/ must resolve: to a file or directory, a
#     glob match, or a module stem with a .hpp/.cpp (which covers
#     tools/<name> for tools/<name>.cpp).
#
# Usage: check_docs.sh [TOOL_BINARY...]. Run from anywhere; registered as
# the `docs_check` ctest test, with the built tools as arguments, so CI
# fails on rot. Without tool binaries the flag check is skipped, and says so.
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

# One checked writer: a front end that opens its own output stream can
# lose a report silently (an unchecked write exits 0 on a full disk).
for tool in tools/*.cpp; do
  if grep -nE 'std::ofstream|\bfopen\(' "$tool" >&2; then
    complain "$tool opens its own output stream; write through run::write_file"
  fi
done

for script in tools/*.sh; do
  grep -q "$script" docs/*.md ||
    complain "no docs/*.md names the script $script"
done
# Every declared flag of every tool: documented in the runbook. A flag
# line of `--help` starts with the flag (mode flags at column 0).
[ "$#" -gt 0 ] || echo "check_docs: no tool binaries given; flags not checked" >&2
for binary in "$@"; do
  name=$(basename "$binary")
  flags=$("$binary" --help | grep -oE '^ *--[a-z][a-z-]*') ||
    { complain "$name --help lists no flags"; continue; }
  for flag in $flags; do
    grep -qE -- "$flag([^a-z-]|$)" docs/operations.md ||
      complain "docs/operations.md does not document $name $flag"
  done
done
grep -q COHESION_CACHE_DIR docs/operations.md ||
  complain "docs/operations.md does not document \$COHESION_CACHE_DIR"

# The serve on-disk/degraded formats and the container recipe: runbook.
for phrase in cohesion-serve-ledger/1 cohesion-supervised-partial/1 docker-compose.yml; do
  grep -q "$phrase" docs/operations.md ||
    complain "docs/operations.md does not cover $phrase"
done

# Spec-level schema fields: documented with the rest of the spec schema
# (use_spatial_index, incremental_index and soa_kernel as retired keys).
for field in early_stop max_time incremental_index use_spatial_index soa_kernel \
             trace flush_every index_every extends; do
  grep -q "$field" docs/experiments.md ||
    complain "docs/experiments.md does not document spec field $field"
done

# The run/ops determinism contracts live in the architecture doc.
for phrase in shard-union resume fault-tolerance "streamed metrics" \
              "cached outcome ≡ recomputed outcome" \
              "certified-band kernels ≡ their references" \
              "byte-identical across any partition history"; do
  grep -qi "$phrase" docs/architecture.md ||
    complain "docs/architecture.md does not state the $phrase determinism contract"
done

# The native build toggle and its certification driver: benchmarks doc covers
# the native A/B knob, architecture doc names the enforcing ctest test.
grep -q "COHESION_NATIVE" docs/benchmarks.md docs/architecture.md ||
  complain "docs do not mention the COHESION_NATIVE build toggle"
grep -q "kernel_certification" docs/architecture.md ||
  complain "docs/architecture.md does not name the kernel_certification ctest test"

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

# Named paths resolve. Fenced blocks are skipped (they hold commands and
# their outputs); each file is joined into one line first so a code span
# broken across lines still pairs its backticks.
resolves() {  # resolves <path>
  local p="$1"
  [ -e "$p" ] || [ -e "$p.hpp" ] || [ -e "$p.cpp" ] ||
    { [[ "$p" == *[*?[]* ]] && compgen -G "$p" > /dev/null; }
}
for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -f "$doc" ] || continue
  while read -r path; do
    resolves "$path" || complain "$doc names \`$path\`, which does not exist"
  done < <(awk '/^[[:space:]]*```/ { fenced = !fenced; next } !fenced' "$doc" | tr '\n' ' ' |
           grep -o '`[^`]*`' | tr -d '`' | tr -s ' \t' '\n' |
           sed -E 's/^[("'"'"']+//; s/:[0-9]+$//; s/[),.;:"'"'"']+$//' |
           grep -E '^(src|tools|tests|bench|perfbench|docs|examples)/' | sort -u)
done

if [ "$fail" = 0 ]; then
  echo "check_docs: OK (src subsystems, bench files, test oracles, tools, CLI flags, spec fields, doc links, named paths and the one tool writer all covered)"
fi
exit "$fail"
