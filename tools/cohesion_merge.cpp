// cohesion_merge — combine the partial reports of a sharded sweep
// (`cohesion_run sweep.json --shard i/N`) into the exact report a single
// process would have produced: byte-identical to
// `cohesion_run sweep.json --no-timing` (asserted in tests/run/shard_test.cpp
// and, across real processes, tests/integration/cache_e2e_test.cpp).
//
//   cohesion_merge p0.json p1.json p2.json            # merged report, stdout
//   cohesion_merge p*.json --out report.json          # ... to a file
//
// Input order does not matter; every shard of the sweep must be present
// exactly once and the partials must come from the same spec file — merge
// refuses anything else with an error naming the missing/conflicting
// shard. Cache-served outcomes survive merge untouched: a shard worker
// running with --cache writes the byte-identical outcome a recomputation
// would have (run/result_cache contract), so partials produced by any mix
// of warm and cold workers merge to the same report — asserted end to end
// in tests/integration/cache_e2e_test.cpp. Runbook: docs/operations.md.
// Exit codes (taxonomy in
// docs/experiments.md): 0 success, 1 invalid/incomplete partials
// (permanent — the inputs are wrong), 2 bad usage, 3 transient I/O (an
// input not readable yet, a report not written in full — retry once the
// file lands or the disk has room).
#include <iostream>
#include <string>
#include <vector>

#include "run/args.hpp"
#include "run/exit_codes.hpp"
#include "run/journal.hpp"
#include "run/shard.hpp"

using namespace cohesion;

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_path;
  run::Args args(argc, argv, "cohesion_merge");
  args.read("--out FILE", out_path, "write the merged report to FILE instead of stdout");
  args.operand("PARTIAL", inputs, "partial reports (cohesion_run --shard), any order");
  args.done();

  return run::run_main("cohesion_merge", [&]() -> int {
    // An absent partial is transient (its shard may still be running or
    // copying); a present-but-invalid one is a permanent input error.
    std::vector<run::Json> partials;
    partials.reserve(inputs.size());
    for (const std::string& path : inputs) partials.push_back(run::Json::parse_file(path));
    const run::Json report = run::merge_partial_reports(partials);

    run::write_file(out_path, report.dump(2) + "\n");
    if (!out_path.empty()) {
      std::cerr << "merged report written: " << out_path << " (" << inputs.size()
                << " partials)\n";
    }
    return run::kExitSuccess;
  });
}
