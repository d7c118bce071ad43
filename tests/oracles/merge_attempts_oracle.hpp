// Reference fold of per-attempt outcome lists: every attempt's journal
// folded in order with run::supersede into one outcome per grid index.
// The product folds outcomes one at a time as they arrive
// (serve::JobTable); this whole-list form pins the rule itself
// (tests/run/supervisor_test.cpp, MergeAttempts.*).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "run/batch_runner.hpp"
#include "run/supervisor.hpp"

namespace cohesion::oracles {

/// Collapse per-attempt outcome lists into exactly one outcome per grid
/// index. Attempts fold in order with `supersede` (so between two errors
/// the later attempt wins); a conflict throws std::runtime_error naming
/// the index. Returns outcomes sorted by grid index.
inline std::vector<run::RunOutcome> merge_attempt_outcomes(
    const std::vector<std::vector<run::RunOutcome>>& attempts) {
  std::map<std::size_t, run::RunOutcome> by_index;
  for (const std::vector<run::RunOutcome>& attempt : attempts) {
    for (const run::RunOutcome& o : attempt) {
      const auto [it, fresh] = by_index.try_emplace(o.index, o);
      if (!fresh) run::supersede(it->second, o);
    }
  }
  std::vector<run::RunOutcome> out;
  out.reserve(by_index.size());
  for (auto& [index, o] : by_index) out.push_back(std::move(o));
  return out;
}

}  // namespace cohesion::oracles
