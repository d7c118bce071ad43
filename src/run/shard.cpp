#include "run/shard.hpp"

#include <stdexcept>

#include "run/args.hpp"

namespace cohesion::run {

Shard Shard::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::runtime_error("bad shard \"" + text + "\": expected i/N (e.g. 0/3)");
  }
  Shard s;
  const std::string_view whole = text;
  if (!parse_whole(whole.substr(0, slash), s.index) ||
      !parse_whole(whole.substr(slash + 1), s.count)) {
    throw std::runtime_error("bad shard \"" + text + "\": expected i/N");
  }
  if (s.count == 0) throw std::runtime_error("bad shard \"" + text + "\": N must be >= 1");
  if (s.index >= s.count) {
    throw std::runtime_error("bad shard \"" + text + "\": index must be in [0, " +
                             std::to_string(s.count) + ") — shards are 0-based");
  }
  return s;
}

Json partial_report_json(const ExperimentSpec& experiment, const Shard& shard,
                         std::size_t total_runs, const std::vector<RunOutcome>& outcomes) {
  Json j = Json::object();
  j.set("format", kPartialReportFormat);
  j.set("experiment", experiment.to_json());
  j.set("total_runs", total_runs);
  Json s = Json::object();
  s.set("index", shard.index);
  s.set("count", shard.count);
  s.set("runs", outcomes.size());
  j.set("shard", s);
  JsonArray runs;
  for (const RunOutcome& o : outcomes) runs.push_back(o.to_json());
  j.set("runs", Json(std::move(runs)));
  return j;
}

Json merge_partial_reports(const std::vector<Json>& partials) {
  if (partials.empty()) throw std::runtime_error("merge: no partial reports given");

  const Json* echo = nullptr;        // experiment of the first partial, reused verbatim
  std::string echo_dump;
  std::size_t total = 0;
  std::size_t shard_count = 0;
  std::vector<char> shard_seen;
  std::vector<char> have;
  std::vector<RunOutcome> outcomes;

  for (std::size_t p = 0; p < partials.size(); ++p) {
    const Json& part = partials[p];
    const std::string where = "partial report #" + std::to_string(p);
    if (!part.is_object() || part.string_or("format", "") != kPartialReportFormat) {
      throw std::runtime_error(where + ": missing/unknown format marker (expected \"" + kPartialReportFormat +
                               "\") — inputs must be cohesion_run --shard outputs");
    }
    const Json& exp = part.at("experiment");
    const std::size_t p_total = static_cast<std::size_t>(part.at("total_runs").as_uint());
    const Json& sh = part.at("shard");
    const std::size_t s_index = static_cast<std::size_t>(sh.at("index").as_uint());
    const std::size_t s_count = static_cast<std::size_t>(sh.at("count").as_uint());
    if (s_count == 0 || s_index >= s_count) {
      throw std::runtime_error(where + ": invalid shard coordinates " + std::to_string(s_index) +
                               "/" + std::to_string(s_count));
    }
    if (echo == nullptr) {
      echo = &exp;
      echo_dump = exp.dump();
      total = p_total;
      shard_count = s_count;
      shard_seen.assign(shard_count, 0);
      have.assign(total, 0);
      outcomes.resize(total);
    } else {
      if (exp.dump() != echo_dump) {
        throw std::runtime_error(where + " (shard " + std::to_string(s_index) +
                                 "): experiment spec differs from partial report #0 — these "
                                 "shards were not produced from the same spec file");
      }
      if (p_total != total || s_count != shard_count) {
        throw std::runtime_error(where + ": grid shape mismatch (total_runs " +
                                 std::to_string(p_total) + "/" + std::to_string(total) +
                                 ", shard count " + std::to_string(s_count) + "/" +
                                 std::to_string(shard_count) + ")");
      }
    }
    if (shard_seen[s_index]) {
      throw std::runtime_error(where + ": shard " + std::to_string(s_index) + "/" +
                               std::to_string(shard_count) + " appears twice in the input set");
    }
    shard_seen[s_index] = 1;
    for (const Json& r : part.at("runs").items()) {
      RunOutcome o = RunOutcome::from_json(r);
      if (o.index >= total) {
        throw std::runtime_error(where + ": run index " + std::to_string(o.index) +
                                 " out of range for total_runs " + std::to_string(total));
      }
      if (o.variant % shard_count != s_index) {
        throw std::runtime_error(where + ": run index " + std::to_string(o.index) +
                                 " (variant " + std::to_string(o.variant) +
                                 ") does not belong to shard " + std::to_string(s_index) + "/" +
                                 std::to_string(shard_count));
      }
      if (have[o.index]) {
        throw std::runtime_error(where + ": run index " + std::to_string(o.index) +
                                 " already supplied by another partial");
      }
      have[o.index] = 1;
      outcomes[o.index] = std::move(o);
    }
  }

  if (partials.size() != shard_count) {
    std::string missing;
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (!shard_seen[s]) missing += (missing.empty() ? "" : ", ") + std::to_string(s);
    }
    throw std::runtime_error("merge: got " + std::to_string(partials.size()) + " of " +
                             std::to_string(shard_count) + " shards (missing: " + missing + ")");
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (!have[i]) {
      throw std::runtime_error("merge: grid index " + std::to_string(i) +
                               " is covered by no partial report");
    }
  }
  return BatchRunner::report_json_from(*echo, outcomes);
}

}  // namespace cohesion::run
