// cohesion_replay — consume a binary activation stream (written by
// cohesion_run --trace-dir or a trace.mode="stream" spec) without the
// producing process: recompute the run's convergence metrics, verify them
// against a batch report, inspect the file, or render an SVG timeline.
//
//   cohesion_replay run_0.cohtrace                     # metrics, JSON on stdout
//   cohesion_replay run_0.cohtrace --check report.json # byte-compare with the
//                                                      # matching run outcome
//   cohesion_replay run_0.cohtrace --svg out.svg       # activation timeline
//
// `cohesion_replay --help` lists every flag.
//
// Metrics are recomputed by the same single-pass accumulator the run used
// (metrics::ConvergenceAccumulator), so on an untruncated stream the output
// is byte-identical to the producing run's report fields — that is the
// bit-identity contract --check enforces. A truncated stream (crashed
// writer) still replays: the reader yields exactly the committed prefix and
// the output carries "truncated": true.
//
// Exit codes: 0 success (--check: metrics match), 1 permanent failure
// (corrupt stream, fingerprint/version mismatch, --check mismatch), 2 bad
// usage, 3 transient I/O failure (unreadable input, an output not written
// in full).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/online.hpp"
#include "run/args.hpp"
#include "run/exit_codes.hpp"
#include "run/journal.hpp"
#include "run/json.hpp"
#include "run/spec.hpp"
#include "trace/stream_reader.hpp"

using namespace cohesion;

namespace {

/// Replay every committed record through the online accumulator.
struct Replayed {
  metrics::ConvergenceReport report;
  std::uint64_t records = 0;
  core::Time end_time = 0.0;
  bool truncated = false;
};

Replayed replay_metrics(trace::StreamTraceReader& reader) {
  metrics::ConvergenceAccumulator acc(reader.header().initial, reader.header().visibility_radius,
                                      reader.header().stop_epsilon);
  core::ActivationRecord rec;
  while (reader.next(rec)) acc.add(rec);
  Replayed out;
  out.records = reader.records_read();
  out.end_time = reader.end_time();
  out.truncated = reader.truncated();
  out.report = acc.finish();
  return out;
}

/// The outcome fields a batch report stores for a run, in report order —
/// shared by the replay output and the --check comparison so equality is a
/// byte-level statement about the same serialization.
run::Json report_fields_json(const metrics::ConvergenceReport& rep) {
  run::Json j = run::Json::object();
  j.set("converged", rep.converged);
  j.set("cohesive", rep.cohesive);
  j.set("initial_diameter", rep.initial_diameter);
  j.set("final_diameter", rep.final_diameter);
  j.set("rounds", rep.rounds);
  j.set("rounds_to_halve", rep.rounds_to_halve);
  j.set("activations", rep.activations);
  j.set("worst_stretch", rep.worst_stretch);
  return j;
}

/// Basename comparison lets a report produced in another directory match.
std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int check_against_report(const std::string& report_path, const std::string& stream_path,
                         const std::string& fingerprint_hex, const run::Json& recomputed) {
  const run::Json report = run::Json::parse_file(report_path);
  const run::Json* runs = report.find("runs");
  if (!runs) {
    std::cerr << "cohesion_replay: " << report_path
              << " has no \"runs\" array — not a cohesion_run report\n";
    return run::kExitPermanent;
  }
  const run::Json* match = nullptr;
  for (const run::Json& r : runs->items()) {
    const run::Json* fp = r.find("trace_fingerprint");
    const run::Json* path = r.find("trace_path");
    if (!fp || !path) continue;
    if (fp->as_string() != fingerprint_hex) continue;
    if (basename_of(path->as_string()) != basename_of(stream_path)) continue;
    match = &r;
    break;
  }
  if (!match) {
    std::cerr << "cohesion_replay: no run in " << report_path << " carries trace_path "
              << basename_of(stream_path) << " with fingerprint " << fingerprint_hex
              << " — wrong report, or the run was not executed in stream mode\n";
    return run::kExitPermanent;
  }
  bool ok = true;
  for (const auto& [key, value] : recomputed.entries()) {
    const run::Json* stored = match->find(key);
    const std::string replayed = value.dump();
    const std::string reported = stored ? stored->dump() : "<missing>";
    if (replayed != reported) {
      std::cerr << "mismatch on \"" << key << "\": replayed " << replayed << ", report says "
                << reported << "\n";
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "cohesion_replay: recomputed metrics DIVERGE from " << report_path << "\n";
    return run::kExitPermanent;
  }
  std::cout << "ok: replayed metrics byte-match run " << match->at("index").dump() << " in "
            << report_path << "\n";
  return run::kExitSuccess;
}

/// Activation timeline: one row per robot, one bar per activation from
/// t_look to t_move_end (the activity interval). Readable up to a few
/// thousand records; beyond kMaxBars the densest rows win nothing, so the
/// tool thins uniformly and says so in the footer.
int render_svg(trace::StreamTraceReader& reader, const std::string& out_path) {
  constexpr std::size_t kMaxBars = 20000;
  struct Bar {
    std::size_t robot;
    double start, mid, end;
  };
  std::vector<Bar> bars;
  core::ActivationRecord rec;
  while (reader.next(rec)) {
    bars.push_back({rec.activation.robot, rec.activation.t_look, rec.activation.t_move_start,
                    rec.activation.t_move_end});
  }
  const std::size_t total = bars.size();
  std::size_t stride = 1;
  if (total > kMaxBars) {
    stride = (total + kMaxBars - 1) / kMaxBars;
    std::vector<Bar> thinned;
    thinned.reserve(total / stride + 1);
    for (std::size_t i = 0; i < total; i += stride) thinned.push_back(bars[i]);
    bars = std::move(thinned);
  }
  const std::size_t n = reader.header().initial.size();
  const double t_max = std::max(reader.end_time(), 1e-9);

  const double width = 1200.0, row_h = std::max(2.0, std::min(16.0, 700.0 / std::max<std::size_t>(n, 1)));
  const double height = row_h * static_cast<double>(n) + 40.0;
  std::ostringstream out;
  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width << "\" height=\"" << height
      << "\" viewBox=\"0 0 " << width << " " << height << "\">\n"
      << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  const auto x_of = [&](double t) { return 10.0 + (width - 20.0) * (t / t_max); };
  for (const Bar& b : bars) {
    const double y = 10.0 + row_h * static_cast<double>(b.robot) + row_h * 0.15;
    // Compute phase (look -> move start) in light blue, move in dark blue.
    out << "<rect x=\"" << x_of(b.start) << "\" y=\"" << y << "\" width=\""
        << std::max(0.2, x_of(b.mid) - x_of(b.start)) << "\" height=\"" << row_h * 0.7
        << "\" fill=\"#9ecae1\"/>\n";
    out << "<rect x=\"" << x_of(b.mid) << "\" y=\"" << y << "\" width=\""
        << std::max(0.2, x_of(b.end) - x_of(b.mid)) << "\" height=\"" << row_h * 0.7
        << "\" fill=\"#3182bd\"/>\n";
  }
  out << "<text x=\"10\" y=\"" << height - 12.0 << "\" font-family=\"monospace\" font-size=\"12\">"
      << total << " activations, " << n << " robots, t_end=" << reader.end_time()
      << (stride > 1 ? " (every " + std::to_string(stride) + "th shown)" : "")
      << (reader.truncated() ? " [truncated stream]" : "") << "</text>\n</svg>\n";
  run::write_file(out_path, out.str());
  std::cerr << "svg written: " << out_path << " (" << bars.size() << " bars)\n";
  return run::kExitSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  std::string stream_path, check_path, svg_path, out_path, expect_fp;
  bool info = false;
  run::Args args(argc, argv, "cohesion_replay");
  args.read("--check FILE", check_path, "byte-compare the metrics with FILE's matching run");
  args.read("--expect-fingerprint HEX", expect_fp, "refuse a stream of another resolved spec");
  args.read("--info", info, "header and footer summary, no metric recompute");
  args.read("--svg FILE", svg_path, "render the activation timeline to FILE");
  args.read("--out FILE", out_path, "write the metrics to FILE instead of stdout");
  args.operand("STREAM", stream_path, "a .cohtrace activation stream");
  args.done();

  return run::run_main("cohesion_replay", [&]() -> int {
    if (!std::ifstream(stream_path)) throw run::TransientError("cannot open " + stream_path);
    trace::StreamTraceReader reader(stream_path);
    const std::string fp_hex = run::fingerprint_hex(reader.header().fingerprint);
    if (!expect_fp.empty() && expect_fp != fp_hex) {
      std::cerr << "cohesion_replay: fingerprint mismatch: stream " << stream_path
                << " was recorded by spec " << fp_hex << ", expected " << expect_fp
                << " — this stream belongs to a different resolved run\n";
      return run::kExitPermanent;
    }

    if (info) {
      run::Json j = run::Json::object();
      j.set("path", stream_path);
      j.set("fingerprint", fp_hex);
      j.set("n", reader.header().initial.size());
      j.set("visibility_radius", reader.header().visibility_radius);
      j.set("epsilon", reader.header().stop_epsilon);
      if (const auto footer = trace::StreamTraceReader::read_footer(stream_path)) {
        j.set("closed_cleanly", true);
        j.set("records", footer->total_records);
        j.set("end_time", footer->end_time);
        j.set("indexed", footer->last_index_offset != 0);
      } else {
        // No valid footer: scan forward to count the committed prefix.
        core::ActivationRecord rec;
        while (reader.next(rec)) {
        }
        j.set("closed_cleanly", false);
        j.set("records", reader.records_read());
        j.set("end_time", reader.end_time());
      }
      run::write_file("", j.dump(2) + "\n");
      return run::kExitSuccess;
    }

    if (!svg_path.empty()) return render_svg(reader, svg_path);

    const Replayed replayed = replay_metrics(reader);
    const run::Json fields = report_fields_json(replayed.report);

    if (!check_path.empty()) {
      if (replayed.truncated) {
        std::cerr << "cohesion_replay: " << stream_path
                  << " is truncated (torn tail) — its committed prefix cannot byte-match a "
                     "complete run's report\n";
        return run::kExitPermanent;
      }
      return check_against_report(check_path, stream_path, fp_hex, fields);
    }

    run::Json j = run::Json::object();
    j.set("path", stream_path);
    j.set("fingerprint", fp_hex);
    j.set("n", reader.header().initial.size());
    j.set("records", replayed.records);
    j.set("end_time", replayed.end_time);
    j.set("truncated", replayed.truncated);
    for (const auto& [k, v] : fields.entries()) j.set(k, v);
    run::write_file(out_path, j.dump(2) + "\n");
    if (!out_path.empty()) std::cerr << "replay written: " << out_path << "\n";
    return run::kExitSuccess;
  });
}
