// cohesion_sim — the general-purpose command-line simulator.
//
// A downstream user's entry point: pick an algorithm, a scheduler, an
// initial configuration and error parameters; get convergence statistics,
// an optional activation trace and an optional SVG rendering.
//
//   cohesion_sim --algo kknps --k 2 --sched kasync --n 24 --config random
//                --delta 0.05 --skew 0.1 --xi 0.5 --eps 0.05
//                --svg run.svg --trace run.cohtrace   (one command line)
//
// The flags are a thin veneer over a declarative run::RunSpec: --algo,
// --sched and --config are registry keys passed through verbatim (register
// a factory and it is immediately drivable from here), and --spec prints
// the assembled spec JSON instead of running — pipe it to `cohesion_run`
// to sweep it. --trace writes the COHTRACE activation stream that
// `cohesion_run` streams, so `cohesion_replay` recomputes the metrics,
// prints --info or renders --svg from it. Run with --help for the full flag
// list.
#include <charconv>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "metrics/stats.hpp"
#include "metrics/svg.hpp"
#include "run/instantiate.hpp"
#include "run/registry.hpp"
#include "run/spec.hpp"
#include "trace/stream_writer.hpp"

using namespace cohesion;

namespace {

struct Options {
  std::string algo = "kknps";
  std::string sched = "kasync";
  std::string config = "random";
  std::size_t n = 16;
  std::size_t k = 1;
  double v = 1.0;
  double delta = 0.0;
  double skew = 0.0;
  double motion = 0.0;
  double xi = 1.0;
  double eps = 0.05;
  double spacing = 0.9;
  std::size_t max_activations = 500000;
  std::uint64_t seed = 1;
  std::string svg_path;
  std::string trace_path;
  bool reflection = false;
  bool print_spec = false;
};

void usage() {
  const auto keys = [](const std::vector<std::string>& ks) {
    std::string out;
    for (const std::string& k : ks) out += (out.empty() ? "" : " | ") + k;
    return out;
  };
  std::cout <<
      "cohesion_sim — OBLOT point-convergence simulator\n\n"
      "  --algo   " << keys(run::algorithms().keys()) << "  (default kknps)\n"
      "  --sched  " << keys(run::schedulers().keys()) << "  (default kasync)\n"
      "  --config " << keys(run::initials().keys()) << "  (default random)\n"
      "  --n      robot count (default 16)\n"
      "  --k      asynchrony bound for kasync/knesta + kknps scaling (default 1)\n"
      "  --v      visibility radius (default 1)\n"
      "  --delta  relative distance-error bound (default 0)\n"
      "  --skew   angle-distortion skew lambda (default 0)\n"
      "  --motion quadratic motion-error coefficient (default 0)\n"
      "  --xi     minimum realized move fraction, (0,1] (default 1 = rigid)\n"
      "  --eps    convergence diameter (default 0.05)\n"
      "  --spacing initial spacing for line/grid/circle, in units of v (default 0.9)\n"
      "  --max    activation budget (default 500000)\n"
      "  --seed   master seed (default 1; component seeds are derived)\n"
      "  --svg    write an SVG rendering of the run to this path\n"
      "  --trace  write the activation trace (COHTRACE, read by cohesion_replay) to this path\n"
      "  --reflection  allow mirrored local frames (no chirality)\n"
      "  --spec   print the assembled RunSpec JSON and exit (for cohesion_run)\n";
}

bool read_value(const std::string& text, std::string& out) {
  out = text;
  return true;
}

/// Parse all of `text` into `out`: "1e3" is no robot count, "2x" no number.
template <class T>
bool read_value(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// An unknown flag or a value that does not parse in full is an error that
/// names the flag, never a silent default.
bool parse(int argc, char** argv, Options& opt) {
  const auto bind = [](auto& field) {
    return [&field](const std::string& text) { return read_value(text, field); };
  };
  const std::map<std::string, std::function<bool(const std::string&)>> flags{
      {"--algo", bind(opt.algo)},       {"--sched", bind(opt.sched)},
      {"--config", bind(opt.config)},   {"--n", bind(opt.n)},
      {"--k", bind(opt.k)},             {"--v", bind(opt.v)},
      {"--delta", bind(opt.delta)},     {"--skew", bind(opt.skew)},
      {"--motion", bind(opt.motion)},   {"--xi", bind(opt.xi)},
      {"--eps", bind(opt.eps)},         {"--spacing", bind(opt.spacing)},
      {"--max", bind(opt.max_activations)},
      {"--seed", bind(opt.seed)},       {"--svg", bind(opt.svg_path)},
      {"--trace", bind(opt.trace_path)},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") return false;
    if (key == "--reflection") {
      opt.reflection = true;
      continue;
    }
    if (key == "--spec") {
      opt.print_spec = true;
      continue;
    }
    const auto flag = flags.find(key);
    if (flag == flags.end()) {
      std::cerr << "cohesion_sim: unknown flag " << key << "\n";
      return false;
    }
    if (i + 1 >= argc) {
      std::cerr << "cohesion_sim: " << key << " needs a value\n";
      return false;
    }
    if (!flag->second(argv[++i])) {
      std::cerr << "cohesion_sim: bad value for " << key << ": " << argv[i] << "\n";
      return false;
    }
  }
  return true;
}

/// Map the flags onto a declarative spec; all component construction is
/// registry lookups from here on.
run::RunSpec build_spec(const Options& opt) {
  run::RunSpec spec;
  spec.name = "cohesion_sim";
  spec.n = opt.n;
  spec.seed = opt.seed;
  spec.visibility_radius = opt.v;

  spec.algorithm.type = opt.algo;
  if (opt.algo == "kknps") {
    spec.algorithm.params.set("k", opt.k);
    spec.algorithm.params.set("distance_delta", opt.delta);
  } else if (opt.algo == "kknps3d") {
    spec.algorithm.params.set("k", opt.k);
  } else if (opt.algo == "ando") {
    spec.algorithm.params.set("v", opt.v);
  }

  spec.scheduler.type = opt.sched;
  if (opt.sched == "kasync" || opt.sched == "knesta") spec.scheduler.params.set("k", opt.k);
  if (opt.sched != "fsync") spec.scheduler.params.set("xi", opt.xi);

  spec.error.type = "noisy";
  spec.error.params.set("distance_delta", opt.delta);
  spec.error.params.set("skew_lambda", opt.skew);
  spec.error.params.set("motion_quad_coeff", opt.motion);
  spec.error.params.set("allow_reflection", opt.reflection);

  spec.initial.type = opt.config;
  if (opt.config == "line" || opt.config == "grid") {
    spec.initial.params.set("spacing", opt.spacing);
  } else if (opt.config == "circle") {
    spec.initial.params.set("side", opt.spacing);
  }

  spec.stop.epsilon = opt.eps;
  spec.stop.max_activations = opt.max_activations;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }

  try {
    const run::RunSpec spec = build_spec(opt);
    if (opt.print_spec) {
      std::cout << spec.to_json().dump(2) << "\n";
      return 0;
    }

    run::RunInstance inst = run::instantiate(spec);
    const bool converged = inst.engine->run_until(spec.stop);
    const auto report = metrics::analyze(inst.engine->trace(), opt.v, opt.eps);

    std::cout << "algorithm:         " << inst.algorithm->name() << "\n"
              << "scheduler:         " << inst.scheduler->name() << " (k=" << opt.k << ")\n"
              << "robots:            " << inst.initial.size() << "\n"
              << "converged:         " << (converged ? "yes" : "no") << "\n"
              << "initial diameter:  " << report.initial_diameter << "\n"
              << "final diameter:    " << report.final_diameter << "\n"
              << "rounds:            " << report.rounds << "\n"
              << "rounds to halve:   " << report.rounds_to_halve << "\n"
              << "activations:       " << report.activations << "\n"
              << "cohesive:          " << (report.cohesive ? "yes" : "NO") << "\n"
              << "worst stretch / V: " << report.worst_stretch << "\n";

    if (!opt.svg_path.empty()) {
      metrics::write_svg(opt.svg_path, metrics::render_trace(inst.engine->trace(), opt.v));
      std::cout << "svg written:       " << opt.svg_path << "\n";
    }
    if (!opt.trace_path.empty()) {
      trace::StreamHeader header;
      header.fingerprint = run::spec_fingerprint(spec);
      header.initial = inst.initial;
      header.visibility_radius = spec.visibility_radius;
      header.stop_epsilon = spec.stop.epsilon;
      trace::StreamTraceWriter writer(opt.trace_path, std::move(header));
      for (const core::ActivationRecord& rec : inst.engine->trace().records()) writer.append(rec);
      writer.finish();
      std::cout << "trace written:     " << opt.trace_path << "\n";
    }
    return converged ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "cohesion_sim: " << e.what() << "\n";
    return 2;
  }
}
