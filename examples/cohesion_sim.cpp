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
// prints --info or renders --svg from it. `cohesion_sim --help` lists every
// flag with its default.
#include <iostream>
#include <string>
#include <vector>

#include "metrics/stats.hpp"
#include "metrics/svg.hpp"
#include "run/args.hpp"
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

/// Every flag is declared here; an unknown flag or a value that does not
/// parse in full exits 2 naming the flag, never a silent default.
void parse(int argc, char** argv, Options& opt) {
  const auto keys = [](const char* what, const std::vector<std::string>& ks) {
    std::string out = what;
    for (std::size_t i = 0; i < ks.size(); ++i) out += (i == 0 ? ": " : " | ") + ks[i];
    return out;
  };
  const std::string algos = keys("algorithm", run::algorithms().keys());
  const std::string scheds = keys("scheduler", run::schedulers().keys());
  const std::string configs = keys("initial configuration", run::initials().keys());
  run::Args args(argc, argv, "cohesion_sim");
  args.read("--algo KEY", opt.algo, algos);
  args.read("--sched KEY", opt.sched, scheds);
  args.read("--config KEY", opt.config, configs);
  args.read("--n N", opt.n, "robot count");
  args.read("--k K", opt.k, "asynchrony bound for kasync/knesta + kknps scaling");
  args.read("--v V", opt.v, "visibility radius");
  args.read("--delta X", opt.delta, "relative distance-error bound");
  args.read("--skew X", opt.skew, "angle-distortion skew lambda");
  args.read("--motion X", opt.motion, "quadratic motion-error coefficient");
  args.read("--xi X", opt.xi, "minimum realized move fraction in (0,1], 1 = rigid");
  args.read("--eps X", opt.eps, "convergence diameter");
  args.read("--spacing X", opt.spacing, "initial spacing for line/grid/circle, in units of v");
  args.read("--max N", opt.max_activations, "activation budget");
  args.read("--seed N", opt.seed, "master seed (component seeds are derived)");
  args.read("--svg FILE", opt.svg_path, "write an SVG rendering of the run to FILE");
  args.read("--trace FILE", opt.trace_path, "write the COHTRACE activation stream to FILE");
  args.read("--reflection", opt.reflection, "allow mirrored local frames (no chirality)");
  args.read("--spec", opt.print_spec, "print the assembled RunSpec JSON and exit");
  args.done();
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
  parse(argc, argv, opt);

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
