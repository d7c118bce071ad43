// E10 — ablation of the 1/k scaling (§3.2): run the motion function with
// scaling alpha = 1/k_algo under a k_sched-Async scheduler and measure how
// much of the close-pair safety margin is consumed.
//
// Geometry of the risk: once a neighbour is *distant* (> V_Y/2), the
// tangent safe disk makes every move weakly approach it — separation of a
// distant pair never grows. All separation risk sits with *close* pairs
// (<= V/2): a close neighbour is ignored, so a robot may move V_Y/(8k)
// straight away from it, and an adversary can nest k such moves inside one
// activity interval. The paper's margin argument (§3.2.1 note (i)) is that
// scaled moves keep the total close-pair growth below V/2 + V/4; unscaled
// motion under deep asynchrony eats multiples of that budget.
//
// We therefore measure, on a zig-zag chain with spacing at the close/
// distant boundary plus opposed anchors, the maximum separation ever
// reached by an initially close pair (growth above V/2 consumes margin;
// crossing V breaks visibility that cohesion may later need).
//
// Declarative form: the zig-zag chain registers as a bespoke
// "boundary_chain" initial-configuration factory, each (k_sched, variant)
// cell is a RunSpec (the "safe" column couples algo k to k_sched, which
// makes the grid irregular — so the cells are expanded explicitly and
// handed to run::BatchRunner as a run list), and the margin metric is a
// trace-metric hook.
#include <iostream>
#include <thread>

#include "core/engine.hpp"
#include "metrics/table.hpp"
#include "run/batch_runner.hpp"
#include "run/registry.hpp"

using namespace cohesion;
using geom::Vec2;

namespace {

/// Zig-zag chain with spacing around V/2 (the close/distant boundary) and
/// two far anchors that pull the ends apart.
std::vector<Vec2> boundary_chain() {
  std::vector<Vec2> pts;
  const double s = 0.48;
  for (int i = 0; i < 8; ++i) {
    // Adjacent pairs at distance ~0.49 < V/2: close neighbours, which the
    // destination rule ignores — the margin-consuming regime.
    pts.push_back({s * i, (i % 2 == 0) ? 0.0 : 0.1});
  }
  // Opposed anchors just inside visibility of the chain ends.
  const Vec2 first = pts.front();
  const Vec2 last = pts.back();
  pts.push_back(first + Vec2{-0.97, 0.1});
  pts.push_back(last + Vec2{0.97, -0.1});
  return pts;
}

/// Max separation ever reached by a pair that starts closer than V/2.
double worst_close_pair_growth(const run::RunSpec&, const core::Engine& engine) {
  const auto& trace = engine.trace();
  const auto& initial = trace.initial_configuration();
  const std::size_t n = initial.size();
  double worst = 0.0;
  for (double t = 0.0; t <= trace.end_time() + 1.0; t += 0.5) {
    const auto c = trace.configuration(t);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (initial[i].distance_to(initial[j]) <= 0.5 + 1e-12) {
          worst = std::max(worst, c[i].distance_to(c[j]));
        }
      }
    }
  }
  return worst;
}

/// One cell of the (k_sched x algorithm-variant) grid.
run::RunSpec cell_spec(std::size_t k_sched, const std::string& algo_type, std::size_t algo_k) {
  run::RunSpec spec;
  spec.name = "e10";
  spec.initial.type = "boundary_chain";
  spec.algorithm.type = algo_type;
  if (algo_type == "kknps") spec.algorithm.params.set("k", algo_k);
  spec.scheduler.type = "kasync";
  spec.scheduler.params.set("k", k_sched);
  spec.scheduler.params.set("min_duration", 1.0);
  spec.scheduler.params.set("max_duration", 8.0);
  spec.scheduler.params.set("xi", 0.3);
  spec.stop.epsilon = -1.0;  // fixed-length run: no convergence stop
  spec.stop.max_activations = 12000;
  return spec;
}

}  // namespace

int main() {
  // Bespoke initial configurations plug into the same registry the
  // built-ins use; every spec below names it by key.
  run::initials().add("boundary_chain",
                      [](std::size_t, double, std::uint64_t, const run::Json&) {
                        return boundary_chain();
                      });

  std::cout << "E10 — 1/k scaling ablation: worst close-pair separation ever reached\n"
            << "(V = 1; pairs start <= V/2; crossing 1 would break visibility)\n\n";

  // Irregular grid: the "safe" column sets algo_k = k_sched.
  const std::size_t k_scheds[] = {1, 2, 4, 8};
  constexpr std::size_t kSeedsPerCell = 8;
  std::vector<run::ExpandedRun> runs;
  std::size_t variant = 0;
  for (const std::size_t ks : k_scheds) {
    std::vector<std::pair<std::string, run::RunSpec>> row;
    for (const std::size_t ak : {1u, 2u, 4u, 8u}) {
      row.emplace_back("algo_k=" + std::to_string(ak), cell_spec(ks, "kknps", ak));
    }
    row.emplace_back("algo_k=k_sched", cell_spec(ks, "kknps", ks));
    row.emplace_back("katreniak", cell_spec(ks, "katreniak", 0));
    for (auto& [label, spec] : row) {
      for (std::size_t r = 0; r < kSeedsPerCell; ++r) {
        run::ExpandedRun er;
        er.spec = spec;
        er.index = runs.size();
        er.variant = variant;
        er.repeat = r;
        er.label = "k_sched=" + std::to_string(ks) + "," + label;
        er.spec.seed = run::derive_seeds(/*experiment_seed=*/10, er.index).run;
        runs.push_back(std::move(er));
      }
      ++variant;
    }
  }

  run::BatchRunner::Options options;
  options.threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  options.trace_metric = worst_close_pair_growth;
  const run::BatchResult result = run::BatchRunner(options).run(runs);
  const auto cells = run::BatchRunner::aggregate_by_variant(result.outcomes);

  metrics::Table table({"k_sched", "algo_k=1", "algo_k=2", "algo_k=4", "algo_k=8",
                        "algo_k=k_sched_safe", "katreniak"});
  for (std::size_t row = 0; row < 4; ++row) {
    const auto worst = [&](std::size_t col) { return cells[row * 6 + col].max_custom; };
    table.add_row(k_scheds[row], worst(0), worst(1), worst(2), worst(3), worst(4), worst(5));
  }
  table.print();
  std::cout << "\n(" << runs.size() << " runs, " << result.threads << " threads, "
            << result.wall_seconds << " s)\n";

  std::cout << "\nMeasured shape (and why): KKNPS close-pair growth is self-limiting\n"
            << "for EVERY scaling: once a pair's separation passes V_Y/2 both see each\n"
            << "other as distant, and the tangent safe disk makes all further moves\n"
            << "weakly approaching — growth caps near V/2 + V/4 regardless of k. That\n"
            << "structural margin is what Theorem 4's k_algo >= k_sched guarantee rests\n"
            << "on. Katreniak's larger two-disk regions permit visibly more close-pair\n"
            << "growth (cf. the paper's remark (iii) in §3.1 that his algorithm fails\n"
            << "for sufficiently large k).\n";

  return 0;
}
