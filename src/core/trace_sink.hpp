// The engine's trace seam: where committed activations go.
//
// The engine itself only ever needs recent trajectory segments (served by
// KinematicState); the full history exists for post-hoc analysis. TraceSink
// splits those concerns: every committed ActivationRecord is pushed through
// this interface, and the consumer decides whether to materialize it
// (core::Trace, the in-memory reference), stream it to disk
// (trace::StreamTraceWriter), fold it into online accumulators
// (trace::OnlineMetrics), or fan it out to several of these (TeeSink).
// With EngineConfig::record_history = false the engine keeps no history of
// its own, so a million-robot / billion-activation run fits in memory
// bounded by the robot count, not the activation count.
#pragma once

#include <vector>

#include "core/activation.hpp"

namespace cohesion::core {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Consume one committed activation. Records arrive in the engine's
  /// commit order (non-decreasing Look times up to the scheduler's
  /// kLookSlack) — append-only; a sink never sees a record twice.
  virtual void append(const ActivationRecord& rec) = 0;

  /// Flush/close. Called once after the last append; appending afterwards
  /// is undefined. Implementations must make it idempotent.
  virtual void finish() {}
};

/// Fan one record stream out to several sinks, in order (e.g. a stream
/// writer plus an online-metrics accumulator). Non-owning.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}

  void append(const ActivationRecord& rec) override {
    for (TraceSink* s : sinks_) s->append(rec);
  }
  void finish() override {
    for (TraceSink* s : sinks_) s->finish();
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace cohesion::core
