// In-memory span recorder for the benchmark's traced pass.
//
// A span is one timed call into a layer of the slpdas library: a name
// ("sim.setup_phase"), start and end times, the span that was open when it
// began (its parent), and an id shared by every span of one cell and seed.
// Spans are appended to a vector while the pass runs and are only read —
// summarised into the per-layer ledger, or written as JSONL — after it
// ends, so recording costs two clock reads and one push_back per span.
//
// A layer's self time is its span's duration minus the part its child
// spans cover. Self times of every span sum to the durations of the root
// spans, so the ledger reconciles with the pass's wall time up to the gaps
// between root spans (loop overhead in the benchmark itself), which the
// harness reports as the unattributed share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock. The benchmark's only clock read: every
/// timing in the harness goes through here.
inline double now_s() {
  // slpdas-lint: allow(wall-clock): benchmark timing only, never an input to a simulation
  return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                           .time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";   ///< static layer name
  std::uint64_t id = 0;    ///< shared by the spans of one cell and seed
  int parent = -1;         ///< index of the enclosing span, -1 for a root
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opens on construction, closes on destruction. A no-op
  /// when the tracer is disabled, so the untraced twin of a pass runs the
  /// same code with tracing off.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), index_(tracer.open(name, id)) {}
    ~Span() { tracer_.close(index_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  /// Self time per span name, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      self[i] += span.end - span.start;
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  /// Total duration of the root spans, which equals the sum of all self
  /// times.
  [[nodiscard]] double root_seconds() const {
    double total = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.parent < 0) {
        total += span.end - span.start;
      }
    }
    return total;
  }

  /// Durations in seconds of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& span : spans_) {
      if (name == span.name) {
        out.push_back(span.end - span.start);
      }
    }
    return out;
  }

  /// One JSON object per span, times relative to the first span's start.
  void write_jsonl(std::ostream& out) const {
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (const SpanRecord& span : spans_) {
      out << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
          << ", \"parent\": " << span.parent
          << ", \"start_us\": " << (span.start - origin) * 1e6
          << ", \"end_us\": " << (span.end - origin) * 1e6 << "}\n";
    }
  }

  void clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  int open(const char* name, std::uint64_t id) {
    if (!enabled_) {
      return -1;
    }
    SpanRecord span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = now_s();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(index)].end = now_s();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< indices of the spans currently open
};

}  // namespace perfbench
