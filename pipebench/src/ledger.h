#pragma once
// The benchmark's own tracing: spans recorded around calls into the
// library's public functions, never inside them.
//
// A span has a layer name, a start and end time, the span that caused it
// (its parent) and the id of the run it belongs to. Spans are buffered per
// batch (one construction stage sequence, or one routing round) and folded
// into per-layer count, total and self time when the batch closes; a
// batch's full spans are kept only while the bounded sample has room.
// Everything stays in memory until the caller writes it out at the end.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct SpanRecord {
  const char* layer = "";      ///< a string literal naming the layer
  std::uint64_t start_ns = 0;  ///< relative to the ledger's epoch
  std::uint64_t end_ns = 0;
  int parent = -1;             ///< index within the same batch, -1 = root
  std::uint32_t run = 0;
};

struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  ///< total minus the time its children cover
};

/// Per-layer totals in first-seen order (a dozen layers: a flat scan beats
/// a map on the per-round path).
class Totals {
 public:
  LayerTotals& at(std::string_view layer);
  /// Zeros if the layer never ran.
  LayerTotals get(std::string_view layer) const;

 private:
  std::vector<std::pair<std::string_view, LayerTotals>> entries_;
};

/// Self time of each span in a batch: its duration minus the union of its
/// children's intervals, clipped to its own interval. Children may overlap
/// each other or stick out of their parent; both are handled.
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& batch);

/// Add a batch's spans into per-layer totals.
void fold(const std::vector<SpanRecord>& batch, Totals& totals);

/// Nearest-rank percentile (q in (0, 1]) of `values`; reorders them.
/// Returns 0 for an empty input.
template <typename T>
double percentile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, values.size());
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(values.begin(), nth, values.end());
  return static_cast<double>(*nth);
}

/// Median (the nearest-rank 50th percentile) of a copy of `values`.
double median(std::vector<double> values);

class Ledger {
 public:
  /// Keep the full spans of at most `sample_batches` batches.
  explicit Ledger(std::size_t sample_batches);

  void set_run(std::uint32_t run) { run_ = run; }

  /// Open a span under the innermost open one; returns its batch index.
  int open(const char* layer);
  void close(int index);

  /// Fold the current batch into the totals (keeping it if the sample has
  /// room) and start a new one. Every span must be closed.
  void end_batch();

  const Totals& totals() const { return totals_; }
  const std::vector<std::vector<SpanRecord>>& sample() const {
    return sample_;
  }

  /// All sampled spans as a JSON array.
  std::string spans_json() const;

 private:
  std::uint64_t now_ns() const { return ns_between(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::size_t sample_batches_;
  std::uint32_t run_ = 0;
  std::vector<SpanRecord> batch_;
  std::vector<int> open_;
  Totals totals_;
  std::vector<std::vector<SpanRecord>> sample_;
};

/// RAII span on an optional ledger: a null ledger records nothing, so the
/// untraced run pays one branch per call site.
class Scope {
 public:
  Scope(Ledger* ledger, const char* layer)
      : ledger_(ledger), index_(ledger ? ledger->open(layer) : -1) {}
  ~Scope() {
    if (ledger_) ledger_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
  int index_;
};

}  // namespace pipebench
