#include "ledger.h"

#include <algorithm>
#include <cstdio>

namespace pipebench {

LayerTotals& Totals::at(std::string_view layer) {
  for (auto& [name, t] : entries_)
    if (name == layer) return t;
  entries_.emplace_back(layer, LayerTotals{});
  return entries_.back().second;
}

LayerTotals Totals::get(std::string_view layer) const {
  for (const auto& [name, t] : entries_)
    if (name == layer) return t;
  return {};
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& batch) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      batch.size());
  for (const SpanRecord& s : batch)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::uint64_t> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t lo = batch[i].start_ns;
    const std::uint64_t hi = std::max(lo, batch[i].end_ns);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to [lo, hi].
    std::uint64_t covered = 0;
    std::uint64_t reach = lo;
    for (const auto& [a, b] : iv) {
      const std::uint64_t from = std::max(a, reach);
      const std::uint64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

void fold(const std::vector<SpanRecord>& batch, Totals& totals) {
  const std::vector<std::uint64_t> self = self_times(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    LayerTotals& t = totals.at(batch[i].layer);
    t.count += 1;
    t.total_ns += batch[i].end_ns - batch[i].start_ns;
    t.self_ns += self[i];
  }
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

Ledger::Ledger(std::size_t sample_batches)
    : epoch_(Clock::now()), sample_batches_(sample_batches) {}

int Ledger::open(const char* layer) {
  SpanRecord s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.start_ns = now_ns();
  batch_.push_back(s);
  const int index = static_cast<int>(batch_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Ledger::close(int index) {
  batch_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

void Ledger::end_batch() {
  fold(batch_, totals_);
  if (sample_.size() < sample_batches_) sample_.push_back(batch_);
  batch_.clear();
}

std::string Ledger::spans_json() const {
  std::string out = "[";
  char buf[256];
  bool first = true;
  for (std::size_t b = 0; b < sample_.size(); ++b) {
    for (const SpanRecord& s : sample_[b]) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"batch\":%zu,\"name\":\"%s\",\"run\":%u,"
                    "\"parent\":%d,\"start_ns\":%llu,\"end_ns\":%llu}",
                    first ? "" : ",", b, s.layer, s.run, s.parent,
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.end_ns));
      out += buf;
      first = false;
    }
  }
  out += "\n]";
  return out;
}

}  // namespace pipebench
