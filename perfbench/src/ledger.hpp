// Spans, self time, the layer ledger and the percentile rule of the
// benchmark. Everything here is benchmark code: the program under test is
// only ever called, never instrumented from inside.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a call into one layer, or one piece of harness work.
struct Span {
  std::string name;  ///< layer span name, e.g. "engine" or "harness.oracle"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into the span list, -1 for a root
  long op = -1;     ///< op id the span belongs to, -1 outside any op
};

/// In-memory span recorder. Off, open/close cost one branch and no clock
/// read, so untraced runs pay nothing for the calls left in the code.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int open(const std::string& name, long op) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (!on_) return;
    if (stack_.empty() || stack_.back() != id)
      throw std::logic_error("span closed out of order");
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over one call.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, long op)
      : t_(t), id_(t.open(name, op)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children of one span are taken as the
/// union of their intervals, clipped to the parent, so overlapping or
/// out-of-parent children can never make self time negative.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
    bool have = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start);
      b = std::min(b, p.end);
      if (b <= a) continue;
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        if (have) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        have = true;
      }
    }
    if (have) covered += cur_b - cur_a;
    self[i] = std::max(0.0, (p.end - p.start) - covered);
  }
  return self;
}

/// Self time summed per span name, over the spans that start inside
/// [from, to] (one phase of the run).
inline std::map<std::string, double> self_by_name(
    const std::vector<Span>& spans, double from, double to) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].start >= from && spans[i].start <= to)
      out[spans[i].name] += self[i];
  return out;
}

/// The ledger of one traced phase: layer self times plus harness self time
/// against the phase's wall time. `unattributed` is what no span covers
/// (the benchmark's own loop bookkeeping); `unattributed_frac` states it
/// as a share of the phase's program time (wall minus harness), the
/// traced run_s.
struct Ledger {
  double wall_s = 0.0;
  double harness_s = 0.0;
  double layers_s = 0.0;
  double unattributed_s = 0.0;
  double unattributed_frac = 0.0;
};

inline bool is_harness(const std::string& name) {
  return name.rfind("harness.", 0) == 0;
}

inline Ledger close_ledger(const std::map<std::string, double>& self,
                           double wall_s) {
  Ledger l;
  l.wall_s = wall_s;
  for (const auto& [name, s] : self) (is_harness(name) ? l.harness_s
                                                       : l.layers_s) += s;
  l.unattributed_s = wall_s - l.harness_s - l.layers_s;
  const double run_s = wall_s - l.harness_s;
  l.unattributed_frac = run_s > 0.0 ? l.unattributed_s / run_s : 0.0;
  return l;
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples ranked beyond the nearest-rank q-percentile: n - ceil(q n).
/// The benchmark reports a percentile only when this is at least 10.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

inline constexpr std::size_t kMinBeyond = 10;

/// The percentile, or an exception when fewer than kMinBeyond samples lie
/// beyond it (the run is too small to state that tail).
inline double reported_percentile(const std::vector<double>& v, double q,
                                  const std::string& what) {
  if (samples_beyond(v.size(), q) < kMinBeyond)
    throw std::runtime_error(what + " has " +
                             std::to_string(v.size()) +
                             " samples, too few to report its p" +
                             std::to_string(static_cast<int>(q * 100)));
  return percentile(v, q);
}

}  // namespace perfbench
