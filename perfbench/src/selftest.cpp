// Unit tests of the benchmark's own rules (ledger.hpp): the percentile
// rule, self-time subtraction and ledger closure. Exits non-zero on the
// first failed check. Built and run by `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "ledger.hpp"

namespace {

namespace pb = perfbench;
int g_failures = 0;

#define CHECK(cond)                                                \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, \
                   __LINE__, #cond);                               \
      ++g_failures;                                                \
    }                                                              \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_rule() {
  CHECK(pb::samples_beyond(100, 0.9) == 10);
  CHECK(pb::samples_beyond(99, 0.9) == 9);
  CHECK(pb::samples_beyond(1000, 0.5) == 500);
  CHECK(pb::samples_beyond(0, 0.9) == 0);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(near(pb::percentile(v, 0.5), 50.0));
  CHECK(near(pb::percentile(v, 0.9), 90.0));
  CHECK(near(pb::percentile(v, 1.0), 100.0));
  CHECK(near(pb::reported_percentile(v, 0.9, "v"), 90.0));

  v.pop_back();  // 99 samples: only 9 lie beyond the p90
  bool threw = false;
  try {
    pb::reported_percentile(v, 0.9, "v");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
}

pb::Span span(const char* name, double a, double b, int parent) {
  return {name, a, b, parent, 0};
}

void self_time_subtraction() {
  const std::vector<pb::Span> s = {
      span("root", 0, 10, -1),
      span("a", 1, 4, 0),
      span("b", 3, 6, 0),       // overlaps a: the union [1, 6] is covered
      span("a.child", 2, 3, 1),
      span("c", 9, 12, 0),      // runs past its parent: clipped to [9, 10]
  };
  const std::vector<double> self = pb::self_times(s);
  CHECK(near(self[0], 10.0 - 5.0 - 1.0));
  CHECK(near(self[1], 3.0 - 1.0));
  CHECK(near(self[2], 3.0));
  CHECK(near(self[3], 1.0));
  CHECK(near(self[4], 3.0));
  for (double x : self) CHECK(x >= 0.0);

  // Self times of a nested tree sum to the root's duration.
  const std::vector<pb::Span> t = {span("op", 0, 8, -1), span("engine", 1, 5, 0),
                                   span("harness.oracle", 6, 7, 0)};
  const std::vector<double> st = pb::self_times(t);
  CHECK(near(st[0] + st[1] + st[2], 8.0));
}

void ledger_closure() {
  // Phase [0, 8]: an app call [0, 5] with an engine child [1, 4], harness
  // work [5, 7], and one uncovered second [7, 8].
  const std::vector<pb::Span> s = {
      span("graph.build", -3, -1, -1),  // setup: outside the phase
      span("apps.rwr", 0, 5, -1),
      span("engine", 1, 4, 1),
      span("harness.oracle", 5, 7, -1),
  };
  const auto self = pb::self_by_name(s, 0.0, 8.0);
  CHECK(self.count("graph.build") == 0);
  CHECK(near(self.at("apps.rwr"), 2.0));
  CHECK(near(self.at("engine"), 3.0));
  const pb::Ledger l = pb::close_ledger(self, 8.0);
  CHECK(near(l.layers_s, 5.0));
  CHECK(near(l.harness_s, 2.0));
  CHECK(near(l.unattributed_s, 1.0));
  CHECK(near(l.unattributed_frac, 1.0 / 6.0));
  CHECK(near(l.layers_s + l.harness_s + l.unattributed_s, l.wall_s));

  // The recorder nests by call order and refuses an out-of-order close.
  pb::Tracer tr(true);
  const int outer = tr.open("outer", 1);
  const int inner = tr.open("inner", 1);
  tr.close(inner);
  tr.close(outer);
  CHECK(tr.spans().size() == 2);
  CHECK(tr.spans()[1].parent == outer);
  CHECK(tr.spans()[0].parent == -1);
  CHECK(tr.spans()[1].start >= tr.spans()[0].start);
  CHECK(tr.spans()[1].end <= tr.spans()[0].end);
  const int a = tr.open("a", 2);
  tr.open("b", 2);
  bool threw = false;
  try {
    tr.close(a);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  pb::Tracer off(false);
  CHECK(off.open("x", 0) == -1);
  off.close(-1);
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  percentile_rule();
  self_time_subtraction();
  ledger_closure();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
