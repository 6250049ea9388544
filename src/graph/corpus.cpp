#include "graph/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/planes.hpp"
#include "graph/powerlaw.hpp"

namespace acsr::graph {

using mat::index_t;
using mat::offset_t;

const std::vector<CorpusEntry>& table1_corpus() {
  // {name, abbrev, rows, cols, mu, sigma, max, alpha, hub_fraction, pl}
  static const std::vector<CorpusEntry> corpus = {
      {"amazon-2008", "AMZ", 735323, 735323, 7.7, 4.7, 10, -1.0, 0.15, false},
      {"cnr-2000", "CNR", 845279, 845279, 10.2, 7.8, 2216, 1.9, 0.30, true},
      {"dblp-2010", "DBL", 326186, 326186, 5.8, 5.3, 238, 2.2, 0.20, true},
      {"enron", "ENR", 69244, 69244, 4.7, 28.0, 1392, 1.45, 0.35, true},
      {"eu-2005", "EU2", 862664, 862664, 22.7, 29.0, 6985, 1.8, 0.30, true},
      {"flickr", "FLI", 1846198, 1846198, 12.0, 101.0, 2615, 1.55, 0.40, true},
      {"hollywood-2009", "HOL", 1139905, 1139905, 100.0, 272.0, 11468, 1.7,
       0.35, true},
      {"in-2004", "IN2", 1382908, 1382908, 12.0, 37.0, 7753, 1.8, 0.30, true},
      {"indochina-2004", "IND", 7414866, 7414866, 26.0, 216.0, 6985, 1.65,
       0.35, true},
      {"internet", "INT", 65550, 65550, 2.7, 24.0, 693, 1.4, 0.35, true},
      {"livejournal", "LIV", 4847571, 4847571, 13.0, 22.0, 9186, 1.75, 0.35,
       true},
      {"ljournal-2008", "LJ2", 5363260, 5363260, 15.0, 37.0, 2469, 1.8, 0.35,
       true},
      {"uk-2002", "UK2", 18520486, 18520486, 16.0, 27.0, 2450, 1.85, 0.30,
       true},
      {"wikipedia", "WIK", 1315907, 1315907, 15.4, 42.0, 20975, 1.55, 0.40,
       true},
      {"youtube", "YOT", 1157828, 1157828, 4.7, 48.0, 2894, 1.5, 0.40, true},
      {"webbase-1M", "WEB", 1000005, 1000005, 3.1, 25.0, 4700, 1.35, 0.30,
       true},
      // Rectangular LP-style matrix; wide dense-ish rows, not power-law.
      {"rail4284", "RAL", 4284, 1096894, 2633.0, 2409.0, 56181, -1.0, 0.10,
       false},
  };
  return corpus;
}

const CorpusEntry& corpus_entry(const std::string& abbrev) {
  for (const auto& e : table1_corpus())
    if (e.abbrev == abbrev || e.name == abbrev) return e;
  ACSR_REQUIRE(false, "unknown corpus matrix '" << abbrev << "'");
}

long long default_scale() {
  const std::string& v = planes().scale;
  if (v.empty()) return 64;
  const std::optional<long long> s = parse_exact<long long>(v.c_str());
  ACSR_REQUIRE(s && *s >= 1,
               "ACSR_SCALE='" << v << "' is not a positive integer");
  return *s;
}

mat::Csr<double> build_matrix(const CorpusEntry& e, long long scale,
                              std::uint64_t seed) {
  ACSR_REQUIRE(scale >= 1, "scale must be >= 1");
  PowerLawSpec s;
  s.rows = static_cast<index_t>(
      std::max<long long>(64, e.paper_rows / scale));
  s.cols = static_cast<index_t>(
      std::max<long long>(64, e.paper_cols / scale));
  s.mean_nnz_per_row = e.paper_mu;
  s.alpha = e.alpha;
  s.hub_fraction = e.hub_fraction;
  // Long tail shrinks with cbrt(scale): stays >> mu at every scale.
  const double max_scaled =
      static_cast<double>(e.paper_max) / std::cbrt(static_cast<double>(scale));
  s.max_row_nnz = static_cast<offset_t>(std::max(
      8.0, std::min(max_scaled, 0.8 * static_cast<double>(s.cols))));
  s.tail_rows = e.power_law ? 3 : 0;
  // Per-matrix seed so the corpus is deterministic yet decorrelated.
  std::uint64_t h = seed;
  for (char c : e.abbrev) h = h * 1099511628211ULL + static_cast<std::uint64_t>(c);
  s.seed = h;
  return powerlaw_matrix(s);
}

}  // namespace acsr::graph
