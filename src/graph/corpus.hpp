// The Table-I evaluation corpus.
//
// Each entry records the paper-scale characteristics (rows, cols, mu, max
// row length, power-law or not) of one UF Sparse Matrix Collection matrix
// and the generator parameters that reproduce its row-length shape
// synthetically. build_matrix() constructs the matrix at a reduced scale
// (default ACSR_SCALE = 64): rows and nnz shrink by `scale`, mu is
// preserved, and the max row length shrinks by cbrt(scale) so the long
// tail stays much longer than the mean — the property ACSR exploits.
//
// Where the paper's Table I is internally inconsistent (OCR noise in the
// source text), we honour rows and mu and derive nnz = mu * rows; the
// deviations are recorded in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mat/csr.hpp"

namespace acsr::graph {

struct CorpusEntry {
  std::string name;    // UF collection name
  std::string abbrev;  // the paper's abbreviation
  // Paper-scale characteristics (Table I).
  mat::index_t paper_rows;
  mat::index_t paper_cols;
  double paper_mu;
  double paper_sigma;
  mat::offset_t paper_max;
  // Generator shape parameters.
  double alpha;         // <= 0 selects the uniform (non-power-law) model
  double hub_fraction;
  bool power_law;
};

/// All 17 matrices of Table I, in paper order.
const std::vector<CorpusEntry>& table1_corpus();

/// Look up by abbreviation (AMZ, CNR, ... RAL); throws InputError if absent.
const CorpusEntry& corpus_entry(const std::string& abbrev);

/// Build the synthetic stand-in at 1/scale of paper size.
mat::Csr<double> build_matrix(const CorpusEntry& e, long long scale,
                              std::uint64_t seed = 42);

/// Default scale: the ACSR_SCALE environment variable, else 64. Throws
/// InputError when ACSR_SCALE is set but not a whole positive integer.
long long default_scale();

}  // namespace acsr::graph
