// Static kernel verifier (src/analysis, docs/ANALYSIS.md):
//  - every engine's kernels verify clean on every Table II device spec
//    (the clean-verify matrix this suite pins as a regression),
//  - every planted defect in the corpus (mirroring the dynamic sanitizer's
//    defect classes in test_sanitizer.cpp) is flagged *statically* with
//    the right violation kind and kernel/expression attribution,
//  - the ACSR_VERIFY factory gate builds verified engines and stays
//    disabled (one plane-table branch) by default.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/interpreter.hpp"
#include "analysis/models.hpp"
#include "analysis/verify.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"

namespace {

using acsr::analysis::all_defect_cases;
using acsr::analysis::all_engine_names;
using acsr::analysis::run_defect;
using acsr::analysis::verify_engine;
using acsr::analysis::Violation;
using acsr::analysis::ViolationKind;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;

const std::vector<std::string>& device_keys() {
  static const std::vector<std::string> keys = {"gtx580", "k10", "titan"};
  return keys;
}

std::string render(const std::vector<Violation>& vs) {
  std::string s;
  for (const Violation& v : vs) s += "\n  " + v.str();
  return s;
}

// --- the clean-verify matrix -------------------------------------------------

TEST(StaticVerify, EveryEngineProvesCleanOnEverySpec) {
  for (const std::string& e : all_engine_names()) {
    for (const std::string& d : device_keys()) {
      const auto vs = verify_engine(e, DeviceSpec::by_name(d));
      EXPECT_TRUE(vs.empty())
          << e << " on " << d << " failed verification:" << render(vs);
    }
  }
}

TEST(StaticVerify, CusparseAliasSharesTheCsrModel) {
  EXPECT_TRUE(acsr::analysis::knows_engine("csr-cusparse"));
  const auto vs = verify_engine("csr-cusparse", DeviceSpec::gtx_titan());
  EXPECT_TRUE(vs.empty()) << render(vs);
}

// Regression pin (satellite: no engine silently drops out of the proof
// matrix): the registry covers all 15 factory names and the factory's
// known-name list stays in sync with the verifier's.
TEST(StaticVerify, EngineRegistryIsPinned) {
  const std::vector<std::string> expected = {
      "csr-scalar", "csr-vector", "csr",  "ell",       "coo",
      "hyb",        "brc",        "bccoo", "tcoo",      "sic",
      "merge-csr",  "sell",       "bcsr",  "acsr",      "acsr-binning",
      "ooc-csr"};
  EXPECT_EQ(all_engine_names(), expected);
  EXPECT_FALSE(acsr::analysis::knows_engine("no-such-engine"));
}

// The DP-capability gate: acsr's child-launch leg only runs where the
// device supports dynamic parallelism, so the *same* engine model proves
// clean on Fermi (no DP leg) and on Titan (with it). acsr-binning never
// takes the DP leg anywhere.
TEST(StaticVerify, AcsrDpLegFollowsDeviceCapability) {
  for (const char* name : {"acsr", "acsr-binning"}) {
    for (const std::string& d : device_keys()) {
      const auto vs = verify_engine(name, DeviceSpec::by_name(d));
      EXPECT_TRUE(vs.empty()) << name << " on " << d << render(vs);
    }
  }
}

// --- the defect corpus -------------------------------------------------------

TEST(StaticVerify, EveryPlantedDefectIsFlaggedWithItsKind) {
  for (const auto& d : all_defect_cases()) {
    const auto vs = run_defect(d.name);
    bool hit = false;
    for (const Violation& v : vs) hit = hit || v.kind == d.expected;
    EXPECT_TRUE(hit) << d.name << " expected "
                     << acsr::analysis::violation_kind_name(d.expected)
                     << " but got:" << render(vs);
  }
}

// Regression pin: the corpus keeps covering every statically-checkable
// defect class of the dynamic sanitizer (the free family — double-free,
// use-after-free — is dynamic-only; see docs/ANALYSIS.md).
TEST(StaticVerify, DefectCorpusIsPinned) {
  const auto& cases = all_defect_cases();
  ASSERT_EQ(cases.size(), 13u);
  bool seen[8] = {};
  for (const auto& d : cases) seen[static_cast<int>(d.expected)] = true;
  // All eight violation kinds are exercised by at least one defect.
  for (int k = 0; k < 8; ++k)
    EXPECT_TRUE(seen[k]) << acsr::analysis::violation_kind_name(
        static_cast<ViolationKind>(k));
}

TEST(StaticVerify, ViolationsCarryKernelAndExpressionAttribution) {
  const auto vs = run_defect("oob-load");
  ASSERT_FALSE(vs.empty());
  for (const Violation& v : vs) {
    EXPECT_EQ(v.kernel, "oob_load");
    EXPECT_FALSE(v.expr.empty());
    EXPECT_FALSE(v.detail.empty());
    EXPECT_EQ(v.device, DeviceSpec::gtx_titan().name);
    EXPECT_NE(v.str().find("oob_load"), std::string::npos);
  }
}

TEST(StaticVerify, DpOnFermiIsRejectedButFineOnTitan) {
  const auto vs = run_defect("dp-on-fermi");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, ViolationKind::kDynamicParallelism);
  // The same launch structure on a CC 3.5 device is legal — that is
  // exactly acsr's DP leg, already proven clean above.
}

// --- the ACSR_VERIFY factory gate --------------------------------------------

class VerifyGateTest : public ::testing::Test {
 protected:
  void SetUp() override { acsr::set_plane(&acsr::Planes::verify, true); }
  void TearDown() override {
    acsr::set_plane(&acsr::Planes::verify, false);
  }

  static acsr::mat::Csr<double> small_matrix() {
    acsr::graph::PowerLawSpec s;
    s.rows = 120;
    s.cols = 120;
    s.mean_nnz_per_row = 6.0;
    s.alpha = 1.5;
    s.max_row_nnz = 60;
    s.seed = 7;
    return acsr::graph::powerlaw_matrix(s);
  }
};

TEST_F(VerifyGateTest, FactoryBuildsVerifiedEnginesUnderTheGate) {
  const auto a = small_matrix();
  Device dev(DeviceSpec::gtx_titan());
  for (const std::string& e : all_engine_names()) {
    EXPECT_NO_THROW({
      auto eng = acsr::core::make_engine<double>(e, dev, a);
      ASSERT_NE(eng, nullptr);
    }) << e;
  }
}

TEST_F(VerifyGateTest, UnknownEnginesStillFailInTheFactoryNotTheGate) {
  const auto a = small_matrix();
  Device dev(DeviceSpec::gtx_titan());
  EXPECT_THROW(acsr::core::make_engine<double>("no-such-engine", dev, a),
               acsr::InputError);
}

TEST(VerifyGate, DisabledByDefaultWhenEnvUnset) {
  // The harness runs without ACSR_VERIFY set; the verify row must then
  // be off (zero-cost path) unless a test flipped it explicitly.
  EXPECT_FALSE(acsr::analysis::verify_enabled());
}

TEST(VerifyGate, OrThrowListsEveryViolation) {
  // Unknown names pass through silently (the factory reports them).
  EXPECT_NO_THROW(acsr::analysis::verify_engine_or_throw(
      "no-such-engine", DeviceSpec::gtx_titan()));
  // Clean engines pass.
  EXPECT_NO_THROW(acsr::analysis::verify_engine_or_throw(
      "acsr", DeviceSpec::gtx_titan()));
}

}  // namespace
