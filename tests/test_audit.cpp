// The audit tier (docs/ANALYSIS.md): event-graph charge/causality
// domain, token-level source passes, the seeded defect corpora
// (zero-false-negative pins), and the real-tree proofs the CI gate
// relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/audit_passes.hpp"
#include "analysis/charge_models.hpp"
#include "analysis/event_graph.hpp"
#include "analysis/models.hpp"
#include "analysis/source_model.hpp"
#include "common/json.hpp"
#include "core/engine_registry.hpp"
#include "vgpu/device_spec.hpp"

#ifndef ACSR_SOURCE_DIR
#define ACSR_SOURCE_DIR "."
#endif

namespace {

using namespace acsr;
using analysis::AuditFinding;
using analysis::AuditKind;

bool has_kind(const std::vector<AuditFinding>& fs, AuditKind k) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const AuditFinding& f) { return f.kind == k; });
}

// --- ChargeGraph domain ------------------------------------------------

TEST(ChargeGraph, CleanPipelineHasNoFindings) {
  analysis::ChargeGraph g;
  const auto h2d = g.stream("h2d");
  const auto compute = g.stream("compute");
  g.declare_work("upload", "x upload");
  g.charge(h2d, "upload");
  g.record(h2d, "up");
  g.wait(compute, "up");
  g.declare_work("spmv", "the kernel");
  g.charge(compute, "spmv");
  EXPECT_TRUE(g.audit("t").empty());
}

TEST(ChargeGraph, FreeWorkAndDoubleChargeAreParityViolations) {
  analysis::ChargeGraph g;
  const auto s = g.stream("s");
  g.declare_work("never", "uncharged work");
  g.declare_work("twice", "double-charged work");
  g.charge(s, "twice");
  g.charge(s, "twice");
  const auto fs = g.audit("t");
  EXPECT_TRUE(has_kind(fs, AuditKind::kFreeWork));
  EXPECT_TRUE(has_kind(fs, AuditKind::kDoubleCharge));
}

TEST(ChargeGraph, WaitBeforeRecordIsInversionWaitNeverRecordedIsDangling) {
  analysis::ChargeGraph g;
  const auto a = g.stream("a");
  const auto b = g.stream("b");
  g.wait(b, "done");  // recorded only later: inversion
  g.declare_work("w", "w");
  g.charge(a, "w");
  g.record(a, "done");
  g.wait(b, "nobody");  // never recorded: dangling
  const auto fs = g.audit("t");
  EXPECT_TRUE(has_kind(fs, AuditKind::kCausalityInversion));
  EXPECT_TRUE(has_kind(fs, AuditKind::kDanglingWait));
}

TEST(ChargeGraph, UnprovenNegativeChargeIsNonMonotone) {
  analysis::ChargeGraph g;
  const auto s = g.stream("s");
  g.declare_work("w", "w");
  g.charge(s, "w", /*nonneg=*/false);
  EXPECT_TRUE(has_kind(g.audit("t"), AuditKind::kNonMonotone));
}

// --- the engine x device matrix ---------------------------------------

TEST(ChargeMatrix, EveryRegistryEngineOnEveryDeviceIsClean) {
  int cells = 0;
  for (const std::string& e : core::factory_engine_names())
    for (const std::string& d : analysis::audit_device_keys()) {
      const auto spec = vgpu::DeviceSpec::by_name(d);
      const auto fs = analysis::audit_engine_charges(e, spec);
      EXPECT_TRUE(fs.empty()) << e << "@" << d << ": " << fs.front().str();
      ++cells;
    }
  EXPECT_EQ(cells, 16 * 3);
}

TEST(ChargeMatrix, AliasResolvesAndUnknownEngineThrows) {
  const auto spec = vgpu::DeviceSpec::by_name("titan");
  EXPECT_TRUE(analysis::audit_engine_charges("csr-cusparse", spec).empty());
  EXPECT_THROW(analysis::audit_engine_charges("no-such-engine", spec),
               acsr::InputError);
}

TEST(ChargeMatrix, CrossPlaneJoinsAreClean) {
  for (const std::string& p : analysis::charge_plane_names()) {
    const auto fs = analysis::audit_charge_plane(p);
    EXPECT_TRUE(fs.empty()) << p << ": " << fs.front().str();
  }
}

// The satellite fix: the verifier matrix is derived from the factory
// registry, so a factory engine without a verifier model (or vice versa)
// fails here instead of being silently skipped.
TEST(ChargeMatrix, VerifierAndAuditMatricesDeriveFromFactoryRegistry) {
  EXPECT_EQ(analysis::all_engine_names(), core::factory_engine_names());
  for (const std::string& e : core::factory_engine_names()) {
    EXPECT_TRUE(analysis::knows_engine(e)) << e;
    EXPECT_NE(core::canonical_engine_name(e), nullptr) << e;
  }
  EXPECT_STREQ(core::canonical_engine_name("csr-cusparse"), "csr");
  EXPECT_EQ(core::canonical_engine_name("bogus"), nullptr);
}

// --- defect corpora: zero false negatives ------------------------------

TEST(DefectCorpus, EveryChargeDefectIsFlaggedWithItsExpectedKind) {
  for (const auto& d : analysis::all_charge_defects()) {
    const auto fs = analysis::run_charge_defect(d.name);
    EXPECT_TRUE(has_kind(fs, d.expected)) << d.name;
  }
}

TEST(DefectCorpus, EverySourceDefectIsFlaggedWithItsExpectedKind) {
  for (const auto& d : analysis::all_source_defects()) {
    const auto fs = analysis::run_source_defect(d.name);
    EXPECT_TRUE(has_kind(fs, d.expected)) << d.name;
  }
}

// --- lexer + gate rule ----------------------------------------------

TEST(SourceModel, CommentsStringsAndCodeAreSeparated) {
  const auto f = analysis::lex_source("src/x/t.hpp",
                                      "#pragma once\n"
                                      "// v.data() in a comment\n"
                                      "const char* s = \"x.data()\";\n"
                                      "/* .data() in a block comment */\n"
                                      "int n = 1'000; char c = 'a';\n");
  int comments = 0, strings = 0, directives = 0;
  for (const auto& t : f.toks) {
    comments += t.kind == analysis::TokKind::kComment;
    strings += t.kind == analysis::TokKind::kString;
    directives += t.kind == analysis::TokKind::kDirective;
  }
  EXPECT_EQ(comments, 2);
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(directives, 1);
  // No `.data(` sequence survives into the code stream.
  const analysis::SourceSet set = {f};
  EXPECT_TRUE(analysis::audit_lint(set).empty());
}

TEST(SourceModel, DataEscapeInCodeIsFlaggedOutsideTheSpanLayer) {
  const char* body =
      "#pragma once\n"
      "inline const double* leak(const std::vector<double>& v) {\n"
      "  return v.data();\n"
      "}\n";
  const analysis::SourceSet bad = {analysis::lex_source("src/x/t.hpp", body)};
  EXPECT_TRUE(has_kind(analysis::audit_lint(bad), AuditKind::kLint));
  // The same code inside the span layer is the audited exception.
  const analysis::SourceSet ok = {
      analysis::lex_source("src/vgpu/memory.hpp", body)};
  EXPECT_TRUE(analysis::audit_lint(ok).empty());
}

TEST(SourceModel, OnlyThePlaneTablesOneGetenvIsAllowed) {
  const char* one_read =
      "#pragma once\n"
      "// getenv in a comment is not a read\n"
      "inline const char* kRow = \"ACSR_X\";\n"
      "inline const char* v = std::getenv(kRow);\n";
  const analysis::SourceSet ok = {
      analysis::lex_source(analysis::kPlaneTable, one_read)};
  const auto res = analysis::audit_gates(ok);
  EXPECT_TRUE(res.findings.empty());
  ASSERT_EQ(res.sites.size(), 1u);
  EXPECT_EQ(res.sites[0].var, "ACSR_X");
  EXPECT_EQ(res.sites[0].line, 3);

  // The same read anywhere else, or a second read in the table, is hot.
  const analysis::SourceSet elsewhere = {
      analysis::lex_source("src/x/t.hpp", one_read)};
  EXPECT_EQ(analysis::audit_gates(elsewhere).findings.size(), 1u);
  const analysis::SourceSet twice = {analysis::lex_source(
      analysis::kPlaneTable,
      std::string(one_read) + "inline const char* w = getenv(\"ACSR_Y\");\n")};
  const auto res2 = analysis::audit_gates(twice);
  ASSERT_EQ(res2.findings.size(), 1u);
  EXPECT_EQ(res2.findings[0].kind, AuditKind::kHotGetenv);
}

// --- real-tree proofs --------------------------------------------------

TEST(RealTree, TaxonomyIsExhaustive) {
  const auto set = analysis::load_source_tree(ACSR_SOURCE_DIR);
  const auto res = analysis::audit_taxonomy(set);
  EXPECT_TRUE(res.findings.empty())
      << res.findings.front().str();
  // The typed taxonomy as shipped: both roots and the Io subtree.
  std::vector<std::string> names;
  for (const auto& t : res.types) {
    names.push_back(t.name);
    EXPECT_TRUE(t.covered || t.terminal || t.throw_sites.empty()) << t.name;
  }
  for (const char* expect :
       {"DeviceFault", "DeviceOom", "TransientFault", "DataCorruption",
        "DeviceLost", "IoError", "IoTransientError", "IoTimeout",
        "ChunkChecksumMismatch"})
    EXPECT_TRUE(std::find(names.begin(), names.end(), expect) != names.end())
        << expect;
}

TEST(RealTree, OnlyThePlaneTableReadsTheEnvironment) {
  const auto set = analysis::load_source_tree(ACSR_SOURCE_DIR);
  const auto res = analysis::audit_gates(set);
  EXPECT_TRUE(res.findings.empty()) << res.findings.front().str();
  // The table's rows are exactly the ten variables the planes read (a
  // lexer regression that finds no rows would otherwise pass vacuously).
  std::vector<std::string> vars;
  for (const auto& s : res.sites) vars.push_back(s.var);
  std::sort(vars.begin(), vars.end());
  const std::vector<std::string> expect = {
      "ACSR_FAULTS",   "ACSR_MEMO",          "ACSR_PROF",
      "ACSR_REFERENCE_METERING", "ACSR_SANITIZE", "ACSR_SANITIZE_HALT",
      "ACSR_SCALE",    "ACSR_SLO",           "ACSR_TRACE",
      "ACSR_VERIFY"};
  EXPECT_EQ(vars, expect);
}

TEST(RealTree, LintRulesHoldTokenLevel) {
  const auto set = analysis::load_source_tree(ACSR_SOURCE_DIR);
  const auto fs = analysis::audit_lint(set);
  EXPECT_TRUE(fs.empty()) << fs.front().str();
  EXPECT_GT(set.size(), 50u);  // the loader actually walked src/
}

// --- report ------------------------------------------------------------

TEST(AuditReport, ExitCodeAndJsonRoundTrip) {
  analysis::AuditReport rep;
  rep.engine_cells = 48;
  rep.defects_expected = 8;
  rep.defects_flagged = 8;
  EXPECT_EQ(rep.exit_code(), 0);

  rep.findings.push_back({AuditKind::kFreeWork, "charge:t", "w", "detail"});
  EXPECT_EQ(rep.exit_code(), 1);

  std::string err;
  json::Value doc;
  ASSERT_TRUE(json::parse(rep.json(), &doc, &err)) << err;
  const json::Value* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("engine_cells")->as_number(), 48);
  EXPECT_FALSE(summary->find("clean")->as_bool());
  const json::Value* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->as_array().size(), 1u);
  EXPECT_EQ(findings->as_array()[0].find("kind")->as_string(), "free-work");

  rep.findings.clear();
  rep.defects_flagged = 7;  // a missed defect is a failure even with no findings
  EXPECT_EQ(rep.exit_code(), 1);
}

}  // namespace
