// The plane table (common/planes.hpp): the boolean spelling rule, the
// ACSR_TRACE implication, the one setter, every plane reader being a read
// of its row, and the pre-main load of the real environment. ctest runs
// this binary twice: plainly and with ACSR_MEMO=yes;ACSR_SANITIZE=0 set.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "analysis/verify.hpp"
#include "common/check.hpp"
#include "common/planes.hpp"
#include "graph/corpus.hpp"
#include "prof/prof.hpp"
#include "slo/trace.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"
#include "vgpu/sanitizer.hpp"
#include "vgpu/warp.hpp"

namespace {

using acsr::Planes;
using acsr::planes;
using acsr::set_plane;

/// load_planes over a fake environment.
Planes load(const std::map<std::string, std::string>& env) {
  return acsr::load_planes([&](const char* var) -> const char* {
    const auto it = env.find(var);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

TEST(Planes, ProcessTableIsTheEnvironmentReadBeforeMain) {
  const Planes now =
      acsr::load_planes([](const char* var) { return std::getenv(var); });
  for (const auto& r : acsr::kFlagRows)
    EXPECT_EQ(planes().*r.field, now.*r.field) << r.var;
  for (const auto& r : acsr::kTextRows)
    EXPECT_EQ(planes().*r.field, now.*r.field) << r.var;
  EXPECT_EQ(planes().fault_injection, now.fault_injection);

  // The ctest entry that sets ACSR_MEMO=yes;ACSR_SANITIZE=0.
  const char* memo = std::getenv("ACSR_MEMO");
  if (memo != nullptr && std::string(memo) == "yes") {
    EXPECT_TRUE(acsr::vgpu::memo::memo_enabled());
    EXPECT_FALSE(acsr::vgpu::sanitizer_enabled());
  }
}

TEST(Planes, EveryBooleanVariableSharesOneSpellingRule) {
  const std::map<std::string, bool> spellings = {
      {"", false}, {"0", false}, {"1", true}, {"yes", true}, {"10", true}};
  for (const auto& r : acsr::kFlagRows) {
    EXPECT_FALSE(load({}).*r.field) << r.var << " unset";
    for (const auto& [text, on] : spellings)
      EXPECT_EQ(load({{r.var, text}}).*r.field, on)
          << r.var << "='" << text << "'";
  }
}

TEST(Planes, TraceImpliesProfilerAndSlo) {
  const Planes t = load({{"ACSR_TRACE", "out.json"}});
  EXPECT_EQ(t.trace, "out.json");
  EXPECT_TRUE(t.prof);
  EXPECT_TRUE(t.slo);
  const Planes off = load({{"ACSR_TRACE", ""}});
  EXPECT_FALSE(off.prof);
  EXPECT_FALSE(off.slo);
  EXPECT_TRUE(load({{"ACSR_FAULTS", "oom@alloc#1"}}).fault_injection);
}

TEST(Planes, SetterRoundTripsEveryRowAndReadersFollowIt) {
  for (const auto& r : acsr::kFlagRows) {
    const bool was = planes().*r.field;
    set_plane(r.field, !was);
    EXPECT_EQ(planes().*r.field, !was) << r.var;
    set_plane(r.field, was);
    EXPECT_EQ(planes().*r.field, was) << r.var;
  }
  for (const auto& r : acsr::kTextRows) {
    const std::string was = planes().*r.field;
    set_plane(r.field, "x");
    EXPECT_EQ(planes().*r.field, "x") << r.var;
    set_plane(r.field, was);
    EXPECT_EQ(planes().*r.field, was) << r.var;
  }

  const std::pair<bool Planes::*, bool (*)()> readers[] = {
      {&Planes::sanitize, acsr::vgpu::sanitizer_enabled},
      {&Planes::reference_metering, acsr::vgpu::reference_metering},
      {&Planes::memo, acsr::vgpu::memo::memo_enabled},
      {&Planes::prof, acsr::prof::profiler_enabled},
      {&Planes::slo, acsr::slo::slo_enabled},
      {&Planes::verify, acsr::analysis::verify_enabled},
      {&Planes::fault_injection, acsr::vgpu::fault_injection_enabled},
  };
  for (const auto& [row, reader] : readers) {
    const bool was = planes().*row;
    set_plane(row, !was);
    EXPECT_EQ(reader(), !was);
    set_plane(row, was);
    EXPECT_EQ(reader(), was);
  }
}

TEST(Planes, FaultInjectorKeepsTheFaultsRow) {
  auto& inj = acsr::vgpu::FaultInjector::instance();
  inj.configure("oom@alloc#1");
  EXPECT_EQ(planes().faults, "oom@alloc#1");
  EXPECT_TRUE(acsr::vgpu::fault_injection_enabled());
  inj.disable();
  EXPECT_EQ(planes().faults, "");
  EXPECT_FALSE(acsr::vgpu::fault_injection_enabled());
}

TEST(Planes, ScaleIsParsedStrictly) {
  const std::string was = planes().scale;
  set_plane(&Planes::scale, "");
  EXPECT_EQ(acsr::graph::default_scale(), 64);
  set_plane(&Planes::scale, "8");
  EXPECT_EQ(acsr::graph::default_scale(), 8);
  for (const char* bad : {"8x", "abc", "0", "-4"}) {
    set_plane(&Planes::scale, bad);
    EXPECT_THROW(acsr::graph::default_scale(), acsr::InputError) << bad;
  }
  set_plane(&Planes::scale, was);
}

}  // namespace
