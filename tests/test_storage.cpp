// The simulated storage plane (src/storage/, docs/OOC.md): drive service
// model, RAID-0 stripe mapper, and the fault-tolerant StorageTier. The
// invariants the out-of-core executor depends on are each pinned here:
// reads deliver exact bytes (data plane) while charging stripe-rounded
// drive time (time plane), striped reads proceed in parallel across
// drives, the async window is bounded and retires oldest-first, and
// every ACSR_FAULTS `read` class either recovers within the retry budget
// (with backoff charged to the clock and io.* evidence) or escapes as
// its typed IoError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"

#include "prof/metrics.hpp"
#include "storage/drive.hpp"
#include "storage/mapper.hpp"
#include "storage/tier.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/timeline.hpp"

namespace {

using acsr::storage::DriveSpec;
using acsr::storage::Extent;
using acsr::storage::Segment;
using acsr::storage::StorageTier;
using acsr::storage::StripeMapper;
using acsr::storage::TierConfig;
using acsr::vgpu::FaultInjector;
using acsr::vgpu::StreamTimeline;

/// Every test leaves the injector disabled, whatever path it exits by.
class Storage : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disable(); }
};

/// A recognisable byte pattern the delivery checks can diff against.
std::vector<double> pattern(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 0.25 + static_cast<double>(i) * 0.5;
  return v;
}

/// One-segment read request over the whole of `src` into `dst`.
std::vector<Segment> whole(const std::vector<double>& src,
                           std::vector<double>& dst) {
  dst.assign(src.size(), 0.0);
  return {acsr::storage::make_segment(src, 0, dst, src.size())};
}

// --- drive model -----------------------------------------------------------

TEST_F(Storage, DriveServiceIsSeekPlusIopsPlusBandwidth) {
  DriveSpec d;
  d.bandwidth_gbs = 0.5;
  d.iops = 100000.0;
  d.seek_s = 50e-6;
  const std::size_t bytes = 1 << 20;
  const double want = 50e-6 + 1.0 / 100000.0 +
                      static_cast<double>(bytes) / (0.5 * 1e9);
  EXPECT_DOUBLE_EQ(d.service_seconds(bytes), want);
  // Monotone in size: a bigger read can never be cheaper.
  EXPECT_GT(d.service_seconds(2 * bytes), d.service_seconds(bytes));
}

// --- stripe mapper ---------------------------------------------------------

TEST_F(Storage, MapperRoundsToStripesAndRoundRobins) {
  StripeMapper m(4, 1024);
  // A 1-byte read still costs a whole stripe on one drive.
  auto e = m.map(0, 1);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].drive, 0);
  EXPECT_EQ(e[0].stripes, 1u);
  EXPECT_EQ(e[0].bytes, 1024u);

  // A read crossing a stripe boundary touches the next drive round-robin.
  e = m.map(1000, 100);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].drive, 0);
  EXPECT_EQ(e[1].drive, 1);

  // Eight full stripes across four drives: two each, in first-touch order.
  e = m.map(0, 8 * 1024);
  ASSERT_EQ(e.size(), 4u);
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(e[static_cast<std::size_t>(d)].drive, d);
    EXPECT_EQ(e[static_cast<std::size_t>(d)].stripes, 2u);
  }

  // An offset deep in the stripe sequence lands on offset/stripe % drives.
  e = m.map(5 * 1024, 10);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].drive, 1);
}

TEST_F(Storage, MapperRejectsDegenerateGeometry) {
  EXPECT_THROW(StripeMapper(0, 1024), acsr::InputError);
  EXPECT_THROW(StripeMapper(-2, 1024), acsr::InputError);
  EXPECT_THROW(StripeMapper(4, 0), acsr::InputError);
}

TEST_F(Storage, SegmentHelperChecksRangesAndDropsEmpty) {
  const std::vector<double> src = pattern(8);
  std::vector<double> dst(8, 0.0);
  const Segment s = acsr::storage::make_segment(src, 2, dst, 4);
  EXPECT_EQ(s.bytes, 4 * sizeof(double));
  EXPECT_EQ(acsr::storage::make_segment(src, 0, dst, 0).bytes, 0u);
  EXPECT_THROW(acsr::storage::make_segment(src, 6, dst, 4),
               acsr::InputError);
}

// --- tier: clean path ------------------------------------------------------

TEST_F(Storage, ReadDeliversExactBytesAndAccounts) {
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(1000);
  std::vector<double> dst;
  const double done = tier.read_chunk("chunk0", 0, whole(src, dst));
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(dst, src);  // the data plane is exact
  const acsr::prof::IoAgg& s = tier.stats();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.demand_bytes, src.size() * sizeof(double));
  // Stripe rounding: delivered drive bytes >= demanded logical bytes.
  EXPECT_GE(s.read_bytes, s.demand_bytes);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.checksum_failures, 0u);
  EXPECT_GT(s.read_s, 0.0);
}

TEST_F(Storage, StripedReadRunsDrivesInParallel) {
  // One chunk spanning many stripes on 4 drives must finish in roughly
  // 1/4 the serial drive time: completion is the max over drive streams,
  // while read_s accumulates the work sum.
  TierConfig cfg;
  cfg.stripe_bytes = 4096;
  StreamTimeline tl;
  StorageTier tier(tl, cfg);
  const std::vector<double> src = pattern(32 * 4096 / sizeof(double));
  std::vector<double> dst;
  const double done = tier.read_chunk("wide", 0, whole(src, dst));
  const double work = tier.stats().read_s;
  EXPECT_LT(done, work);          // parallel: span < work
  EXPECT_GT(done, work / 4.001);  // but no better than 4-way
  EXPECT_EQ(dst, src);
}

TEST_F(Storage, InflightWindowIsBoundedAndRetiresOldestFirst) {
  TierConfig cfg;
  cfg.max_inflight = 3;
  StreamTimeline tl;
  StorageTier tier(tl, cfg);
  const std::vector<double> src = pattern(256);
  std::vector<std::vector<double>> dst(8);
  std::vector<int> completed;
  for (int i = 0; i < 8; ++i) {
    StorageTier::ReadRequest r;
    r.what = "req" + std::to_string(i);
    r.offset = static_cast<std::size_t>(i) * 64;
    r.segments = whole(src, dst[static_cast<std::size_t>(i)]);
    r.on_complete = [&completed, i](double) { completed.push_back(i); };
    tier.submit(std::move(r));
    EXPECT_LE(tier.inflight(), cfg.max_inflight);
  }
  EXPECT_LE(tier.stats().queue_peak, cfg.max_inflight);
  tier.drain();
  EXPECT_EQ(tier.inflight(), 0u);
  // Queue pressure + drain retired every request, in submission order.
  ASSERT_EQ(completed.size(), 8u);
  EXPECT_TRUE(std::is_sorted(completed.begin(), completed.end()));
  for (const auto& d : dst) EXPECT_EQ(d, src);
}

// --- fault plane: grammar --------------------------------------------------

TEST_F(Storage, IoPlanGrammarParses) {
  auto& inj = FaultInjector::instance();
  inj.configure(
      "io_transient@read#2*3;io_timeout@read#1:ms=20;"
      "io_checksum@read#4:seed=9;io_degrade@read#1:x=8");
  ASSERT_EQ(inj.plan().size(), 4u);
  EXPECT_EQ(inj.plan()[0].at, 2);
  EXPECT_EQ(inj.plan()[0].count, 3);
  EXPECT_DOUBLE_EQ(inj.plan()[1].stall_s, 0.020);
  EXPECT_EQ(inj.plan()[2].seed, 9u);
  EXPECT_DOUBLE_EQ(inj.plan()[3].factor, 8.0);
}

TEST_F(Storage, IoPlanGrammarRejectsGarbage) {
  auto& inj = FaultInjector::instance();
  // io kinds only make sense at the read site, and x= must be positive.
  EXPECT_THROW(inj.configure("io_transient@launch#1"), acsr::InputError);
  EXPECT_THROW(inj.configure("oom@read#1"), acsr::InputError);
  EXPECT_THROW(inj.configure("io_degrade@read#1:x=0"), acsr::InputError);
  EXPECT_THROW(inj.configure("io_degrade@read#1:x=-2"), acsr::InputError);
  EXPECT_FALSE(acsr::vgpu::fault_injection_enabled());
}

// --- fault plane: each class, recovered and escaped ------------------------

TEST_F(Storage, TransientReadRetriesWithBackoffAndDelivers) {
  FaultInjector::instance().configure("io_transient@read#1");
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(500);
  std::vector<double> dst;
  tier.read_chunk("slab0", 0, whole(src, dst));
  EXPECT_EQ(dst, src);  // the re-issue delivered the real bytes
  const acsr::prof::IoAgg& s = tier.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.reads, 2u);          // failed attempt + clean re-issue
  EXPECT_GT(s.penalty_s, 0.0);     // backoff charged to the clock
  const auto& ev = FaultInjector::instance().events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].site, "read");
  EXPECT_EQ(ev[0].kind, acsr::vgpu::FaultKind::kIoTransient);
}

TEST_F(Storage, PersistentTransientEscapesTyped) {
  FaultInjector::instance().configure("io_transient@read#1*100");
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(100);
  std::vector<double> dst;
  EXPECT_THROW(tier.read_chunk("slab0", 0, whole(src, dst)),
               acsr::vgpu::IoTransientError);
  // max_retries re-issues on top of the first attempt, all faulted.
  EXPECT_EQ(tier.stats().retries,
            static_cast<std::uint64_t>(TierConfig{}.max_retries));
}

TEST_F(Storage, TimeoutChargesHangThenRecovers) {
  FaultInjector::instance().configure("io_timeout@read#1:ms=20");
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(100);
  std::vector<double> dst;
  const double done = tier.read_chunk("slab0", 0, whole(src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_GE(tier.stats().penalty_s, 0.020);  // the hang is simulated time
  EXPECT_GE(done, 0.020);
}

TEST_F(Storage, PersistentTimeoutEscapesTyped) {
  FaultInjector::instance().configure("io_timeout@read#1*100:ms=5");
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(100);
  std::vector<double> dst;
  EXPECT_THROW(tier.read_chunk("slab0", 0, whole(src, dst)),
               acsr::vgpu::IoTimeout);
}

TEST_F(Storage, ChecksumCatchesCorruptDeliveryAndRereads) {
  FaultInjector::instance().configure("io_checksum@read#1:seed=5");
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(400);
  std::vector<double> dst;
  tier.read_chunk("slab0", 0, whole(src, dst));
  // The arrival checksum caught the flip; the re-read delivered truth.
  EXPECT_EQ(dst, src);
  EXPECT_EQ(tier.stats().checksum_failures, 1u);
  EXPECT_EQ(tier.stats().retries, 1u);
}

TEST_F(Storage, PersistentCorruptionEscapesTyped) {
  FaultInjector::instance().configure("io_checksum@read#1*100:seed=11");
  StreamTimeline tl;
  StorageTier tier(tl, TierConfig{});
  const std::vector<double> src = pattern(100);
  std::vector<double> dst;
  EXPECT_THROW(tier.read_chunk("slab0", 0, whole(src, dst)),
               acsr::vgpu::ChunkChecksumMismatch);
  EXPECT_EQ(tier.stats().checksum_failures,
            static_cast<std::uint64_t>(TierConfig{}.max_retries) + 1);
}

TEST_F(Storage, DegradedDriveScalesServiceTime) {
  const std::vector<double> src = pattern(64 * 1024 / sizeof(double));
  std::vector<double> dst;

  StreamTimeline clean_tl;
  StorageTier clean(clean_tl, TierConfig{});
  clean.read_chunk("slab0", 0, whole(src, dst));
  const double clean_s = clean.stats().read_s;

  FaultInjector::instance().configure("io_degrade@read#1:x=4");
  StreamTimeline slow_tl;
  StorageTier slow(slow_tl, TierConfig{});
  const double done = slow.read_chunk("slab0", 0, whole(src, dst));
  EXPECT_EQ(dst, src);  // degraded, not wrong
  EXPECT_DOUBLE_EQ(slow.stats().read_s, clean_s * 4.0);
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(slow.stats().retries, 0u);  // slow is not an error
}

TEST_F(Storage, DerivedIoMetricsComputeFromAgg) {
  StreamTimeline tl;
  TierConfig cfg;
  cfg.stripe_bytes = 4096;
  StorageTier tier(tl, cfg);
  const std::vector<double> src = pattern(1000);  // 8000 B: 2 stripes
  std::vector<double> dst;
  tier.read_chunk("slab0", 0, whole(src, dst));
  const acsr::prof::IoAgg& s = tier.stats();
  bool saw_amp = false;
  for (const auto& m : acsr::prof::registry<acsr::prof::IoAgg>()) {
    const double v = m.compute(s);
    if (std::string(m.name) == "io.read_amplification") {
      saw_amp = true;
      // 8000 B demanded, 2 stripes (8192 B) served.
      EXPECT_NEAR(v, 8192.0 / 8000.0, 1e-12);
    }
    if (std::string(m.name) == "io.retry_rate") {
      EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }
  EXPECT_TRUE(saw_amp);
}

}  // namespace
