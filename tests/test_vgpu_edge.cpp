// Edge cases across the vgpu substrate: buffer ownership moves, shared-
// memory regions, launch validation, zero-fill accounting, scalar loads,
// the serial-gmem path used by the update kernel, and the flat sector set
// behind a concurrent group's shared L2.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <unordered_set>
#include <vector>

#include "spmv/engine.hpp"
#include "vgpu/device.hpp"
#include "vgpu/sector_set.hpp"

namespace {

using namespace acsr::vgpu;

TEST(DeviceBufferEdge, MoveTransfersOwnershipAndReleasesArena) {
  Device dev(DeviceSpec::gtx_titan());
  const std::size_t before = dev.arena().allocated();
  {
    auto a = dev.alloc<double>(1000, "a");
    EXPECT_GT(dev.arena().allocated(), before);
    auto b = std::move(a);
    EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): tested
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.size(), 1000u);
    // Move-assign over an existing buffer releases the old allocation.
    auto c = dev.alloc<double>(500, "c");
    const std::size_t with_both = dev.arena().allocated();
    c = std::move(b);
    EXPECT_LT(dev.arena().allocated(), with_both);
  }
  EXPECT_EQ(dev.arena().allocated(), before);  // full cleanup on scope exit
}

TEST(DeviceBufferEdge, UploadChargesTransfer) {
  Device dev(DeviceSpec::gtx_titan());
  const double t0 = dev.transfer_seconds();
  std::vector<float> host(4096, 1.5f);
  auto b = dev.upload(host, "u");
  EXPECT_GT(dev.transfer_seconds(), t0);
  EXPECT_EQ(b.host()[10], 1.5f);
  dev.reset_transfer_stats();
  EXPECT_EQ(dev.transfer_bytes(), 0u);
}

TEST(BlockShared, RegionsAreIndependentAndZeroed) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.block_dim = 64;
  dev.launch(cfg, [&](Block& blk) {
    auto a = blk.shared<double>(8);
    auto b = blk.shared<int>(16);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(a[i], 0.0);
    for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(b[i], 0);
    a[3] = 7.5;
    b[3] = 9;
    EXPECT_EQ(a[3], 7.5);  // no aliasing between regions
    EXPECT_EQ(b[3], 9);
    EXPECT_NE(a.addr(), b.addr());
  });
}

TEST(LaunchValidation, RejectsBadGeometry) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig bad_grid;
  bad_grid.grid_dim = 0;
  EXPECT_THROW(dev.launch(bad_grid, [](Block&) {}), acsr::InvariantError);
  LaunchConfig bad_block;
  bad_block.block_dim = 2048;  // above max_threads_per_block
  EXPECT_THROW(dev.launch(bad_block, [](Block&) {}), acsr::InvariantError);
}

TEST(ZeroFill, WritesAndChargesCoalescedStores) {
  Device dev(DeviceSpec::gtx_titan());
  auto y = dev.alloc<double>(1000, "y");
  for (auto& v : y.host()) v = 3.0;
  const KernelRun run = acsr::spmv::zero_fill(dev, y.span());
  for (double v : y.host()) EXPECT_EQ(v, 0.0);
  // 1000 x 8 B = 8000 B = 250 sectors, each written once.
  EXPECT_EQ(run.counters.gmem_transactions, 250u);
  EXPECT_GT(run.duration_s, 0.0);
}

TEST(ScalarLoad, BroadcastsAndCountsOneTransaction) {
  Device dev(DeviceSpec::gtx_titan());
  auto buf = dev.alloc<int>(64, "b");
  buf.host()[7] = 42;
  auto span = buf.cspan();
  LaunchConfig cfg;
  cfg.block_dim = 32;
  const KernelRun run = dev.launch_warps(cfg, [&](Warp& w) {
    EXPECT_EQ(w.load_scalar(span, 7), 42);
  });
  EXPECT_EQ(run.counters.gmem_transactions, 1u);
}

TEST(SerialGmem, ChargesSectorPerAccess) {
  Device dev(DeviceSpec::gtx_titan());
  LaunchConfig cfg;
  cfg.block_dim = 32;
  const KernelRun run = dev.launch_warps(cfg, [&](Warp& w) {
    w.count_serial_gmem(17);
  });
  EXPECT_EQ(run.counters.gmem_transactions, 17u);
  EXPECT_EQ(run.counters.gmem_bytes, 17u * 32u);
}

TEST(PartialBlock, LastWarpMaskAppliesToWork) {
  Device dev(DeviceSpec::gtx_titan());
  auto out = dev.alloc<int>(48, "o");
  auto span = out.span();
  LaunchConfig cfg;
  cfg.block_dim = 48;  // warp 1 has 16 live lanes
  dev.launch_warps(cfg, [&](Warp& w) {
    w.store(span, w.global_threads(), LaneArray<int>::filled(1),
            w.active_mask());
  });
  int written = 0;
  for (int v : out.host()) written += v;
  EXPECT_EQ(written, 48);
}

TEST(CountersAccumulate, PlusEqualsSumsEveryField) {
  Counters a, b;
  a.warps = 3;
  a.gmem_bytes = 100;
  a.child_launches = 2;
  b.warps = 4;
  b.gmem_bytes = 50;
  b.atomic_ops = 7;
  a += b;
  EXPECT_EQ(a.warps, 7u);
  EXPECT_EQ(a.gmem_bytes, 150u);
  EXPECT_EQ(a.child_launches, 2u);
  EXPECT_EQ(a.atomic_ops, 7u);
}

// --- the concurrent group's sector set --------------------------------------

/// Feeds every key to SectorSet and to std::unordered_set, the set it
/// replaced, and requires the same insert answer and size at every step
/// and a load of at most 3/4.
class SectorSetVsReference {
 public:
  void insert(std::uint64_t key) {
    const bool got = flat_.insert(key);
    const bool want = ref_.insert(key).second;
    ASSERT_EQ(got, want) << "key " << key << " at step " << steps_;
    ASSERT_EQ(flat_.size(), ref_.size()) << "step " << steps_;
    ASSERT_LE(4 * flat_.size(), 3 * flat_.capacity() + 4)
        << "load above 3/4 at step " << steps_;
    ++steps_;
  }
  const SectorSet& flat() const { return flat_; }

 private:
  SectorSet flat_;
  std::unordered_set<std::uint64_t> ref_;
  std::size_t steps_ = 0;
};

TEST(SectorSetTest, SeededRandomSequencesMatchUnorderedSet) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 2014u}) {
    std::mt19937_64 rng(seed);
    SectorSetVsReference s;
    // Dense ids with many repeats (a sweep's sectors), then wide ids.
    std::uniform_int_distribution<std::uint64_t> dense(0, 5000);
    for (int i = 0; i < 20000; ++i) s.insert(dense(rng));
    for (int i = 0; i < 20000; ++i) s.insert(rng());
  }
}

TEST(SectorSetTest, AdversarialKeysMatchUnorderedSet) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  SectorSetVsReference s;
  // The extremes, including the all-ones key that marks an empty slot.
  for (const std::uint64_t k : {std::uint64_t{0}, kMax - 1, kMax, kMax - 1,
                                std::uint64_t{0}, kMax, std::uint64_t{1}})
    s.insert(k);
  // Keys whose hash products are 0, 1, 2, ...: they share a home slot at
  // every table size up to 2^58, so every insert probes the whole run.
  std::uint64_t inv = SectorSet::kMultiplier;  // inverse mod 2^64 (Newton)
  for (int i = 0; i < 6; ++i) inv *= 2 - SectorSet::kMultiplier * inv;
  ASSERT_EQ(inv * SectorSet::kMultiplier, 1u);
  for (std::uint64_t j = 0; j < 3000; ++j) s.insert(j * inv);
  for (std::uint64_t j = 0; j < 3000; j += 7) s.insert(j * inv);  // repeats
  // Sector ids of aligned sweeps over two buffers 16 TiB apart.
  for (std::uint64_t a = 0; a < 4000; ++a) {
    s.insert((0x10000 + 32 * a) / 32);
    s.insert((0x100000010000ULL + 32 * a) / 32);
  }
}

TEST(SectorSetTest, EveryGrowthBoundaryKeepsEveryKey) {
  SectorSetVsReference s;
  std::vector<std::uint64_t> keys;
  std::size_t cap = 0;
  int growths = 0;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    const std::uint64_t k = i * 0x10001 + 7;
    s.insert(k);
    keys.push_back(k);
    if (s.flat().capacity() != cap) {
      // Grown (or first allocated): every key inserted so far, including
      // the one that triggered it, must still be found, and is not new.
      if (cap != 0) {
        EXPECT_EQ(s.flat().capacity(), 2 * cap);
      }
      cap = s.flat().capacity();
      ++growths;
      for (const std::uint64_t old : keys) s.insert(old);
    }
  }
  EXPECT_EQ(s.flat().size(), 50000u);
  EXPECT_EQ(growths, 12);  // 64 -> 131072 slots
}

}  // namespace
