// Fault-tolerant simulated storage tier (docs/OOC.md).
//
// A StorageTier is a RAID-0 array of simulated drives on the caller's
// StreamTimeline: each drive is one stream, so reads striped across
// drives proceed in parallel with each other and with whatever else the
// caller runs on its own streams (the out-of-core executor's h2d and
// compute streams). The tier is a *timing and integrity* model — the
// "file" truth is host memory, and a read delivers bytes by copying the
// request's source segments into its destination segments — so the data
// plane stays exact while the time plane pays drive service, stripe
// rounding, queueing, and fault penalties.
//
// Robustness is first-class. Every chunk is checksummed (FNV-1a) over
// its source bytes before service and verified over the *delivered*
// bytes on arrival; the ACSR_FAULTS `read` site can fail a request
// (io_transient), hang it (io_timeout), corrupt the delivered bytes
// (io_checksum — caught by the arrival checksum), or degrade a drive
// (io_degrade). Failed or corrupt reads are re-issued up to
// `max_retries` times with exponential backoff charged to the simulated
// clock; exhausting the budget escapes as the matching typed error
// (IoTransientError / IoTimeout / ChunkChecksumMismatch from
// vgpu/fault.hpp), which the checkpointed solvers' DeviceFault restart
// net already covers.
//
// Requests are asynchronous with a bounded in-flight window: submit()
// services the request on the drive streams immediately (simulated
// asynchrony — drive time advances independently of the caller's
// streams) and parks its completion; when the window is full the oldest
// request completes first, modelling a producer blocking on a full
// queue. poll()/drain() fire completion callbacks. All accounting lands
// in a prof::IoAgg (io.* metrics; every field has one, checked at compile
// time in src/prof/metrics.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "prof/metrics.hpp"
#include "slo/trace.hpp"
#include "storage/drive.hpp"
#include "storage/mapper.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/timeline.hpp"

namespace acsr::storage {

/// One piece of a chunk's data plane: deliver `bytes` from `src` to `dst`.
struct Segment {
  const unsigned char* src = nullptr;
  unsigned char* dst = nullptr;
  std::size_t bytes = 0;
};

/// Build a Segment over element ranges of typed host vectors. This is the
/// one audited place (scripts/lint.sh rule 2) where a host vector decays
/// to raw bytes: the storage data plane moves bytes, not elements, and
/// every caller goes through this helper so the decay stays centralized.
/// A zero count yields an empty Segment the caller should drop.
template <class U>
Segment make_segment(const std::vector<U>& src, std::size_t src_first,
                     std::vector<U>& dst, std::size_t count) {
  if (count == 0) return Segment{};
  ACSR_REQUIRE(src_first + count <= src.size() && count <= dst.size(),
               "storage segment out of range");
  return Segment{
      reinterpret_cast<const unsigned char*>(src.data() + src_first),
      reinterpret_cast<unsigned char*>(dst.data()),
      count * sizeof(U)};
}

/// FNV-1a over a byte range; chainable via `h` for multi-segment chunks.
inline std::uint64_t fnv1a(const unsigned char* p, std::size_t n,
                           std::uint64_t h = 14695981039346656037ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct TierConfig {
  int num_drives = 4;
  std::size_t stripe_bytes = 256 * 1024;
  std::size_t max_inflight = 8;  ///< bounded async request window
  int max_retries = 3;           ///< re-issues per chunk before escaping
  double backoff_s = 1e-3;       ///< base retry backoff, doubles per retry
  DriveSpec drive{};             ///< per-drive model (name gets an index)
};

class StorageTier {
 public:
  struct ReadRequest {
    std::string what;         ///< chunk name, for fault/log attribution
    std::size_t offset = 0;   ///< logical byte offset in the striped file
    std::vector<Segment> segments;
    /// Fired (from poll/drain/queue pressure) with the completion time.
    std::function<void(double complete_s)> on_complete;
  };

  StorageTier(vgpu::StreamTimeline& tl, TierConfig cfg)
      : tl_(tl), cfg_(cfg), mapper_(cfg.num_drives, cfg.stripe_bytes) {
    ACSR_REQUIRE(cfg_.max_inflight >= 1,
                 "storage tier needs an in-flight window >= 1");
    ACSR_REQUIRE(cfg_.max_retries >= 0, "max_retries must be >= 0");
    for (int d = 0; d < cfg_.num_drives; ++d)
      streams_.push_back(tl_.create_stream());
    // The caller's timeline is private (time 0 = "now"), so io spans need
    // the tracer's anchor to land at absolute trace time. Captured once:
    // the owning executor advances the anchor only after its run, so every
    // read this tier services shares the same base (docs/SLO.md).
    if (slo::slo_enabled()) [[unlikely]]
      slo_base_ = slo::Tracer::instance().anchor();
  }

  const TierConfig& config() const { return cfg_; }
  const StripeMapper& mapper() const { return mapper_; }

  /// Issue one chunk read. Drive service (and any fault penalty) is
  /// charged immediately on the drive streams; the request's data is
  /// delivered (and checksum-verified) before return, so the caller can
  /// depend on the bytes while the *time* of availability is the
  /// returned completion instant. Throws the typed IoError taxonomy when
  /// the retry budget is exhausted.
  double submit(ReadRequest r) {
    while (inflight_.size() >= cfg_.max_inflight) complete_front();
    const double done = service(r);
    inflight_.push_back({done, std::move(r.on_complete)});
    if (inflight_.size() > stats_.queue_peak)
      stats_.queue_peak = inflight_.size();
    return done;
  }

  /// Synchronous convenience: submit and immediately retire.
  double read_chunk(std::string what, std::size_t offset,
                    std::vector<Segment> segments) {
    ReadRequest r;
    r.what = std::move(what);
    r.offset = offset;
    r.segments = std::move(segments);
    const double done = submit(std::move(r));
    poll(done);
    return done;
  }

  /// Retire every in-flight request completing at or before `now_s`.
  void poll(double now_s) {
    while (!inflight_.empty() && inflight_.front().done_s <= now_s)
      complete_front();
  }

  /// Retire everything; returns the last completion time (0 when idle).
  double drain() {
    double t = 0.0;
    while (!inflight_.empty()) {
      t = inflight_.front().done_s;
      complete_front();
    }
    return t;
  }

  std::size_t inflight() const { return inflight_.size(); }
  const prof::IoAgg& stats() const { return stats_; }
  /// Mutable view: the streaming executor folds its stall/overlap terms
  /// into the same aggregate the tier fills.
  prof::IoAgg& stats() { return stats_; }

 private:
  struct Pending {
    double done_s = 0.0;
    std::function<void(double)> on_complete;
  };

  void complete_front() {
    Pending p = std::move(inflight_.front());
    inflight_.pop_front();
    if (p.on_complete) p.on_complete(p.done_s);
  }

  std::string drive_name(int index) const {
    return cfg_.drive.name + std::to_string(index);
  }

  static std::uint64_t checksum_src(const std::vector<Segment>& segs) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const Segment& s : segs) h = fnv1a(s.src, s.bytes, h);
    return h;
  }

  static std::uint64_t checksum_dst(const std::vector<Segment>& segs) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const Segment& s : segs) h = fnv1a(s.dst, s.bytes, h);
    return h;
  }

  /// Charge retry backoff on the request's first drive; returns the new
  /// completion floor.
  double charge_backoff(int drive, int attempt, const std::string& what) {
    const double b = cfg_.backoff_s * static_cast<double>(1LL << attempt);
    stats_.retries += 1;
    stats_.penalty_s += b;
    // Span mirror: the start is read off the stream cursor before the
    // enqueue, so the span interval is bit-identical to the log entry's
    // (charge parity is exact, not approximate).
    const double b_start = tl_.now(streams_[static_cast<std::size_t>(drive)]);
    const double done = tl_.enqueue(streams_[static_cast<std::size_t>(drive)],
                                    b, "backoff:" + what);
    if (slo::slo_enabled()) [[unlikely]]
      slo::Tracer::instance().add(slo::SpanKind::kRetryBackoff,
                                  "backoff:" + what, drive_name(drive),
                                  slo_base_ + b_start, slo_base_ + done);
    return done;
  }

  /// The retry loop: per attempt, consult the fault plane, charge drive
  /// service for the stripe-rounded extents, deliver, verify.
  double service(const ReadRequest& r) {
    std::size_t demand = 0;
    for (const Segment& s : r.segments) demand += s.bytes;
    ACSR_CHECK(demand > 0);
    stats_.demand_bytes += demand;
    const std::uint64_t want = checksum_src(r.segments);
    const std::vector<Extent> extents = mapper_.map(r.offset, demand);
    const int first_drive = extents.front().drive;

    for (int attempt = 0;; ++attempt) {
      vgpu::ReadFault f;
      if (vgpu::fault_injection_enabled()) [[unlikely]]
        f = vgpu::FaultInjector::instance().on_read(drive_name(first_drive),
                                                    r.what, demand);
      const bool last_try = attempt >= cfg_.max_retries;

      double done = 0.0;
      for (const Extent& e : extents) {
        const double s = cfg_.drive.service_seconds(e.bytes) * f.slow;
        const double e_start =
            tl_.now(streams_[static_cast<std::size_t>(e.drive)]);
        const double e_done =
            tl_.enqueue(streams_[static_cast<std::size_t>(e.drive)], s,
                        "read:" + r.what);
        done = std::max(done, e_done);
        if (slo::slo_enabled()) [[unlikely]]
          slo::Tracer::instance().add(slo::SpanKind::kIo, "read:" + r.what,
                                      drive_name(e.drive),
                                      slo_base_ + e_start,
                                      slo_base_ + e_done);
        stats_.read_s += s;
        stats_.read_bytes += e.bytes;
      }
      stats_.reads += 1;

      if (f.action == vgpu::ReadFault::Action::kTransient) {
        if (last_try)
          throw vgpu::IoTransientError(
              drive_name(first_drive), r.what,
              f.detail + " (retry budget exhausted)");
        charge_backoff(first_drive, attempt, r.what);
        continue;
      }
      if (f.action == vgpu::ReadFault::Action::kTimeout) {
        // The hang itself is simulated time on the serving drive.
        stats_.penalty_s += f.timeout_s;
        const double t_start =
            tl_.now(streams_[static_cast<std::size_t>(first_drive)]);
        const double t_done =
            tl_.enqueue(streams_[static_cast<std::size_t>(first_drive)],
                        f.timeout_s, "timeout:" + r.what);
        if (slo::slo_enabled()) [[unlikely]]
          slo::Tracer::instance().add(slo::SpanKind::kIo, "timeout:" + r.what,
                                      drive_name(first_drive),
                                      slo_base_ + t_start,
                                      slo_base_ + t_done);
        if (last_try)
          throw vgpu::IoTimeout(drive_name(first_drive), r.what,
                                f.detail + " (retry budget exhausted)");
        charge_backoff(first_drive, attempt, r.what);
        continue;
      }

      for (const Segment& s : r.segments) std::memcpy(s.dst, s.src, s.bytes);
      if (f.corrupt) [[unlikely]] {
        // Deterministic flip in the delivered bytes: the seed picks the
        // byte and bit across the chunk's segments.
        std::size_t pos = static_cast<std::size_t>(f.seed % demand);
        for (const Segment& s : r.segments) {
          if (pos < s.bytes) {
            s.dst[pos] ^= static_cast<unsigned char>(
                1u << ((f.seed >> 56) % 8));
            break;
          }
          pos -= s.bytes;
        }
      }
      if (checksum_dst(r.segments) != want) {
        stats_.checksum_failures += 1;
        if (last_try)
          throw vgpu::ChunkChecksumMismatch(
              drive_name(first_drive), r.what,
              "chunk '" + r.what + "' failed its arrival checksum " +
                  std::to_string(1 + attempt) +
                  " time(s); re-read budget exhausted");
        charge_backoff(first_drive, attempt, r.what);
        continue;
      }
      return done;
    }
  }

  vgpu::StreamTimeline& tl_;
  TierConfig cfg_;
  StripeMapper mapper_;
  std::vector<vgpu::StreamTimeline::StreamId> streams_;
  std::deque<Pending> inflight_;
  prof::IoAgg stats_;
  double slo_base_ = 0.0;  ///< tracer anchor mapping tl_ time 0 to trace time
};

}  // namespace acsr::storage
