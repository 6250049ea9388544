// Out-of-core streaming CSR engine (docs/OOC.md).
//
// The semi-external-memory tier of ROADMAP item 1: the matrix does NOT
// live in device memory. It is partitioned at build time into row-slabs
// sized to a device-memory budget; each simulate() streams the slabs
// from a fault-tolerant simulated storage tier (storage/tier.hpp)
// through host staging into a double-buffered pair of device slab
// buffers, overlapping the next slab's drive read and bin-metadata
// upload with the current slab's compute on a private StreamTimeline
// (drive streams + h2d stream + compute stream).
//
// The slab kernel is csr_vector_warp with a *per-row* vector size: slab
// rows are binned by choose_vector_size(row length) — the ACSR binning
// discipline — and each bin launches one grid over its slab-local row
// map, all bins concurrent (ConcurrentGroup, shared L2). Because a
// row's reduction order depends only on its own length, never on where
// a slab boundary falls, the engine's results are bitwise identical for
// every memory budget — which is what lets the differential fuzz
// compare out-of-core against in-core solves, the memo plane replay
// iterations, and the resilient driver swap the engine in mid-solve.
//
// This engine is the terminal rung of ResilientEngine's degradation
// ladder: when every in-core format has failed with DeviceOom, the
// driver rebuilds as "ooc-csr" and the solve completes — slower, but
// within budget — instead of throwing.
#pragma once

#include <array>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "analysis/shape.hpp"
#include "prof/metrics.hpp"
#include "slo/trace.hpp"
#include "spmv/csr_vector.hpp"
#include "spmv/engine.hpp"
#include "storage/tier.hpp"
#include "vgpu/timeline.hpp"

namespace acsr::core {

struct OocOptions {
  /// Device-memory budget for the streamed matrix. 0 derives it from the
  /// device: capacity / 8 — a function of the spec, not of the current
  /// allocation state, so rebuilt engines partition identically.
  std::size_t budget_bytes = 0;
  storage::TierConfig tier{};
  bool use_texture = true;
};

template <class T>
class OocCsrEngine final : public spmv::EngineBase<T> {
 public:
  OocCsrEngine(vgpu::Device& dev, const mat::Csr<T>& a, OocOptions opt = {})
      : spmv::EngineBase<T>(dev, "OOC-CSR"), host_(a), opt_(opt) {
    budget_ = opt_.budget_bytes != 0 ? opt_.budget_bytes
                                     : dev.arena().capacity() / 8;
    ACSR_REQUIRE(budget_ > 0, "out-of-core budget must be positive");
    partition();
    std::size_t peak = 0;
    for (const Slab& s : slabs_)
      peak = std::max(peak, s.bytes + s.meta_bytes);
    // Resident footprint: two slab sets in flight (double buffer).
    this->report_.device_bytes = 2 * peak;
  }

  std::size_t budget_bytes() const { return budget_; }
  std::size_t num_slabs() const { return slabs_.size(); }
  /// Storage/streaming accounting of the last simulate() (io.* metrics).
  const prof::IoAgg& io_stats() const { return last_io_; }
  /// End-to-end streamed makespan of the last simulate().
  double last_makespan() const { return last_makespan_; }
  /// Every private-timeline entry this engine has enqueued while the slo
  /// plane was enabled, rebased to absolute trace time (the anchor each
  /// simulate ran under) — including entries from attempts a fault
  /// aborted, whose timelines the resilient driver discards but whose
  /// spans were already recorded. This is the ground truth the
  /// charge-parity test compares per-stream span charges against
  /// (tests/test_slo.cpp, docs/SLO.md). Accrues only while tracing.
  const std::vector<vgpu::StreamTimeline::LogEntry>& trace_timeline_log()
      const {
    return trace_log_;
  }

  mat::index_t rows() const override { return host_.rows; }
  mat::index_t cols() const override { return host_.cols; }
  mat::offset_t nnz() const override { return host_.nnz(); }

  /// Host-side functional SpMV in exactly the kernel's reduction order:
  /// per row, V = choose_vector_size(length) lanes accumulate stride-V
  /// partials, then the butterfly folds them. simulate() == apply()
  /// element-for-element, independent of the slab partition.
  void apply(const std::vector<T>& x, std::vector<T>& y) const override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    y.assign(static_cast<std::size_t>(host_.rows), T{0});
    for (mat::index_t r = 0; r < host_.rows; ++r) {
      const mat::offset_t start = host_.row_off[static_cast<std::size_t>(r)];
      const mat::offset_t end =
          host_.row_off[static_cast<std::size_t>(r) + 1];
      if (start == end) continue;
      const int v = spmv::choose_vector_size(
          static_cast<double>(end - start));
      T part[32] = {};
      for (int l = 0; l < v; ++l) {
        T acc{};
        for (mat::offset_t j = start + l; j < end;
             j += static_cast<mat::offset_t>(v))
          acc += host_.vals[static_cast<std::size_t>(j)] *
                 x[static_cast<std::size_t>(
                     host_.col_idx[static_cast<std::size_t>(j)])];
        part[l] = acc;
      }
      for (int d = v / 2; d > 0; d /= 2) {
        T o[32];
        for (int l = 0; l < v; ++l) o[l] = (l + d < v) ? part[l + d] : part[l];
        for (int l = 0; l < v; ++l) part[l] = part[l] + o[l];
      }
      y[static_cast<std::size_t>(r)] = part[0];
    }
  }

  /// One streamed SpMV. Returns the end-to-end makespan of the private
  /// timeline — drive reads, slab uploads and bin compute with their
  /// overlap — because for an out-of-core solve the transfers ARE the
  /// iteration cost (unlike the in-core engines, whose matrix upload is
  /// a one-time charge outside the measured loop).
  double simulate(const std::vector<T>& x, std::vector<T>& y) override {
    ACSR_CHECK(static_cast<mat::index_t>(x.size()) == host_.cols);
    auto x_dev = this->stage_x(x);
    y.assign(static_cast<std::size_t>(host_.rows), T{0});
    last_io_ = prof::IoAgg{};
    last_makespan_ = 0.0;
    if (slabs_.empty()) return 0.0;

    // The private timeline starts at 0 every simulate; the tracer anchor
    // maps that 0 to absolute trace time so consecutive simulates (the
    // columns of a batch, the sweeps of a solve) concatenate instead of
    // overlapping. The tier ctor captures the same anchor for its drive
    // streams; we advance it only after synchronize().
    const bool traced = slo::slo_enabled();
    const double base = traced ? slo::Tracer::instance().anchor() : 0.0;

    vgpu::StreamTimeline tl;
    storage::StorageTier tier(tl, opt_.tier);
    const auto h2d = tl.create_stream();
    const auto compute = tl.create_stream();

    const std::size_t n = slabs_.size();
    std::vector<double> read_done(n, 0.0), comp_done(n, 0.0);
    std::vector<Stage> staged(n);
    std::deque<SlabDev> live;
    double stall_s = 0.0;
    vgpu::KernelRun agg{};
    std::uint64_t launches = 0;

    try {
    read_done[0] = submit_read(tier, staged, 0);
    for (std::size_t i = 0; i < n; ++i) {
      // Prefetch the next slab's drive read: the tier's drive streams
      // advance independently of h2d/compute, bounded by its in-flight
      // window.
      if (i + 1 < n) read_done[i + 1] = submit_read(tier, staged, i + 1);

      // Double buffer: at most two device slab sets live; re-using the
      // oldest set's space means its compute must have finished before
      // this slab's upload starts.
      if (live.size() == 2) live.pop_front();
      if (i >= 2)
        tl.wait(h2d, vgpu::StreamTimeline::Event{comp_done[i - 2]});
      SlabDev bufs = make_buffers(i, staged[i]);

      // Bin metadata is preprocessing state, not tier data: prefetch its
      // upload ahead of the slab's arrival.
      if (bufs.meta_bytes > 0) {
        // Span mirrors read the start off the stream cursor before the
        // enqueue: the span interval is then bit-identical to the log
        // entry's (exact charge parity, tests/test_slo.cpp).
        const double pf_start = tl.now(h2d);
        const double pf_done =
            tl.enqueue(h2d, charge_transfer(bufs.meta_bytes),
                       "prefetch:bins:slab" + std::to_string(i));
        if (traced) [[unlikely]]
          slo::Tracer::instance().add(
              slo::SpanKind::kUpload, "prefetch:bins:slab" + std::to_string(i),
              "h2d", base + pf_start, base + pf_done);
      }
      tl.wait(h2d, vgpu::StreamTimeline::Event{read_done[i]});
      const double up_start = tl.now(h2d);
      const double up_done =
          tl.enqueue(h2d, charge_transfer(slabs_[i].bytes),
                     "h2d:slab" + std::to_string(i));
      if (traced) [[unlikely]]
        slo::Tracer::instance().add(slo::SpanKind::kUpload,
                                    "h2d:slab" + std::to_string(i), "h2d",
                                    base + up_start, base + up_done);
      staged[i] = Stage{};  // staging freed once on the device

      const double before = tl.now(compute);
      if (up_done > before) stall_s += up_done - before;
      tl.wait(compute, vgpu::StreamTimeline::Event{up_done});
      const double kernel_s = run_slab(i, bufs, x_dev, agg, launches);
      const double c_start = tl.now(compute);
      comp_done[i] = tl.enqueue(compute, kernel_s,
                                "spmv:slab" + std::to_string(i));
      if (traced) [[unlikely]]
        slo::Tracer::instance().add(slo::SpanKind::kCompute,
                                    "spmv:slab" + std::to_string(i),
                                    "compute", base + c_start,
                                    base + comp_done[i]);

      const auto& yh = bufs.y.host();
      std::copy(yh.begin(), yh.end(),
                y.begin() + static_cast<std::ptrdiff_t>(slabs_[i].row_begin));
      live.push_back(std::move(bufs));
      tier.poll(tl.now(compute));
    }
    tier.drain();
    } catch (...) {
      // A fault aborts this attempt and the resilient driver retries on a
      // fresh timeline — but the aborted work's spans are already in the
      // tracer. Advance the anchor past it (so the retry's spans follow
      // instead of overlapping) and retain its log for charge parity.
      if (traced) [[unlikely]] retain_trace(tl, base);
      throw;
    }
    const double busy = tl.busy_seconds();
    last_makespan_ = tl.synchronize();
    if (traced) [[unlikely]] retain_trace(tl, base);

    last_io_ = tier.stats();
    last_io_.stall_s = stall_s;
    // Work minus span: > 0 iff any two streams were ever busy at the
    // same instant — the prefetch/compute overlap the tier exists for.
    last_io_.overlap_s = std::max(0.0, busy - last_makespan_);

    agg.name = "ooc-csr";
    this->report_.last_run = agg;
    return last_makespan_;
  }

 private:
  /// One row-slab of the on-"disk" slab-packed layout: the slab's
  /// row_off slice, col_idx slice and vals slice stored contiguously at
  /// file_offset.
  struct Slab {
    mat::index_t row_begin = 0;
    mat::index_t row_end = 0;
    std::size_t file_offset = 0;
    std::size_t bytes = 0;       ///< row_off + col_idx + vals slices
    std::size_t meta_bytes = 0;  ///< bin row maps
    /// Slab-local row ids binned by vector size: bin b holds rows run
    /// with V = 2 << b lanes (the ACSR discipline at slab granularity).
    std::array<std::vector<mat::index_t>, 5> bins;
  };

  /// Host staging a drive read delivers into (storage -> host -> device).
  struct Stage {
    std::vector<mat::offset_t> row_off;
    std::vector<mat::index_t> col_idx;
    std::vector<T> vals;
  };

  /// The double-buffered device-resident set for one slab.
  struct SlabDev {
    vgpu::DeviceBuffer<mat::offset_t> row_off;
    vgpu::DeviceBuffer<mat::index_t> col_idx;
    vgpu::DeviceBuffer<T> vals;
    std::array<vgpu::DeviceBuffer<mat::index_t>, 5> bins;
    vgpu::DeviceBuffer<T> y;
    std::size_t meta_bytes = 0;
  };

  static std::size_t slab_data_bytes(mat::index_t rows, mat::offset_t nz) {
    return (static_cast<std::size_t>(rows) + 1) * sizeof(mat::offset_t) +
           static_cast<std::size_t>(nz) *
               (sizeof(mat::index_t) + sizeof(T));
  }

  /// Greedy row partition: consecutive rows until the slab set would
  /// exceed half the budget (two sets are resident while streaming). A
  /// single row heavier than the cap still gets its own slab — it must
  /// run somewhere.
  void partition() {
    const std::size_t cap = std::max<std::size_t>(budget_ / 2, 4096);
    std::size_t file_offset = 0;
    mat::index_t r = 0;
    while (r < host_.rows) {
      mat::index_t e = r;
      while (e < host_.rows) {
        const mat::offset_t nz =
            host_.row_off[static_cast<std::size_t>(e) + 1] -
            host_.row_off[static_cast<std::size_t>(r)];
        if (e > r && slab_data_bytes(e + 1 - r, nz) > cap) break;
        ++e;
      }
      Slab s;
      s.row_begin = r;
      s.row_end = e;
      s.file_offset = file_offset;
      const mat::offset_t nz = host_.row_off[static_cast<std::size_t>(e)] -
                               host_.row_off[static_cast<std::size_t>(r)];
      s.bytes = slab_data_bytes(e - r, nz);
      for (mat::index_t row = r; row < e; ++row) {
        const mat::offset_t len =
            host_.row_off[static_cast<std::size_t>(row) + 1] -
            host_.row_off[static_cast<std::size_t>(row)];
        if (len == 0) continue;  // empty rows store nothing; y stays 0
        const int v = spmv::choose_vector_size(static_cast<double>(len));
        int b = 0;
        while ((2 << b) != v) ++b;
        s.bins[static_cast<std::size_t>(b)].push_back(row - r);
      }
      for (const auto& bin : s.bins)
        s.meta_bytes += bin.size() * sizeof(mat::index_t);
      file_offset += s.bytes;
      slabs_.push_back(std::move(s));
      r = e;
    }
  }

  /// Issue slab i's chunk read on the tier, delivering into fresh host
  /// staging. Returns the simulated completion time.
  double submit_read(storage::StorageTier& tier, std::vector<Stage>& staged,
                     std::size_t i) {
    const Slab& s = slabs_[i];
    Stage& st = staged[i];
    const auto nrows = static_cast<std::size_t>(s.row_end - s.row_begin);
    const auto base = static_cast<std::size_t>(s.row_begin);
    const auto nz0 = static_cast<std::size_t>(host_.row_off[base]);
    const auto nz = static_cast<std::size_t>(
                        host_.row_off[base + nrows]) - nz0;
    st.row_off.resize(nrows + 1);
    st.col_idx.resize(nz);
    st.vals.resize(nz);
    std::vector<storage::Segment> segs;
    auto add = [&segs](storage::Segment seg) {
      if (seg.bytes > 0) segs.push_back(seg);
    };
    add(storage::make_segment(host_.row_off, base, st.row_off, nrows + 1));
    add(storage::make_segment(host_.col_idx, nz0, st.col_idx, nz));
    add(storage::make_segment(host_.vals, nz0, st.vals, nz));
    return tier.read_chunk("slab" + std::to_string(i), s.file_offset,
                           std::move(segs));
  }

  /// Allocate slab i's device set and fill it from the delivered staging
  /// (rebasing the row offsets to the slab's value window).
  SlabDev make_buffers(std::size_t i, Stage& st) {
    const Slab& s = slabs_[i];
    const std::string tag = "ooc.slab" + std::to_string(i);
    const mat::offset_t rebase = st.row_off.front();
    for (mat::offset_t& o : st.row_off) o -= rebase;
    SlabDev d;
    d.row_off = this->dev_.template alloc<mat::offset_t>(st.row_off.size(),
                                                         tag + ".row_off");
    d.row_off.host() = st.row_off;
    d.col_idx = this->dev_.template alloc<mat::index_t>(st.col_idx.size(),
                                                        tag + ".col_idx");
    d.col_idx.host() = st.col_idx;
    d.vals = this->dev_.template alloc<T>(st.vals.size(), tag + ".vals");
    d.vals.host() = st.vals;
    for (std::size_t b = 0; b < s.bins.size(); ++b) {
      if (s.bins[b].empty()) continue;
      d.bins[b] = this->dev_.template alloc<mat::index_t>(
          s.bins[b].size(), tag + ".bin" + std::to_string(2 << b));
      d.bins[b].host() = s.bins[b];
    }
    d.y = this->dev_.template alloc<T>(
        static_cast<std::size_t>(s.row_end - s.row_begin), tag + ".y");
    d.meta_bytes = s.meta_bytes;
    return d;
  }

  /// Move the anchor past this timeline's work and append its log,
  /// rebased to absolute trace time (see trace_timeline_log()).
  void retain_trace(const vgpu::StreamTimeline& tl, double base) {
    double end = 0.0;
    for (const vgpu::StreamTimeline::LogEntry& e : tl.log())
      end = std::max(end, e.end_s);
    slo::Tracer::instance().advance_anchor(base + end);
    for (const vgpu::StreamTimeline::LogEntry& e : tl.log())
      trace_log_.push_back({e.stream, base + e.start_s, base + e.end_s,
                            e.tag});
  }

  /// Charge one H2D transfer to the device/report; returns its duration
  /// for the h2d stream.
  double charge_transfer(std::size_t bytes) {
    const vgpu::TransferRun tr = this->dev_.note_transfer(bytes);
    this->report_.h2d_bytes += tr.bytes;
    this->report_.h2d_s += tr.duration_s;
    return tr.duration_s;
  }

  /// Launch slab i's per-bin grids concurrently; returns the group's
  /// combined simulated seconds.
  double run_slab(std::size_t i, SlabDev& d,
                  vgpu::DeviceSpan<const T> x_dev, vgpu::KernelRun& agg,
                  std::uint64_t& launches) {
    const Slab& s = slabs_[i];
    const auto nrows = static_cast<std::size_t>(s.row_end - s.row_begin);
    if (nrows == 0) return 0.0;
    auto rs = d.row_off.cspan().subspan(0, nrows);
    auto re = d.row_off.cspan().subspan(1, nrows);
    auto ci = d.col_idx.cspan();
    auto va = d.vals.cspan();
    auto ys = d.y.span();
    vgpu::ConcurrentGroup group(this->dev_);
    for (std::size_t b = 0; b < s.bins.size(); ++b) {
      if (s.bins[b].empty()) continue;
      const int v = 2 << b;
      const int rows_per_warp = vgpu::kWarpSize / v;
      const long long n_slots =
          static_cast<long long>(s.bins[b].size());
      const long long warps = (n_slots + rows_per_warp - 1) / rows_per_warp;
      vgpu::LaunchConfig cfg;
      cfg.name = "ooc_slab_bin" + std::to_string(v);
      cfg.block_dim = 128;
      cfg.grid_dim = std::max<long long>(1, (warps + 3) / 4);
      auto row_map = d.bins[b].cspan();
      const bool tex = opt_.use_texture;
      const vgpu::KernelRun run =
          group.launch_warps(cfg, [&](vgpu::Warp& w) {
            const long long first = w.global_warp() * rows_per_warp;
            if (first >= n_slots) return;
            spmv::csr_vector_warp<T>(w, v, rs, re, ci, va, x_dev, ys,
                                     row_map, n_slots, first, tex);
          });
      if (launches == 0) {
        agg = run;
      } else {
        agg.counters += run.counters;
        agg.duration_s += run.duration_s;
      }
      ++launches;
    }
    return group.runs().empty() ? 0.0 : group.seconds();
  }

  mat::Csr<T> host_;
  OocOptions opt_;
  std::size_t budget_ = 0;
  std::vector<Slab> slabs_;
  prof::IoAgg last_io_;
  double last_makespan_ = 0.0;
  std::vector<vgpu::StreamTimeline::LogEntry> trace_log_;
};

/// Shape class of the slab bin grids: the csr_vector structure over a
/// slab-local injective row map (each slab row in at most one bin), with
/// slab-local extent arrays and a slab-local y — the same soundness
/// grounds as the ACSR bin grids (docs/ANALYSIS.md). n_rows here is the
/// *slab* height; col_idx stays global because x is fully resident.
inline analysis::ShapeClass ooc_shape_class() {
  namespace an = acsr::analysis;
  const an::Sym n_rows = an::Sym::param("n_rows");
  const an::Sym n_cols = an::Sym::param("n_cols");
  const an::Sym nnz = an::Sym::param("nnz");
  const an::Sym n_slots = an::Sym::param("n_slots");
  an::ShapeClass sc;
  sc.engine = "ooc-csr";
  sc.params = {an::param("n_rows", 0, "slab rows"),
               an::param("n_cols", 0, "matrix columns"),
               an::param("nnz", 0, "slab non-zeros"),
               an::param("n_slots", 0, "rows in the launched bin"),
               an::param("grid", 1, "launch grid dim")};
  sc.spans = {
      an::index_span("row_start", n_rows, {an::Sym(0), nnz},
                     "slab-rebased per-row begin offsets", true),
      an::index_span("row_end", n_rows, {an::Sym(0), nnz},
                     "slab-rebased per-row end offsets", true),
      an::index_span("col_idx", nnz, {an::Sym(0), n_cols - an::Sym(1)},
                     "column indices (global: x is resident)"),
      an::data_span("vals", nnz, "slab non-zero values"),
      an::data_span("x", n_cols, "input vector"),
      an::data_span("y", n_rows, "slab output vector",
                    /*initialized=*/false),
      an::index_span("ooc.bin_rows", n_slots,
                     {an::Sym(0), n_rows - an::Sym(1)},
                     "slab-local bin row maps (each row in at most one bin)",
                     false, true),
  };
  return sc;
}

}  // namespace acsr::core
