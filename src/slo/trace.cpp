#include "slo/trace.hpp"

#include "common/check.hpp"
#include "prof/prof.hpp"

namespace acsr::slo {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueueWait:
      return "queue-wait";
    case SpanKind::kServe:
      return "serve";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kUpload:
      return "upload";
    case SpanKind::kCompute:
      return "compute";
    case SpanKind::kIo:
      return "io";
    case SpanKind::kRetryBackoff:
      return "retry-backoff";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::finish(Span s) {
  ACSR_CHECK_MSG(s.end_s >= s.start_s,
                 "slo: span '" << s.name << "' ends before it starts");
  hists_[static_cast<std::size_t>(s.kind)].add(s.duration());
  if (prof::profiler_enabled()) [[unlikely]]
    prof::Profiler::instance().add_completed_span("slo:" + s.track, s.name,
                                                  s.start_s, s.end_s);
  spans_.push_back(std::move(s));
}

std::uint64_t Tracer::open(SpanKind kind, std::string name,
                           std::string track, double start_s) {
  OpenSpan o;
  o.span.id = next_id_++;
  o.span.parent = current();
  o.span.kind = kind;
  o.span.name = std::move(name);
  o.span.track = std::move(track);
  o.span.start_s = start_s;
  o.anchor = start_s;
  open_.push_back(std::move(o));
  return open_.back().span.id;
}

void Tracer::close(double end_s) {
  ACSR_CHECK_MSG(!open_.empty(), "slo: close with no open span");
  Span s = std::move(open_.back().span);
  open_.pop_back();
  s.end_s = end_s;
  finish(std::move(s));
}

std::uint64_t Tracer::current() const {
  return open_.empty() ? 0 : open_.back().span.id;
}

void Tracer::annotate_open(const std::string& key,
                           const std::string& value) {
  if (open_.empty()) return;
  open_.back().span.name += " [" + key + "=" + value + "]";
}

std::uint64_t Tracer::add(SpanKind kind, std::string name,
                          std::string track, double start_s, double end_s) {
  Span s;
  s.id = next_id_++;
  s.parent = current();
  s.kind = kind;
  s.name = std::move(name);
  s.track = std::move(track);
  s.start_s = start_s;
  s.end_s = end_s;
  const std::uint64_t id = s.id;
  finish(std::move(s));
  return id;
}

std::uint64_t Tracer::charge(SpanKind kind, std::string name,
                             std::string track, double duration_s) {
  ACSR_CHECK(duration_s >= 0.0);
  const std::uint64_t parent = current();
  const auto key = std::make_pair(parent, track);
  auto it = cursors_.find(key);
  if (it == cursors_.end()) {
    const double base = open_.empty() ? 0.0 : open_.back().span.start_s;
    it = cursors_.emplace(key, base).first;
  }
  const double start = it->second;
  it->second = start + duration_s;
  return add(kind, std::move(name), std::move(track), start,
             start + duration_s);
}

double Tracer::anchor() const {
  return open_.empty() ? root_anchor_ : open_.back().anchor;
}

void Tracer::advance_anchor(double end_s) {
  double& a = open_.empty() ? root_anchor_ : open_.back().anchor;
  if (end_s > a) a = end_s;
}

void Tracer::record_request(const TraceContext& ctx, double launch_s,
                            double end_s, const std::string& batch_label) {
  ACSR_CHECK(ctx.enqueue_s <= launch_s && launch_s <= end_s);
  const std::string track =
      "req:" + ctx.tenant + "#" + std::to_string(ctx.request_id);
  Span root;
  root.id = next_id_++;
  root.parent = 0;
  root.kind = SpanKind::kRequest;
  root.name = "request " + ctx.tenant + "#" + std::to_string(ctx.request_id);
  root.track = track;
  root.tenant = ctx.tenant;
  root.request = ctx.request_id;
  root.start_s = ctx.enqueue_s;
  root.end_s = end_s;

  Span wait;
  wait.id = next_id_++;
  wait.parent = root.id;
  wait.kind = SpanKind::kQueueWait;
  wait.name = "queue-wait";
  wait.track = track;
  wait.tenant = ctx.tenant;
  wait.request = ctx.request_id;
  wait.start_s = ctx.enqueue_s;
  wait.end_s = launch_s;

  Span serve;
  serve.id = next_id_++;
  serve.parent = root.id;
  serve.kind = SpanKind::kServe;
  serve.name = "serve:" + batch_label;
  serve.track = track;
  serve.tenant = ctx.tenant;
  serve.request = ctx.request_id;
  serve.start_s = launch_s;
  serve.end_s = end_s;

  finish(std::move(root));
  finish(std::move(wait));
  finish(std::move(serve));
}

double Tracer::track_charge(const std::string& track) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.track == track) t += s.duration();
  return t;
}

void Tracer::clear() {
  next_id_ = 1;
  open_.clear();
  root_anchor_ = 0.0;
  spans_.clear();
  cursors_.clear();
  hists_ = {};
}

}  // namespace acsr::slo
