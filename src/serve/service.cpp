#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/transcode.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/encoder.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"

namespace dnj::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Steady-clock time point -> the tracer's nanosecond timeline (both are
/// steady_clock, so span timestamps and latency math share one clock).
std::uint64_t to_trace_ns(Clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
          .count());
}

using ReuseCounters = jpeg::pipeline::CodecContext::ReuseCounters;

/// The same type as TranscodeService::RebuildCounters.
using RebuildCounters = std::array<obs::Counter*, 4>;

/// The four context-rebuild series, in RebuildCounters order: each name's
/// suffix and the ReuseCounters field it sums.
struct RebuildSeries {
  const char* suffix;
  std::uint64_t ReuseCounters::*field;
};
constexpr RebuildSeries kRebuildSeries[] = {
    {"huffman_builds_total", &ReuseCounters::huffman_builds},
    {"reciprocal_builds_total", &ReuseCounters::reciprocal_builds},
    {"quality_table_builds_total", &ReuseCounters::quality_table_builds},
    {"decoder_builds_total", &ReuseCounters::huffman_decoder_builds},
};

RebuildCounters make_rebuilds(obs::Registry& m, const std::string& prefix,
                              const obs::Labels& labels) {
  RebuildCounters c{};
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = &m.counter(prefix + kRebuildSeries[i].suffix, labels);
  return c;
}

/// Adds one request's rebuilds; the steady state rebuilds nothing and
/// touches no counter.
void add_rebuilds(const RebuildCounters& c, const ReuseCounters& after,
                  const ReuseCounters& before) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    const std::uint64_t delta = after.*kRebuildSeries[i].field - before.*kRebuildSeries[i].field;
    if (delta != 0) c[i]->inc(delta);
  }
}

/// ServiceStats and TenantStats share the four ctx_*_builds fields.
template <typename Stats>
void read_rebuilds(const RebuildCounters& c, Stats& out) {
  out.ctx_huffman_builds = c[0]->value();
  out.ctx_reciprocal_builds = c[1]->value();
  out.ctx_quality_table_builds = c[2]->value();
  out.ctx_decoder_builds = c[3]->value();
}

LatencySummary summarize(const obs::HistogramHandle& h) {
  LatencySummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.p50_us = h.quantile(0.50);
  s.p95_us = h.quantile(0.95);
  s.p99_us = h.quantile(0.99);
  s.max_us = h.max();
  return s;
}

}  // namespace

/// One queued request: the request itself, its completion (a promise OR a
/// callback — never both), and everything the worker needs without
/// re-deriving it (pinned tenant snapshot, submission timestamp).
struct TranscodeService::Job {
  Request req;
  /// Engaged only by submit(Request): a default-constructed std::promise
  /// allocates its shared state, which a callback request never reads.
  std::optional<std::promise<Response>> promise;
  Callback done;  ///< when set, completion goes here instead of the promise
  /// Pinned at submission: the tenant configuration this request will run
  /// under, whatever the registry does meanwhile. Null for tenantless
  /// requests.
  std::shared_ptr<const TenantEntry> tenant;
  Clock::time_point enqueue;

  // Observability only — which trace this job records spans into (0 =
  // unsampled), the root span its children attach to, and whether the
  // service opened the trace itself (then it also records the root; a net
  // front end that opened the trace records its own root instead).
  std::uint64_t trace_id = 0;
  std::uint32_t trace_parent = 0;
  bool trace_owned = false;
};

TranscodeService::TranscodeService(ServiceConfig config) : config_(std::move(config)) {
  config_.workers = std::max(1, config_.workers);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  if (!config_.registry) config_.registry = std::make_shared<TableRegistry>();
  if (!config_.metrics) config_.metrics = std::make_shared<obs::Registry>();
  // Every tally is a registry instrument (stats() reads them back), so the
  // exporters and ServiceStats share one source of truth. All service-wide
  // series exist from construction, so a fresh scrape shows them at 0.
  obs::Registry& m = *config_.metrics;
  submitted_ = &m.counter("serve_requests_submitted_total");
  rejected_ = &m.counter("serve_requests_rejected_total");
  refused_shutdown_ = &m.counter("serve_requests_refused_shutdown_total");
  submit_errors_ = &m.counter("serve_submit_errors_total");
  completed_ = &m.counter("serve_requests_completed_total");
  errors_ = &m.counter("serve_requests_errors_total");
  for (int k = 0; k < kNumRequestKinds; ++k)
    per_kind_[k] = &m.counter("serve_requests_by_kind_total",
                              {{"kind", kind_name(static_cast<RequestKind>(k))}});
  rebuilds_ = make_rebuilds(m, "serve_ctx_", {});
  queue_wait_ = &m.histogram("serve_queue_wait_us", {}, kLatencyLoUs, kLatencyHiUs, kLatencyBins);
  service_time_ =
      &m.histogram("serve_service_time_us", {}, kLatencyLoUs, kLatencyHiUs, kLatencyBins);
  total_ = &m.histogram("serve_total_us", {}, kLatencyLoUs, kLatencyHiUs, kLatencyBins);
  queue_capacity_ = &m.gauge("serve_queue_capacity");
  queue_capacity_->add(static_cast<double>(config_.queue_capacity));
  queue_high_water_ = &m.gauge("serve_queue_high_water");

  queue_ = std::make_unique<runtime::MpmcQueue<Job>>(config_.queue_capacity);

  // A private pool, not ThreadPool::global(): pumps occupy their worker for
  // the service's whole lifetime, which would starve the shared pool's
  // parallel loops. Each pump is one submitted task; with exactly as many
  // workers as pumps every worker runs exactly one pump, and the pool
  // destructor's drain guarantee is what shutdown() leans on.
  workers_ = std::make_unique<runtime::ThreadPool>(static_cast<unsigned>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) workers_->submit([this] { pump(); });
}

TranscodeService::~TranscodeService() { shutdown(); }

void TranscodeService::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  queue_->close();   // refuse new work, wake blocked submitters and pumps
  workers_.reset();  // pumps drain the accepted backlog, then workers join
}

std::future<Response> TranscodeService::submit(Request req) {
  Job job;
  job.req = std::move(req);
  std::future<Response> future = job.promise.emplace().get_future();
  submit_job(std::move(job));
  return future;
}

void TranscodeService::submit(Request req, Callback done) {
  Job job;
  job.req = std::move(req);
  job.done = std::move(done);
  submit_job(std::move(job));
}

void TranscodeService::submit_job(Job job) {
  submitted_->inc();
  // Adopt the front end's trace, or open one here for in-process callers.
  // Pure observability: the sampling decision never feeds into admission.
  job.trace_id = job.req.trace_id;
  job.trace_parent = job.req.trace_parent;
  if (job.trace_id == 0) {
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      job.trace_id = tracer.start_trace();
      if (job.trace_id != 0) {
        job.trace_parent = tracer.next_span_id();
        job.trace_owned = true;
      }
    }
  }
  if (job.req.kind == RequestKind::kDeepnEncode && !job.req.tenant.empty()) {
    // Resolve the tenant now: pinning the snapshot at submission is the
    // registry's consistency contract.
    job.tenant = config_.registry->find(job.req.tenant);
    if (!job.tenant) {
      // No worker ever sees this request, so it is tallied here as a
      // processed kDeepnEncode error: sum(per_kind) == completed + errors.
      submit_errors_->inc();
      errors_->inc();
      per_kind_[static_cast<int>(RequestKind::kDeepnEncode)]->inc();
      refuse(std::move(job), Status::kError, "unknown tenant: " + job.req.tenant);
      return;
    }
  }
  job.enqueue = Clock::now();

  const bool accepted = config_.admission == AdmissionPolicy::kReject
                            ? queue_->try_push(job)
                            : queue_->push(job);
  if (accepted) {
    // The queue's mark is read after this push, so it covers the occupancy
    // the push reached; raise_to never lowers what a racing submitter set.
    queue_high_water_->raise_to(static_cast<double>(queue_->high_water()));
    return;
  }
  // try_push fails on full or closed; push only on closed. Closed wins
  // the tie-break so shutdown refusals are always typed kShutdown.
  if (queue_->closed()) {
    refused_shutdown_->inc();
    refuse(std::move(job), Status::kShutdown, "service is shut down");
  } else {
    rejected_->inc();
    refuse(std::move(job), Status::kRejected, "submission queue full");
  }
}

void TranscodeService::fulfill(Job&& job, Response&& resp) {
  if (job.done) {
    // The callback contract says "must not throw"; enforcing it here keeps
    // a misbehaving callback from unwinding a pump (which would violate
    // the pool's no-throw task contract and take the process down).
    try {
      job.done(std::move(resp));
    } catch (...) {
    }
  } else if (job.promise) {  // empty only for a callback submit given no callback
    job.promise->set_value(std::move(resp));
  }
}

void TranscodeService::refuse(Job&& job, Status status, std::string why) {
  Response r;
  r.status = status;
  r.error = std::move(why);
  fulfill(std::move(job), std::move(r));
}

void TranscodeService::pump() {
  // process() takes the job by value, so a finished request is freed there,
  // after its reply went out. Were `job` reused with the last request still
  // in it, the next pop() would free that request inside the queue's
  // critical section, where submitters wait on the same mutex.
  Job job;
  while (queue_->pop(job)) process(std::move(job));
}

void TranscodeService::process(Job job) {
  // The pump thread's context persists across requests; its reuse counters
  // are read around this one request, so context-warmth deltas are
  // attributed exactly — to the service and to the request's tenant.
  const jpeg::pipeline::CodecContext& ctx = jpeg::pipeline::thread_codec_context();
  const ReuseCounters before = ctx.reuse_counters();
  const Clock::time_point picked = Clock::now();
  // Install the job's trace for this thread: codec-internal spans attach
  // under it without any id plumbing through run(). The queue-wait span
  // started on the submitting thread, so it is recorded with explicit
  // endpoints rather than RAII.
  obs::TraceScope trace(job.trace_id, job.trace_parent);
  obs::record_span(job.trace_id, job.trace_parent, obs::Stage::kQueueWait,
                   to_trace_ns(job.enqueue), to_trace_ns(picked));
  Response resp;
  {
    obs::Span request_span(obs::Stage::kBatch);
    resp = run(job.req, job.tenant.get());
  }
  const Clock::time_point done = Clock::now();
  // In-process submissions have no front end to close the root span;
  // the service owns the trace and records the root here.
  if (job.trace_owned)
    obs::record_span_as(job.trace_id, job.trace_parent, 0, obs::Stage::kRequest,
                        to_trace_ns(job.enqueue), to_trace_ns(done),
                        static_cast<std::uint64_t>(job.req.kind));
  resp.batch_size = 1;
  resp.queue_us = us_between(job.enqueue, picked);
  resp.service_us = us_between(picked, done);
  // Stats-ordering contract: everything this request changed is visible to
  // stats() before its future is fulfilled.
  queue_wait_->observe(resp.queue_us);
  service_time_->observe(resp.service_us);
  total_->observe(us_between(job.enqueue, done));
  per_kind_[static_cast<int>(job.req.kind)]->inc();
  const bool ok = resp.status == Status::kOk;
  (ok ? completed_ : errors_)->inc();
  const ReuseCounters& after = ctx.reuse_counters();
  add_rebuilds(rebuilds_, after, before);
  if (job.tenant) {
    const TenantInstruments& t = tenant_instruments(job.tenant->name);
    t.requests->inc();
    (ok ? t.completed : t.errors)->inc();
    add_rebuilds(t.rebuilds, after, before);
    t.service_time->observe(resp.service_us);
  }
  fulfill(std::move(job), std::move(resp));
}

const TranscodeService::TenantInstruments& TranscodeService::tenant_instruments(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  obs::Registry& m = *config_.metrics;
  const obs::Labels labels = {{"tenant", name}};
  TenantInstruments t;
  t.requests = &m.counter("serve_tenant_requests_total", labels);
  t.completed = &m.counter("serve_tenant_completed_total", labels);
  t.errors = &m.counter("serve_tenant_errors_total", labels);
  t.rebuilds = make_rebuilds(m, "serve_tenant_ctx_", labels);
  t.service_time = &m.histogram("serve_tenant_service_time_us", labels, kLatencyLoUs,
                                kLatencyHiUs, kTenantLatencyBins);
  return tenants_.emplace(name, t).first->second;
}

Response TranscodeService::run(const Request& req, const TenantEntry* tenant) {
  // Every handler runs on this thread's codec context: a pump's persists
  // across requests (warm arenas, cached tables), so a same-configuration
  // stream builds its tables once per worker. Payloads are byte-identical
  // to the public api::Codec calls on the same inputs, which run the same
  // codec functions on the caller's context.
  jpeg::pipeline::CodecContext& ctx = jpeg::pipeline::thread_codec_context();
  Response r;
  try {
    switch (req.kind) {
      case RequestKind::kEncode:
      case RequestKind::kTranscode:
        // jpeg::encode clamps quality; a config asking for Annex K tables
        // outside [1, 100] is refused, as the public API refuses it.
        if (!req.config.use_custom_tables &&
            (req.config.quality < 1 || req.config.quality > 100))
          throw std::invalid_argument("quality must be in [1, 100]");
        r.bytes = req.kind == RequestKind::kEncode
                      ? jpeg::encode(req.image, req.config, ctx)
                      : core::transcode_bytes(req.bytes, req.config, ctx);
        break;
      case RequestKind::kDecode:
        r.image = jpeg::decode(req.bytes, ctx);
        break;
      case RequestKind::kDeepnEncode:
        r.bytes = jpeg::encode(req.image, deepn_config(req.quality, tenant), ctx);
        break;
      case RequestKind::kInfer: {
        if (!config_.model)
          throw std::runtime_error("kInfer request but no model configured");
        const image::Image img = jpeg::decode(req.bytes, ctx);
        // Layer::forward caches activations for backward, so inference is
        // serialized; the output is a pure function of (weights, image),
        // which keeps the determinism contract intact.
        std::lock_guard<std::mutex> lock(model_mutex_);
        obs::Span span(obs::Stage::kInfer);
        r.probs = nn::predict_probs(*config_.model, img);
        break;
      }
    }
  } catch (const std::exception& e) {
    r = Response{};
    r.status = Status::kError;
    r.error = e.what();
  } catch (...) {
    // A non-std exception (a user-supplied model can throw anything) must
    // not unwind the pump — that would break the always-fulfilled future
    // guarantee and terminate the process via the pool's no-throw contract.
    r = Response{};
    r.status = Status::kError;
    r.error = "handler threw a non-std exception";
  }
  return r;
}

jpeg::EncoderConfig TranscodeService::deepn_config(int quality,
                                                   const TenantEntry* tenant) const {
  quality = std::clamp(quality, 1, 100);
  const jpeg::QuantTable& base_luma =
      tenant ? tenant->base.luma_table : config_.deepn_luma;
  const jpeg::QuantTable& base_chroma =
      tenant ? tenant->base.chroma_table : config_.deepn_chroma;

  // A tenant's entry carries its full encoder configuration — subsampling,
  // Huffman optimization, restart interval, comment all honored; only the
  // tables are replaced by their quality-scaled versions. The tenantless
  // path keeps its historical shape (4:4:4, defaults elsewhere).
  jpeg::EncoderConfig cfg;
  if (tenant != nullptr) cfg = tenant->base;
  else cfg.subsampling = jpeg::Subsampling::k444;
  cfg.use_custom_tables = true;
  cfg.luma_table = base_luma.scaled(quality);
  cfg.chroma_table = base_chroma.scaled(quality);
  return cfg;
}

Response TranscodeService::execute(const Request& req) {
  // Reference path: same handlers, same thread-local context mechanism,
  // but no queue, so scheduling correctness is testable by comparing
  // submit() against execute(). Tenant names resolve against the same
  // registry, pinned for the duration of this call.
  const TenantEntry* tenant = nullptr;
  std::shared_ptr<const TenantEntry> pin;
  if (req.kind == RequestKind::kDeepnEncode && !req.tenant.empty()) {
    pin = config_.registry->find(req.tenant);
    if (!pin) {
      Response r;
      r.status = Status::kError;
      r.error = "unknown tenant: " + req.tenant;
      return r;
    }
    tenant = pin.get();
  }
  return run(req, tenant);
}

ServiceStats TranscodeService::stats() const {
  ServiceStats s;
  s.submitted = submitted_->value();
  s.completed = completed_->value();
  s.errors = errors_->value();
  s.rejected = rejected_->value();
  s.refused_shutdown = refused_shutdown_->value();
  for (int k = 0; k < kNumRequestKinds; ++k) s.per_kind[k] = per_kind_[k]->value();
  s.queue_capacity = static_cast<std::uint64_t>(queue_capacity_->value());
  s.queue_high_water = static_cast<std::uint64_t>(queue_high_water_->value());
  read_rebuilds(rebuilds_, s);
  s.queue_wait = summarize(*queue_wait_);
  s.service_time = summarize(*service_time_);
  s.total = summarize(*total_);

  std::lock_guard<std::mutex> lock(tenants_mutex_);
  s.tenants.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStats ts;
    ts.name = name;
    ts.requests = t.requests->value();
    ts.completed = t.completed->value();
    ts.errors = t.errors->value();
    read_rebuilds(t.rebuilds, ts);
    ts.service_time = summarize(*t.service_time);
    s.tenants.push_back(std::move(ts));
  }
  return s;
}

}  // namespace dnj::serve
