#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/convert.hpp"
#include "api/session.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/decoder.hpp"
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

void add_counters(ReuseCounters& into, const ReuseCounters& after,
                  const ReuseCounters& before) {
  into.huffman_builds += after.huffman_builds - before.huffman_builds;
  into.reciprocal_builds += after.reciprocal_builds - before.reciprocal_builds;
  into.quality_table_builds += after.quality_table_builds - before.quality_table_builds;
  into.huffman_decoder_builds +=
      after.huffman_decoder_builds - before.huffman_decoder_builds;
}

}  // namespace

LatencySummary summarize(const stats::Histogram& h, double exact_max_us) {
  LatencySummary s;
  s.count = h.total();
  if (s.count == 0) return s;
  s.p50_us = h.quantile(0.50);
  s.p95_us = h.quantile(0.95);
  s.p99_us = h.quantile(0.99);
  s.max_us = exact_max_us;
  return s;
}

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

/// Per-worker accounting. Each worker mutates only its own instance, under
/// its own mutex (uncontended in steady state — stats() is the only other
/// reader), which keeps the hot path lock-cheap and the whole structure
/// TSan-clean.
struct TranscodeService::WorkerStats {
  /// Per-tenant slice of this worker's counters, keyed by tenant name.
  /// std::map so stats() merges in sorted order for free.
  struct TenantCounters {
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    ReuseCounters ctx;
    stats::Histogram service_time = make_tenant_latency_histogram();
    double service_max_us = 0.0;
  };

  std::mutex mutex;
  stats::Histogram queue_wait = make_latency_histogram();
  stats::Histogram service_time = make_latency_histogram();
  stats::Histogram total = make_latency_histogram();
  double queue_wait_max_us = 0.0;
  double service_time_max_us = 0.0;
  double total_max_us = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t per_kind[kNumRequestKinds] = {0, 0, 0, 0, 0};
  ReuseCounters ctx;
  std::map<std::string, TenantCounters> tenants;
};

TranscodeService::TranscodeService(ServiceConfig config) : config_(std::move(config)) {
  config_.workers = std::max(1, config_.workers);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  if (!config_.registry) config_.registry = std::make_shared<TableRegistry>();
  if (!config_.metrics) config_.metrics = std::make_shared<obs::Registry>();
  // The submission counters ARE registry instruments (stats() reads them
  // back), so the exporters and ServiceStats share one source of truth.
  submitted_ = &config_.metrics->counter("serve_requests_submitted_total");
  rejected_ = &config_.metrics->counter("serve_requests_rejected_total");
  refused_shutdown_ =
      &config_.metrics->counter("serve_requests_refused_shutdown_total");
  submit_errors_ = &config_.metrics->counter("serve_submit_errors_total");

  queue_ = std::make_unique<runtime::MpmcQueue<Job>>(config_.queue_capacity);
  worker_stats_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w)
    worker_stats_.push_back(std::make_unique<WorkerStats>());

  // A private pool, not ThreadPool::global(): pumps occupy their worker for
  // the service's whole lifetime, which would starve the shared pool's
  // parallel loops. Each pump is one submitted task; with exactly as many
  // workers as pumps every worker runs exactly one pump, and the pool
  // destructor's drain guarantee is what shutdown() leans on.
  workers_ = std::make_unique<runtime::ThreadPool>(static_cast<unsigned>(config_.workers));
  for (const std::unique_ptr<WorkerStats>& ws : worker_stats_)
    workers_->submit([this, stats = ws.get()] { pump(*stats); });

  // Registered last: the collector snapshots stats(), which needs every
  // member above. remove_collector in the destructor blocks until any
  // in-flight gather() returns, so the captured `this` can never dangle
  // even when the registry shared_ptr outlives this service.
  metrics_collector_ = config_.metrics->add_collector(
      [this](std::vector<obs::Sample>& out) { collect_metrics(out); });
}

TranscodeService::~TranscodeService() {
  config_.metrics->remove_collector(metrics_collector_);
  shutdown();
}

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
      submit_errors_->inc();
      refuse(std::move(job), Status::kError, "unknown tenant: " + job.req.tenant);
      return;
    }
  }
  job.enqueue = Clock::now();

  const bool accepted = config_.admission == AdmissionPolicy::kReject
                            ? queue_->try_push(job)
                            : queue_->push(job);
  if (!accepted) {
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

void TranscodeService::pump(WorkerStats& ws) {
  // process() takes the job by value, so a finished request is freed there,
  // after its reply went out. Were `job` reused with the last request still
  // in it, the next pop() would free that request inside the queue's
  // critical section, where submitters wait on the same mutex.
  Job job;
  while (queue_->pop(job)) process(std::move(job), ws);
}

void TranscodeService::process(Job job, WorkerStats& ws) {
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
  // stats() before its future is fulfilled. The lock is uncontended in
  // steady state — stats() is the only other party that ever takes it.
  {
    std::lock_guard<std::mutex> lock(ws.mutex);
    const double total_us = us_between(job.enqueue, done);
    ws.queue_wait.add(resp.queue_us);
    ws.service_time.add(resp.service_us);
    ws.total.add(total_us);
    ws.queue_wait_max_us = std::max(ws.queue_wait_max_us, resp.queue_us);
    ws.service_time_max_us = std::max(ws.service_time_max_us, resp.service_us);
    ws.total_max_us = std::max(ws.total_max_us, total_us);
    ++ws.per_kind[static_cast<int>(job.req.kind)];
    if (resp.status == Status::kOk) ++ws.completed; else ++ws.errors;
    const ReuseCounters& after = ctx.reuse_counters();
    add_counters(ws.ctx, after, before);
    if (job.tenant) {
      WorkerStats::TenantCounters& tc = ws.tenants[job.tenant->name];
      ++tc.requests;
      if (resp.status == Status::kOk) ++tc.completed; else ++tc.errors;
      add_counters(tc.ctx, after, before);
      tc.service_time.add(resp.service_us);
      tc.service_max_us = std::max(tc.service_max_us, resp.service_us);
    }
  }
  fulfill(std::move(job), std::move(resp));
}

namespace {

/// Folds a façade status into a Response: any non-ok api status becomes a
/// typed kError with the façade's message (the serve taxonomy's catch-all
/// for handler failures — exactly what the pre-façade exception path
/// produced, message for message).
bool fold_status(const api::Status& status, Response& r) {
  if (status.ok()) return true;
  r = Response{};
  r.status = Status::kError;
  r.error = status.message();
  return false;
}

}  // namespace

Response TranscodeService::run(const Request& req, const TenantEntry* tenant) {
  // The codec request kinds run through the public façade (dnj::api) —
  // the service is the façade's first in-tree consumer, so the boundary
  // contract (typed statuses in, bit-identical payloads out) is exercised
  // by every serving test. Session binds codec work to this worker
  // thread's codec context, the same warm arenas the direct calls used;
  // payloads are byte-identical to the pre-façade implementation. One
  // deliberate tightening rides along: the façade validates options, so a
  // request whose config carries quality outside [1, 100] (which raw
  // jpeg::encode silently clamps) now gets a typed kError instead of
  // clamped bytes. execute() shares this path, so the submit()==execute()
  // determinism contract is unaffected.
  static thread_local api::Session session;
  const api::Codec codec = session.codec();
  Response r;
  try {
    switch (req.kind) {
      case RequestKind::kEncode: {
        api::Result<std::vector<std::uint8_t>> res =
            codec.encode(req.image.view(), api::detail::from_config(req.config));
        if (fold_status(res.status(), r)) r.bytes = res.take();
        break;
      }
      case RequestKind::kDecode: {
        api::Result<api::DecodedImage> res = codec.decode(req.bytes);
        if (fold_status(res.status(), r)) {
          api::DecodedImage img = res.take();
          r.image = image::Image(img.width, img.height, img.channels,
                                 std::move(img.pixels));
        }
        break;
      }
      case RequestKind::kTranscode: {
        api::Result<std::vector<std::uint8_t>> res =
            codec.transcode(req.bytes, api::detail::from_config(req.config));
        if (fold_status(res.status(), r)) r.bytes = res.take();
        break;
      }
      case RequestKind::kDeepnEncode: {
        api::Result<std::vector<std::uint8_t>> res = codec.encode(
            req.image.view(),
            api::detail::from_config(deepn_config(req.quality, tenant)));
        if (fold_status(res.status(), r)) r.bytes = res.take();
        break;
      }
      case RequestKind::kInfer: {
        if (!config_.model)
          throw std::runtime_error("kInfer request but no model configured");
        const image::Image img =
            jpeg::decode(req.bytes, jpeg::pipeline::thread_codec_context());
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
  s.rejected = rejected_->value();
  s.refused_shutdown = refused_shutdown_->value();
  s.queue_capacity = queue_->capacity();
  s.queue_high_water = queue_->high_water();

  // Unknown-tenant refusals error at submission — no worker ever sees
  // them. Folding them into both errors and the kind tally preserves the
  // invariant sum(per_kind) == completed + errors.
  const std::uint64_t submit_errors = submit_errors_->value();
  s.errors += submit_errors;
  s.per_kind[static_cast<int>(RequestKind::kDeepnEncode)] += submit_errors;

  stats::Histogram queue_wait = make_latency_histogram();
  stats::Histogram service_time = make_latency_histogram();
  stats::Histogram total = make_latency_histogram();
  double queue_wait_max = 0.0, service_time_max = 0.0, total_max = 0.0;
  struct TenantMerge {
    TenantStats out;
    stats::Histogram service_time = make_tenant_latency_histogram();
    double service_max_us = 0.0;
  };
  std::map<std::string, TenantMerge> tenants;
  for (const std::unique_ptr<WorkerStats>& wsp : worker_stats_) {
    WorkerStats& ws = *wsp;
    std::lock_guard<std::mutex> lock(ws.mutex);
    s.completed += ws.completed;
    s.errors += ws.errors;
    for (int k = 0; k < kNumRequestKinds; ++k) s.per_kind[k] += ws.per_kind[k];
    s.ctx_huffman_builds += ws.ctx.huffman_builds;
    s.ctx_reciprocal_builds += ws.ctx.reciprocal_builds;
    s.ctx_quality_table_builds += ws.ctx.quality_table_builds;
    s.ctx_decoder_builds += ws.ctx.huffman_decoder_builds;
    queue_wait.merge(ws.queue_wait);
    service_time.merge(ws.service_time);
    total.merge(ws.total);
    queue_wait_max = std::max(queue_wait_max, ws.queue_wait_max_us);
    service_time_max = std::max(service_time_max, ws.service_time_max_us);
    total_max = std::max(total_max, ws.total_max_us);
    for (const auto& [name, tc] : ws.tenants) {
      TenantMerge& m = tenants[name];
      m.out.requests += tc.requests;
      m.out.completed += tc.completed;
      m.out.errors += tc.errors;
      m.out.ctx_huffman_builds += tc.ctx.huffman_builds;
      m.out.ctx_reciprocal_builds += tc.ctx.reciprocal_builds;
      m.out.ctx_quality_table_builds += tc.ctx.quality_table_builds;
      m.out.ctx_decoder_builds += tc.ctx.huffman_decoder_builds;
      m.service_time.merge(tc.service_time);
      m.service_max_us = std::max(m.service_max_us, tc.service_max_us);
    }
  }
  s.queue_wait = summarize(queue_wait, queue_wait_max);
  s.service_time = summarize(service_time, service_time_max);
  s.total = summarize(total, total_max);
  s.tenants.reserve(tenants.size());
  for (auto& [name, m] : tenants) {
    m.out.name = name;
    m.out.service_time = summarize(m.service_time, m.service_max_us);
    s.tenants.push_back(std::move(m.out));
  }
  return s;
}

void TranscodeService::collect_metrics(std::vector<obs::Sample>& out) const {
  // One snapshot per gather(): everything ServiceStats knows, as samples.
  // The submission counters are owned registry instruments and are NOT
  // re-emitted here. stats() touches worker mutexes and queue counters
  // only — never this registry — so running under the registry mutex
  // cannot deadlock.
  const ServiceStats s = stats();
  auto counter = [&out](const char* name, std::uint64_t v, obs::Labels labels = {}) {
    out.push_back({name, std::move(labels), static_cast<double>(v),
                   obs::SampleKind::kCounter});
  };
  auto gauge = [&out](const char* name, double v, obs::Labels labels = {}) {
    out.push_back({name, std::move(labels), v, obs::SampleKind::kGauge});
  };
  auto latency = [&](const std::string& prefix, const LatencySummary& l,
                     obs::Labels labels = obs::Labels{}) {
    auto with = [&labels](const char* key, const char* value) {
      obs::Labels ls = labels;
      ls.emplace_back(key, value);
      return ls;
    };
    counter((prefix + "_count").c_str(), l.count, labels);
    gauge((prefix + "_us").c_str(), l.p50_us, with("quantile", "0.5"));
    gauge((prefix + "_us").c_str(), l.p95_us, with("quantile", "0.95"));
    gauge((prefix + "_us").c_str(), l.p99_us, with("quantile", "0.99"));
    gauge((prefix + "_us_max").c_str(), l.max_us, labels);
  };

  counter("serve_requests_completed_total", s.completed);
  counter("serve_requests_errors_total", s.errors);
  for (int k = 0; k < kNumRequestKinds; ++k)
    counter("serve_requests_by_kind_total", s.per_kind[k],
            {{"kind", kind_name(static_cast<RequestKind>(k))}});
  gauge("serve_queue_capacity", static_cast<double>(s.queue_capacity));
  gauge("serve_queue_high_water", static_cast<double>(s.queue_high_water));
  counter("serve_ctx_huffman_builds_total", s.ctx_huffman_builds);
  counter("serve_ctx_reciprocal_builds_total", s.ctx_reciprocal_builds);
  counter("serve_ctx_quality_table_builds_total", s.ctx_quality_table_builds);
  counter("serve_ctx_decoder_builds_total", s.ctx_decoder_builds);
  latency("serve_queue_wait", s.queue_wait);
  latency("serve_service_time", s.service_time);
  latency("serve_total", s.total);
  for (const TenantStats& t : s.tenants) {
    const obs::Labels tl = {{"tenant", t.name}};
    counter("serve_tenant_requests_total", t.requests, tl);
    counter("serve_tenant_completed_total", t.completed, tl);
    counter("serve_tenant_errors_total", t.errors, tl);
    counter("serve_tenant_ctx_huffman_builds_total", t.ctx_huffman_builds, tl);
    counter("serve_tenant_ctx_reciprocal_builds_total", t.ctx_reciprocal_builds, tl);
    counter("serve_tenant_ctx_quality_table_builds_total",
            t.ctx_quality_table_builds, tl);
    counter("serve_tenant_ctx_decoder_builds_total", t.ctx_decoder_builds, tl);
    latency("serve_tenant_service_time", t.service_time, tl);
  }
}

}  // namespace dnj::serve
