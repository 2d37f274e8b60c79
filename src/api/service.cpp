// Async façade implementation: a pimpl over serve::TranscodeService that
// translates between the public types/Status taxonomy and the serving
// layer's Request/Response vocabulary.
#include "api/service.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "api/convert.hpp"
#include "jobs/job_manager.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace dnj::api {

namespace {

Status status_from_serve(const serve::Response& r) {
  switch (r.status) {
    case serve::Status::kOk:
      return Status::success();
    case serve::Status::kRejected:
      return {StatusCode::kRejected, r.error};
    case serve::Status::kShutdown:
      return {StatusCode::kShutdown, r.error};
    case serve::Status::kError:
      break;
  }
  // The serve layer flattens every handler failure to kError; the façade
  // can do no better than kInternal here — callers wanting the finer
  // kInvalidArgument/kDecodeError split get it from the synchronous Codec
  // (and from this façade's own submission-time validation).
  return {StatusCode::kInternal, r.error};
}

ServiceReply reply_from_response(serve::Response&& r) {
  ServiceReply reply;
  reply.status = status_from_serve(r);
  reply.bytes = std::move(r.bytes);
  reply.image.width = r.image.width();
  reply.image.height = r.image.height();
  reply.image.channels = r.image.channels();
  reply.image.pixels = std::move(r.image.data());
  reply.batch_size = r.batch_size;
  reply.queue_us = r.queue_us;
  reply.service_us = r.service_us;
  return reply;
}

}  // namespace

/// Either an in-flight future or an immediately-fulfilled reply (the
/// submission-time validation path never reaches the queue).
struct Pending::State {
  std::future<serve::Response> future;
  bool immediate = false;
  ServiceReply ready;
};

Pending::Pending() = default;
Pending::Pending(std::unique_ptr<State> state) : state_(std::move(state)) {}
Pending::~Pending() = default;
Pending::Pending(Pending&&) noexcept = default;
Pending& Pending::operator=(Pending&&) noexcept = default;

bool Pending::valid() const {
  return state_ != nullptr && (state_->immediate || state_->future.valid());
}

ServiceReply Pending::get() {
  if (!valid()) {
    ServiceReply r;
    r.status = {StatusCode::kInternal, "Pending::get() on an empty or consumed handle"};
    return r;
  }
  std::unique_ptr<State> state = std::move(state_);
  if (state->immediate) return std::move(state->ready);
  return reply_from_response(state->future.get());
}

struct Service::Impl {
  explicit Impl(serve::ServiceConfig cfg) : service(std::move(cfg)) {}
  serve::TranscodeService service;
  // Design-job manager behind the wire's v3 job ops. Declared after
  // `service` (it publishes into the service's registry and metrics plane)
  // and before `server` so teardown order is server -> jobs -> service.
  std::unique_ptr<jobs::JobManager> jobs;
  std::unique_ptr<net::Server> server;
};

Service::Service(const ServiceOptions& options) {
  serve::ServiceConfig cfg;
  cfg.workers = options.workers();
  cfg.queue_capacity = options.queue_capacity();
  cfg.admission = options.reject_when_full() ? serve::AdmissionPolicy::kReject
                                             : serve::AdmissionPolicy::kBlock;
  if (options.registry().has_value())
    cfg.registry = detail::RegistryAccess::impl(*options.registry());
  impl_ = std::make_unique<Impl>(std::move(cfg));
  if (options.design_workers() > 0) {
    jobs::JobManagerConfig job_cfg;
    job_cfg.workers = options.design_workers();
    job_cfg.queue_capacity = options.design_queue();
    job_cfg.checkpoint_interval = options.design_checkpoint_interval();
    // Share the serving registry (designed tenants become servable
    // immediately) and the metrics plane (one scrape answers for all
    // layers: serve_*, net_*, jobs_*).
    job_cfg.registry = impl_->service.registry();
    job_cfg.metrics = impl_->service.metrics_registry();
    impl_->jobs = std::make_unique<jobs::JobManager>(std::move(job_cfg));
  }
}

Service::~Service() = default;
Service::Service(Service&&) noexcept = default;
Service& Service::operator=(Service&&) noexcept = default;

// Pending construction, written as Service members so they can reach
// Pending's private state through the friend declaration.
Pending Service::immediate(Status status) {
  auto state = std::make_unique<Pending::State>();
  state->immediate = true;
  state->ready.status = std::move(status);
  return Pending(std::move(state));
}

Pending Service::encode(ImageView image, const EncodeOptions& options) {
  if (Status s = detail::validate_image(image); !s.ok())
    return immediate(std::move(s));
  if (Status s = detail::validate_options(options); !s.ok())
    return immediate(std::move(s));
  serve::Request req;
  req.kind = serve::RequestKind::kEncode;
  req.config = detail::to_config(options);
  // The request must own its input: it outlives the caller's buffer in
  // the submission queue. One copy, no zero-fill.
  req.image = image::Image(
      image.width, image.height, image.channels,
      std::vector<std::uint8_t>(image.pixels, image.pixels + image.byte_size()));
  auto state = std::make_unique<Pending::State>();
  state->future = impl_->service.submit(std::move(req));
  return Pending(std::move(state));
}

Pending Service::decode(ByteSpan stream) {
  if (Status s = detail::validate_stream(stream); !s.ok())
    return immediate(std::move(s));
  serve::Request req;
  req.kind = serve::RequestKind::kDecode;
  req.bytes.assign(stream.data, stream.data + stream.size);
  auto state = std::make_unique<Pending::State>();
  state->future = impl_->service.submit(std::move(req));
  return Pending(std::move(state));
}

Pending Service::transcode(ByteSpan stream, const EncodeOptions& options) {
  if (Status s = detail::validate_stream(stream); !s.ok())
    return immediate(std::move(s));
  if (Status s = detail::validate_options(options); !s.ok())
    return immediate(std::move(s));
  serve::Request req;
  req.kind = serve::RequestKind::kTranscode;
  req.bytes.assign(stream.data, stream.data + stream.size);
  req.config = detail::to_config(options);
  auto state = std::make_unique<Pending::State>();
  state->future = impl_->service.submit(std::move(req));
  return Pending(std::move(state));
}

Pending Service::deepn_encode(ImageView image, const std::string& tenant,
                              int quality) {
  if (Status s = detail::validate_image(image); !s.ok())
    return immediate(std::move(s));
  if (tenant.empty())
    return immediate({StatusCode::kInvalidArgument, "tenant name must not be empty"});
  if (quality < 1 || quality > 100)
    return immediate({StatusCode::kInvalidArgument, "quality must be in [1, 100]"});
  serve::Request req;
  req.kind = serve::RequestKind::kDeepnEncode;
  req.tenant = tenant;
  req.quality = quality;
  req.image = image::Image(
      image.width, image.height, image.channels,
      std::vector<std::uint8_t>(image.pixels, image.pixels + image.byte_size()));
  auto state = std::make_unique<Pending::State>();
  state->future = impl_->service.submit(std::move(req));
  return Pending(std::move(state));
}

Registry Service::registry() const {
  return detail::RegistryAccess::wrap(impl_->service.registry());
}

ServiceMetrics Service::metrics() const {
  const serve::ServiceStats s = impl_->service.stats();
  ServiceMetrics m;
  m.submitted = s.submitted;
  m.completed = s.completed;
  m.rejected = s.rejected;
  m.errors = s.errors;
  m.total_p50_us = s.total.p50_us;
  m.total_p95_us = s.total.p95_us;
  m.total_p99_us = s.total.p99_us;
  m.tenants.reserve(s.tenants.size());
  for (const serve::TenantStats& t : s.tenants) {
    TenantMetrics tm;
    tm.name = t.name;
    tm.requests = t.requests;
    tm.completed = t.completed;
    tm.errors = t.errors;
    tm.service_p50_us = t.service_time.p50_us;
    tm.service_p99_us = t.service_time.p99_us;
    m.tenants.push_back(std::move(tm));
  }
  return m;
}

std::string Service::metrics_text() const {
  return impl_->service.metrics_registry()->render_prometheus();
}

std::string Service::dump_trace() const {
  return obs::Tracer::instance().dump_json();
}

Status Service::listen(const ListenOptions& options) {
  if (impl_->server && impl_->server->running()) {
    return {StatusCode::kInternal, "service is already listening"};
  }
  net::ServerConfig cfg;
  cfg.host = options.host();
  cfg.port = options.port();
  cfg.max_connections = options.max_connections();
  cfg.idle_timeout_ms = options.idle_timeout_ms();
  cfg.jobs = impl_->jobs.get();
  auto server = std::make_unique<net::Server>(impl_->service, std::move(cfg));
  std::string error;
  if (!server->start(&error)) {
    return {StatusCode::kInternal, "listen failed: " + error};
  }
  impl_->server = std::move(server);
  return Status::success();
}

int Service::listen_port() const {
  return impl_->server ? impl_->server->port() : -1;
}

void Service::stop_listening() {
  if (impl_->server) {
    impl_->server->stop();
    impl_->server.reset();
  }
}

void Service::shutdown() {
  stop_listening();
  if (impl_->jobs) impl_->jobs->shutdown();
  impl_->service.shutdown();
}

}  // namespace dnj::api
