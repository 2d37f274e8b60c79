#include "net/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "jobs/job_manager.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"

namespace dnj::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kListenerId = 1;
constexpr std::uint64_t kWakeId = 2;

// Frames gathered into one sendmsg; a longer queue takes further calls.
constexpr std::size_t kMaxIov = 64;

PollerBackend resolve_backend(PollerBackend configured) {
  if (configured != PollerBackend::kAuto) return configured;
  if (const char* env = std::getenv("DNJ_NET_BACKEND")) {
    if (std::strcmp(env, "epoll") == 0) return PollerBackend::kEpoll;
    if (std::strcmp(env, "poll") == 0) return PollerBackend::kPoll;
  }
  return PollerBackend::kAuto;
}

// JobRc -> wire status, matching the mapping documented in job_manager.hpp.
// All of these are non-fatal to the connection: the frame was well-formed,
// the refusal is about the job, not the stream.
WireStatus wire_status_from_job_rc(jobs::JobRc rc) {
  switch (rc) {
    case jobs::JobRc::kOk: return WireStatus::kOk;
    case jobs::JobRc::kNotFound:
    case jobs::JobRc::kDuplicate:
    case jobs::JobRc::kInvalid: return WireStatus::kInvalidArgument;
    case jobs::JobRc::kQueueFull:
    case jobs::JobRc::kNotFinished: return WireStatus::kRejected;
    case jobs::JobRc::kShutdown: return WireStatus::kShutdown;
  }
  return WireStatus::kInternal;
}

std::string job_rc_message(jobs::JobRc rc, std::uint64_t job_id) {
  const std::string id = std::to_string(job_id);
  switch (rc) {
    case jobs::JobRc::kNotFound: return "unknown job id " + id;
    case jobs::JobRc::kDuplicate: return "job id " + id + " already exists";
    case jobs::JobRc::kInvalid: return "invalid job spec";
    case jobs::JobRc::kQueueFull: return "job queue full";
    case jobs::JobRc::kNotFinished: return "job " + id + " not finished";
    case jobs::JobRc::kShutdown: return "job manager draining";
    case jobs::JobRc::kOk: break;
  }
  return "";
}

}  // namespace

struct Server::Conn {
  explicit Conn(std::size_t max_payload) : parser(max_payload) {}

  ScopedFd fd;
  std::uint64_t id = 0;
  FrameParser parser;
  std::deque<std::vector<std::uint8_t>> out;
  std::size_t out_off = 0;  ///< sent prefix of out.front()
  Clock::time_point last_active;
  std::uint32_t inflight = 0;  ///< submitted, response not yet queued
  bool want_write = false;     ///< current poller write interest
  bool stop_reading = false;   ///< poller read interest dropped
  bool closing = false;        ///< close as soon as `out` flushes dry
  bool dirty = false;          ///< listed in dirty_ for this pass's flush

  // Observability only: endpoints of the read burst that completed the
  // current frame(s), stamped only while tracing is enabled.
  std::uint64_t read_start_ns = 0;
  std::uint64_t read_end_ns = 0;

  // Observability only: sampled replies queued since the last flush_dirty.
  // Their net_write spans and request roots close when that flush returns.
  struct TracedReply {
    std::uint64_t trace_id;
    std::uint32_t trace_root;
    std::uint64_t trace_start_ns;
    std::size_t bytes;
  };
  std::vector<TracedReply> traced;
};

Server::Server(serve::TranscodeService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {
  if (config_.max_connections < 1) config_.max_connections = 1;
  if (config_.backlog < 1) config_.backlog = 1;
  if (config_.max_payload > kMaxPayloadBytes) config_.max_payload = kMaxPayloadBytes;

  // Publish into the service's registry so one kStats scrape answers for
  // both layers. The collector snapshots the loop/stats atomics — safe
  // from any thread, no registry re-entry.
  metrics_ = service_.metrics_registry();
  response_bytes_ =
      &metrics_->histogram("net_response_bytes", {}, 0.0, 262144.0, 128);
  metrics_collector_ = metrics_->add_collector([this](std::vector<obs::Sample>& out) {
    const ServerStats s = stats();
    auto counter = [&out](const char* name, std::uint64_t v) {
      obs::Sample smp;
      smp.name = name;
      smp.value = static_cast<double>(v);
      smp.kind = obs::SampleKind::kCounter;
      out.push_back(std::move(smp));
    };
    counter("net_connections_accepted_total", s.connections_accepted);
    counter("net_connections_rejected_total", s.connections_rejected);
    counter("net_connections_idle_closed_total", s.connections_idle_closed);
    counter("net_frames_in_total", s.frames_in);
    counter("net_frames_out_total", s.frames_out);
    counter("net_socket_writes_total", s.socket_writes);
    counter("net_pings_total", s.pings);
    counter("net_requests_submitted_total", s.requests_submitted);
    counter("net_protocol_errors_total", s.protocol_errors);
    counter("net_responses_dropped_total", s.responses_dropped);
    counter("net_stats_scrapes_total", s.stats_scrapes);
    counter("net_job_ops_total", s.job_ops);
    obs::Sample active;
    active.name = "net_connections_active";
    active.value = static_cast<double>(s.connections_active);
    active.kind = obs::SampleKind::kGauge;
    out.push_back(std::move(active));
  });
}

Server::~Server() {
  stop();
  // Blocks until any in-flight gather() is done with the lambda above, so
  // the captured `this` cannot be used past this line.
  metrics_->remove_collector(metrics_collector_);
}

bool Server::start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire) || loop_.joinable()) {
    if (error) *error = "server already started";
    return false;
  }

  poller_ = make_poller(resolve_backend(config_.backend));
  if (!poller_) {
    if (error) *error = "requested poller backend unavailable";
    return false;
  }

  std::uint16_t bound = 0;
  listener_ = tcp_listen(config_.host, config_.port, config_.backlog, &bound, error);
  if (!listener_.valid()) {
    poller_.reset();
    return false;
  }
  set_nonblocking(listener_.get());

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    if (error) *error = "pipe() failed";
    listener_.reset();
    poller_.reset();
    return false;
  }
  wake_r_ = ScopedFd(pipe_fds[0]);
  wake_w_ = ScopedFd(pipe_fds[1]);
  set_nonblocking(wake_r_.get());
  set_nonblocking(wake_w_.get());

  poller_->add(listener_.get(), kListenerId, /*want_read=*/true, /*want_write=*/false);
  poller_->add(wake_r_.get(), kWakeId, /*want_read=*/true, /*want_write=*/false);

  // A forced drain-deadline exit can leave a stale in-flight count (its
  // completions were discarded by the previous stop()); a restart begins
  // with a clean slate.
  inflight_total_ = 0;
  draining_.store(false, std::memory_order_release);
  port_.store(bound, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { run_loop(); });
  return true;
}

void Server::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!loop_.joinable()) return;

  draining_.store(true, std::memory_order_release);
  wake();
  loop_.join();

  // The loop is gone, but workers may still be inside completion callbacks
  // (a forced drain-deadline exit leaves their requests in the service).
  // They touch done_ and the wake pipe — wait them out before teardown.
  {
    std::unique_lock<std::mutex> cb_lock(cb_mutex_);
    cb_cv_.wait(cb_lock, [this] { return callbacks_outstanding_ == 0; });
  }

  {
    std::lock_guard<std::mutex> done_lock(done_mutex_);
    done_.clear();
  }
  poller_.reset();
  wake_r_.reset();
  wake_w_.reset();
  listener_.reset();
  running_.store(false, std::memory_order_release);
  port_.store(-1, std::memory_order_release);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_active = active_.load(std::memory_order_relaxed);
  s.connections_rejected = conn_rejected_.load(std::memory_order_relaxed);
  s.connections_idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.socket_writes = socket_writes_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  s.requests_submitted = submitted_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  s.stats_scrapes = stats_scrapes_.load(std::memory_order_relaxed);
  s.job_ops = job_ops_.load(std::memory_order_relaxed);
  return s;
}

void Server::wake() {
  const char byte = 0;
  // Best effort: a full pipe already guarantees a pending wake.
  (void)::write(wake_w_.get(), &byte, 1);
}

void Server::run_loop() {
  std::vector<PollEvent> events;
  bool drain_started = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !drain_started) {
      drain_started = true;
      drain_deadline = Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
      begin_drain();
    }
    if (drain_started) {
      // Close connections with nothing left to deliver; exit once every
      // in-flight response has been handed back (or the deadline passes).
      std::vector<std::uint64_t> done_ids;
      for (const auto& [id, conn] : conns_) {
        if (conn->inflight == 0 && conn->out.empty()) done_ids.push_back(id);
      }
      for (std::uint64_t id : done_ids) close_conn(id);
      if (conns_.empty() && inflight_total_ == 0) break;
      if (Clock::now() >= drain_deadline) break;
    }

    int timeout = loop_timeout_ms(drain_started);
    if (drain_started) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            drain_deadline - Clock::now())
                            .count();
      const int left_ms = left < 0 ? 0 : (left > 50 ? 50 : static_cast<int>(left));
      if (timeout < 0 || timeout > left_ms) timeout = left_ms;
    }

    events.clear();
    poller_->wait(timeout, &events);

    for (const PollEvent& ev : events) {
      if (ev.id == kListenerId) {
        if (!drain_started && ev.readable) accept_new();
        continue;
      }
      if (ev.id == kWakeId) {
        drain_wake_pipe();
        continue;
      }
      auto it = conns_.find(ev.id);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn* conn = it->second.get();
      if (ev.error) {
        close_conn(ev.id);
        continue;
      }
      if (ev.readable && !conn->stop_reading) {
        if (!handle_readable(conn)) continue;
      }
      if (ev.writable) {
        if (conns_.find(ev.id) == conns_.end()) continue;
        flush(conn);
      }
    }

    // Strictly after drain_wake_pipe(): a worker pushes its completion and
    // THEN writes the wake byte, so any push that this pass misses left a
    // byte in the pipe and the next wait() wakes immediately. (Pipe first,
    // queue second — the reverse order can consume a wake byte whose
    // completion arrives between the two drains, stranding it.)
    drain_completions();
    flush_dirty();

    if (!drain_started) sweep_idle();
  }

  // Force-close whatever survived the drain deadline.
  for (auto& [id, conn] : conns_) {
    (void)id;
    poller_->remove(conn->fd.get());
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
}

void Server::begin_drain() {
  // Refuse new connections at the TCP level and stop reading new frames;
  // whatever is already submitted still completes and flushes out.
  poller_->remove(listener_.get());
  listener_.reset();
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (!conn->stop_reading) {
      conn->stop_reading = true;
      poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
    }
  }
}

int Server::loop_timeout_ms(bool draining) const {
  if (draining) return 50;
  if (config_.idle_timeout_ms <= 0 || conns_.empty()) return -1;
  Clock::time_point earliest = Clock::time_point::max();
  for (const auto& [id, conn] : conns_) {
    (void)id;
    if (conn->last_active < earliest) earliest = conn->last_active;
  }
  const auto deadline = earliest + std::chrono::milliseconds(config_.idle_timeout_ms);
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
  if (left <= 0) return 0;
  return left > 60000 ? 60000 : static_cast<int>(left) + 1;
}

void Server::sweep_idle() {
  if (config_.idle_timeout_ms <= 0 || conns_.empty()) return;
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<std::uint64_t> idle_ids;
  for (const auto& [id, conn] : conns_) {
    if (conn->inflight == 0 && conn->out.empty() && now - conn->last_active >= limit) {
      idle_ids.push_back(id);
    }
  }
  for (std::uint64_t id : idle_ids) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    close_conn(id);
  }
}

void Server::accept_new() {
  for (;;) {
    const int cfd = ::accept(listener_.get(), nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient error — next wake retries
    }
    set_nonblocking(cfd);
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    if (conns_.size() >= static_cast<std::size_t>(config_.max_connections)) {
      conn_rejected_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<std::uint8_t> bytes = serialize_frame(
          make_error(0, Op::kPing, WireStatus::kRejected, "connection limit reached"));
      // Best effort — the socket is fresh, so the buffer almost always takes
      // one small frame; if not, the close alone carries the message.
      (void)::send(cfd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(cfd);
      continue;
    }

    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(config_.max_payload);
    conn->fd = ScopedFd(cfd);
    conn->id = id;
    conn->last_active = Clock::now();
    if (!poller_->add(cfd, id, /*want_read=*/true, /*want_write=*/false)) {
      continue;  // ~Conn closes cfd
    }
    conns_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::drain_wake_pipe() {
  char buf[256];
  while (::read(wake_r_.get(), buf, sizeof buf) > 0) {
  }
}

void Server::drain_completions() {
  std::vector<Done> local;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    local.swap(done_);
  }
  for (Done& d : local) {
    if (inflight_total_ > 0) --inflight_total_;
    const std::size_t resp_size = d.bytes.size();
    response_bytes_->observe(static_cast<double>(resp_size));
    auto it = conns_.find(d.conn_id);
    if (it == conns_.end()) {
      responses_dropped_.fetch_add(1, std::memory_order_relaxed);
      // Close the root anyway — the work happened even if nobody is
      // listening for the answer.
      obs::record_span_as(d.trace_id, d.trace_root, 0, obs::Stage::kRequest,
                          d.trace_start_ns, obs::now_ns());
      continue;
    }
    Conn* conn = it->second.get();
    if (conn->inflight > 0) --conn->inflight;
    queue_bytes(conn, std::move(d.bytes));
    if (d.trace_id != 0)
      conn->traced.push_back({d.trace_id, d.trace_root, d.trace_start_ns, resp_size});
  }
}

void Server::flush_dirty() {
  for (std::uint64_t id : dirty_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed since it was queued to
    Conn* conn = it->second.get();
    conn->dirty = false;
    // Moved out first: the flush may close the connection.
    std::vector<Conn::TracedReply> traced;
    traced.swap(conn->traced);
    const std::uint64_t write_start = traced.empty() ? 0 : obs::now_ns();
    // A connection waiting for writability gets its turn from that event;
    // its traced roots still close here, before the loop waits again.
    if (!conn->want_write) flush(conn);
    if (traced.empty()) continue;
    const std::uint64_t write_end = obs::now_ns();
    for (const Conn::TracedReply& t : traced) {
      obs::record_span(t.trace_id, t.trace_root, obs::Stage::kNetWrite, write_start, write_end,
                       t.bytes);
      obs::record_span_as(t.trace_id, t.trace_root, 0, obs::Stage::kRequest, t.trace_start_ns,
                          write_end);
    }
  }
  dirty_.clear();
}

bool Server::handle_readable(Conn* conn) {
  const bool tracing = obs::Tracer::instance().enabled();
  if (tracing) conn->read_start_ns = obs::now_ns();
  char buf[64 * 1024];
  for (;;) {
    const long got = ::recv(conn->fd.get(), buf, sizeof buf, 0);
    if (got == 0) {  // orderly peer shutdown
      close_conn(conn->id);
      return false;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn->id);
      return false;
    }
    conn->last_active = Clock::now();
    conn->parser.feed(buf, static_cast<std::size_t>(got));
    if (static_cast<std::size_t>(got) < sizeof buf) break;
  }
  if (tracing) conn->read_end_ns = obs::now_ns();

  Frame frame;
  for (;;) {
    const ParseResult pr = conn->parser.next(&frame);
    if (pr == ParseResult::kNeedMore) return true;
    if (pr == ParseResult::kFrame) {
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      handle_frame(conn, std::move(frame));
      if (conn->stop_reading) return true;  // error frame queued; drop the rest
      continue;
    }
    // Sticky parse failure: answer with a typed error frame, stop reading,
    // and close once the frame has flushed.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    const WireStatus status =
        pr == ParseResult::kBadVersion ? WireStatus::kVersionSkew : WireStatus::kMalformed;
    const char* why = pr == ParseResult::kBadMagic     ? "bad magic"
                      : pr == ParseResult::kBadVersion ? "unsupported protocol version"
                      : pr == ParseResult::kBadHeader  ? "bad header"
                                                       : "payload crc mismatch";
    conn->stop_reading = true;
    conn->closing = true;
    poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
    queue_frame(conn, make_error(0, Op::kPing, status, why));
    return true;
  }
}

void Server::handle_frame(Conn* conn, Frame&& frame) {
  // Responses echo the request's version so a v1 client keeps decoding a
  // v2 server (the protocol grows additively, see frame.hpp).
  if (frame.type != FrameType::kRequest) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->stop_reading = true;
    conn->closing = true;
    poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
    Frame err = make_error(frame.request_id, frame.op, WireStatus::kMalformed,
                           "expected a request frame");
    err.version = frame.version;
    return queue_frame(conn, err);
  }

  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = tracer.enabled();
  const std::uint64_t parse_start = tracing ? obs::now_ns() : 0;
  serve::Request req;
  const WireStatus parsed = parse_request(frame, &req);
  const std::uint64_t parse_end = tracing ? obs::now_ns() : 0;

  if (parsed == WireStatus::kOk && frame.op == Op::kPing) {
    pings_.fetch_add(1, std::memory_order_relaxed);
    Frame pong;
    pong.version = frame.version;
    pong.type = FrameType::kResponse;
    pong.op = Op::kPing;
    pong.status = static_cast<std::uint8_t>(WireStatus::kOk);
    pong.request_id = frame.request_id;
    return queue_frame(conn, pong);
  }

  if (parsed == WireStatus::kOk && frame.op == Op::kStats) {
    if (frame.version < 2) {
      // Op 6 does not exist in v1 — inside that version the frame is
      // malformed, and a malformed frame poisons the stream (§3/§10).
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->stop_reading = true;
      conn->closing = true;
      poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
      Frame err = make_error(frame.request_id, frame.op, WireStatus::kMalformed,
                             "op 6 (stats) requires protocol version 2");
      err.version = frame.version;
      return queue_frame(conn, err);
    }
    // Admin scrape: rendered by the loop thread, never queued behind
    // service work (the whole point is visibility under overload).
    stats_scrapes_.fetch_add(1, std::memory_order_relaxed);
    std::string text;
    switch (static_cast<StatsFormat>(frame.payload[0])) {
      case StatsFormat::kPrometheus: text = metrics_->render_prometheus(); break;
      case StatsFormat::kJson: text = metrics_->render_json(); break;
      case StatsFormat::kTraceJson: text = tracer.dump_json(); break;
    }
    Frame resp = make_stats_response(frame.request_id, text);
    resp.version = frame.version;
    return queue_frame(conn, resp);
  }

  if (parsed == WireStatus::kOk && op_is_job(frame.op)) {
    if (frame.version < 3) {
      // Ops 7..10 do not exist before v3 — inside those versions the frame
      // is malformed, and a malformed frame poisons the stream.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->stop_reading = true;
      conn->closing = true;
      poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
      Frame err = make_error(frame.request_id, frame.op, WireStatus::kMalformed,
                             "op " + std::to_string(static_cast<int>(frame.op)) +
                                 " (job) requires protocol version 3");
      err.version = frame.version;
      return queue_frame(conn, err);
    }
    job_ops_.fetch_add(1, std::memory_order_relaxed);
    if (!config_.jobs) {
      Frame err = make_error(frame.request_id, frame.op, WireStatus::kInternal,
                             "job subsystem not enabled");
      err.version = frame.version;
      return queue_frame(conn, err);
    }
    jobs::JobManager& manager = *config_.jobs;

    // Job ops are answered right here on the loop thread: submit queues
    // onto the manager's own pool, the rest are O(1) map lookups — none
    // ever waits on design work or the transcode queue.
    Frame resp;
    if (frame.op == Op::kJobSubmit) {
      std::uint64_t requested_id = 0;
      jobs::DesignJobSpec spec;
      const WireStatus ps = parse_job_submit(frame, &requested_id, &spec);
      if (ps != WireStatus::kOk) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        const bool fatal = ps == WireStatus::kMalformed;
        if (fatal) {
          conn->stop_reading = true;
          conn->closing = true;
          poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
        }
        const char* why =
            fatal ? "malformed job-submit payload" : "job-submit argument out of range";
        Frame err = make_error(frame.request_id, frame.op, ps, why);
        err.version = frame.version;
        return queue_frame(conn, err);
      }
      std::uint64_t job_id = 0;
      const jobs::JobRc rc = manager.submit(std::move(spec), requested_id, &job_id);
      resp = rc == jobs::JobRc::kOk
                 ? make_job_submit_response(frame.request_id, job_id)
                 : make_error(frame.request_id, frame.op, wire_status_from_job_rc(rc),
                              job_rc_message(rc, requested_id));
    } else {
      std::uint64_t job_id = 0;
      if (parse_job_id_request(frame, &job_id) != WireStatus::kOk) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        conn->stop_reading = true;
        conn->closing = true;
        poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
        Frame err = make_error(frame.request_id, frame.op, WireStatus::kMalformed,
                               "malformed job-id payload");
        err.version = frame.version;
        return queue_frame(conn, err);
      }
      jobs::JobRc rc = jobs::JobRc::kOk;
      if (frame.op == Op::kJobStatus) {
        jobs::JobStatus status;
        rc = manager.status(job_id, &status);
        if (rc == jobs::JobRc::kOk)
          resp = make_job_status_response(frame.request_id, status);
      } else if (frame.op == Op::kJobCancel) {
        rc = manager.cancel(job_id);
        if (rc == jobs::JobRc::kOk) resp = make_job_cancel_response(frame.request_id);
      } else {  // kJobResult
        jobs::JobResult result;
        rc = manager.result(job_id, &result);
        if (rc == jobs::JobRc::kOk)
          resp = make_job_result_response(frame.request_id, result);
      }
      if (rc != jobs::JobRc::kOk)
        resp = make_error(frame.request_id, frame.op, wire_status_from_job_rc(rc),
                          job_rc_message(rc, job_id));
    }
    resp.version = frame.version;
    return queue_frame(conn, resp);
  }

  if (parsed != WireStatus::kOk) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    const bool fatal = parsed == WireStatus::kMalformed;  // framing no longer trusted
    if (fatal) {
      conn->stop_reading = true;
      conn->closing = true;
      poller_->update(conn->fd.get(), /*want_read=*/false, conn->want_write);
    }
    const char* why = fatal ? "malformed request payload" : "request argument out of range";
    Frame err = make_error(frame.request_id, frame.op, parsed, why);
    err.version = frame.version;
    return queue_frame(conn, err);
  }

  // Observability: maybe open a sampled trace for this request. The ids
  // ride on the Request (never digested, never serialized) so queue-wait,
  // batch and codec spans nest under this root; flush_dirty records
  // net_write and closes the root when the connection's flush returns.
  std::uint64_t trace_id = 0;
  std::uint32_t trace_root = 0;
  std::uint64_t trace_start = 0;
  if (tracing && (trace_id = tracer.start_trace()) != 0) {
    trace_root = tracer.next_span_id();
    trace_start = conn->read_start_ns;
    obs::record_span(trace_id, trace_root, obs::Stage::kNetRead,
                     conn->read_start_ns, conn->read_end_ns,
                     frame.payload.size());
    obs::record_span(trace_id, trace_root, obs::Stage::kNetParse, parse_start,
                     parse_end);
    req.trace_id = trace_id;
    req.trace_parent = trace_root;
  }

  // Hand the request to the service. The callback runs on a worker pump
  // (or right here, synchronously, for an immediate refusal) — it only
  // touches the completion queue and the wake pipe, never the Conn.
  const std::uint64_t conn_id = conn->id;
  const std::uint32_t request_id = frame.request_id;
  const Op op = frame.op;
  const std::uint64_t digest = frame.config_digest;
  const std::uint8_t version = frame.version;

  ++conn->inflight;
  ++inflight_total_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> cb_lock(cb_mutex_);
    ++callbacks_outstanding_;
  }
  service_.submit(std::move(req), [this, conn_id, request_id, op, digest, version, trace_id,
                                   trace_root, trace_start](serve::Response resp) {
    Frame f = make_response(request_id, op, digest, resp);
    f.version = version;
    std::vector<std::uint8_t> bytes = serialize_frame(f);
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_.push_back(Done{conn_id, std::move(bytes), trace_id, trace_root, trace_start});
    }
    wake();
    // Notify under the lock: once the count reads 0, stop() may return and
    // ~Server destroy cb_cv_, so the notify must finish before the waiter
    // can reacquire cb_mutex_ and see it.
    std::lock_guard<std::mutex> cb_lock(cb_mutex_);
    --callbacks_outstanding_;
    cb_cv_.notify_all();
  });

  // A synchronous refusal may already sit in done_; it is picked up by the
  // next drain_completions() pass (the wake byte guarantees one).
}

void Server::queue_frame(Conn* conn, const Frame& frame) {
  queue_bytes(conn, serialize_frame(frame));
}

// No system call here: flush_dirty() writes the connection at the end of
// this loop pass.
void Server::queue_bytes(Conn* conn, std::vector<std::uint8_t> bytes) {
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  conn->out.push_back(std::move(bytes));
  conn->last_active = Clock::now();
  if (!conn->dirty) {
    conn->dirty = true;
    dirty_.push_back(conn->id);
  }
}

bool Server::flush(Conn* conn) {
  iovec iov[kMaxIov];
  while (!conn->out.empty()) {
    std::size_t n = 0;
    std::size_t off = conn->out_off;
    for (auto it = conn->out.begin(); it != conn->out.end() && n < kMaxIov; ++it, ++n) {
      iov[n].iov_base = it->data() + off;
      iov[n].iov_len = it->size() - off;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const long sent = ::sendmsg(conn->fd.get(), &msg, MSG_NOSIGNAL);
    socket_writes_.fetch_add(1, std::memory_order_relaxed);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          poller_->update(conn->fd.get(), !conn->stop_reading, /*want_write=*/true);
        }
        return true;
      }
      close_conn(conn->id);
      return false;
    }
    // Pop every frame the call finished; carry the remainder in out_off.
    std::size_t left = static_cast<std::size_t>(sent);
    while (left > 0) {
      const std::size_t rest = conn->out.front().size() - conn->out_off;
      if (left < rest) {
        conn->out_off += left;
        break;
      }
      left -= rest;
      conn->out.pop_front();
      conn->out_off = 0;
    }
  }
  if (conn->closing) {
    close_conn(conn->id);
    return false;
  }
  if (conn->want_write) {
    conn->want_write = false;
    poller_->update(conn->fd.get(), !conn->stop_reading, /*want_write=*/false);
  }
  return true;
}

void Server::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  poller_->remove(it->second->fd.get());
  conns_.erase(it);  // ~Conn closes the fd; pending completions for this id
                     // land in responses_dropped
  active_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace dnj::net
