// The network front end: a single-threaded event-loop TCP server that
// turns protocol frames into serve::TranscodeService submissions and
// writes the responses back — the listener/forwarder/worker split, with
// the service's worker pumps playing the worker pool.
//
//   accept ──▶ per-connection FrameParser ──▶ parse_request
//                     │                            │ submit(req, callback)
//                     │                            ▼
//                     │                 bounded MPMC queue ─▶ worker pumps
//                     │                                          │ callback
//                     │                     completion queue ◀───┘ (worker
//                     │                            │ wake pipe     thread)
//                     ▼                            ▼
//              event loop (epoll / poll) ──▶ per-connection write queue
//                                             one gather write per pass
//
// One thread runs the loop; it never computes, decodes, or blocks on the
// service. Worker callbacks serialize the response frame on the worker
// thread, hand the bytes to the loop through a mutex-guarded completion
// queue, and wake it via a self-pipe — connection state itself is touched
// by the loop thread only, which is what keeps the server TSan-clean with
// no per-connection locks.
//
// Every reply, a worker's or the loop's own (pong, stats, job op, error
// frame), is only appended to its connection's write queue. Once per loop
// pass, after the completion queue is drained, each connection that gained
// bytes is written with one non-blocking gather sendmsg over its queued
// frames, in queue order; a connection already waiting for writability is
// left to that event.
//
// Overload behaves like the service's admission policy, end to end: a
// kReject service answers a full queue with an immediate typed kRejected
// response, which leaves here as a typed error frame — the client learns
// about overload in one round trip instead of watching a socket stall.
// (Under kBlock admission the loop itself backpressures: it stops reading
// new frames while blocked on queue space, and TCP flow control propagates
// the stall to every client.) The connection cap refuses surplus
// connections with a best-effort kRejected frame; idle connections are
// closed after idle_timeout_ms.
//
// Shutdown (stop()): stop accepting and stop reading, let every submitted
// request complete and flush its response (bounded by drain_timeout_ms),
// then close. The serving determinism contract extends across the wire:
// response payloads are byte-identical to synchronous in-process calls
// (tests/test_net.cpp pins this across worker counts and both pollers).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace dnj::jobs {
class JobManager;
}

namespace dnj::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read the answer from port())

  /// Accepted-connection cap; surplus connections get a best-effort
  /// kRejected error frame and an immediate close.
  int max_connections = 64;

  /// Connections with no traffic, no in-flight work and nothing to write
  /// for this long are closed. 0 disables idle closing.
  int idle_timeout_ms = 30000;

  /// stop() waits this long for in-flight responses to drain before
  /// force-closing what remains.
  int drain_timeout_ms = 5000;

  int backlog = 128;

  /// Per-frame payload ceiling (protocol hard cap: kMaxPayloadBytes).
  std::size_t max_payload = kMaxPayloadBytes;

  /// Readiness backend. kAuto resolves to epoll on Linux, poll elsewhere;
  /// the DNJ_NET_BACKEND environment variable (epoll|poll) overrides kAuto
  /// only, so programmatic choices stay authoritative.
  PollerBackend backend = PollerBackend::kAuto;

  /// Design-job manager answering the v3 job ops (must outlive the
  /// server). Null = job ops are refused with a typed kInternal error;
  /// everything else works unchanged.
  jobs::JobManager* jobs = nullptr;
};

/// Point-in-time counters (all monotonic except connections_active).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t connections_idle_closed = 0;
  std::uint64_t frames_in = 0;   ///< well-formed frames parsed
  std::uint64_t frames_out = 0;  ///< response frames queued for write
  std::uint64_t socket_writes = 0;  ///< sendmsg calls (frames_out / this = replies per write)
  std::uint64_t pings = 0;
  std::uint64_t requests_submitted = 0;  ///< handed to the service
  std::uint64_t protocol_errors = 0;     ///< malformed/version-skew frames
  std::uint64_t responses_dropped = 0;   ///< connection gone before write-back
  std::uint64_t stats_scrapes = 0;       ///< kStats admin ops answered
  std::uint64_t job_ops = 0;             ///< v3 job ops answered (any status)
};

class Server {
 public:
  /// The service must outlive the server. The server never shuts the
  /// service down — composition (api::Service, examples) owns that order.
  Server(serve::TranscodeService& service, ServerConfig config);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the loop thread. False + *error on
  /// failure (including start() while already running). start() after
  /// stop() brings the server back on a fresh socket; stats carry over.
  bool start(std::string* error = nullptr);

  /// Graceful drain (see file comment). Idempotent, safe from any thread
  /// except the loop itself; blocks until the loop has exited and every
  /// in-flight completion callback has finished.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port after a successful start() (the ephemeral answer), else -1.
  int port() const { return port_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  struct Conn;
  struct Done {
    std::uint64_t conn_id;
    std::vector<std::uint8_t> bytes;
    // Observability only: the sampled trace this response belongs to (0 =
    // unsampled), its root span, and when the root opened — the loop
    // records net_write and closes the root when its connection's flush
    // returns.
    std::uint64_t trace_id = 0;
    std::uint32_t trace_root = 0;
    std::uint64_t trace_start_ns = 0;
  };

  // The handler chain returns false when the connection died along the way
  // (already closed and erased) so callers stop touching it.
  void run_loop();
  void accept_new();
  void drain_wake_pipe();
  void drain_completions();
  void flush_dirty();
  bool handle_readable(Conn* conn);
  void handle_frame(Conn* conn, Frame&& frame);
  void queue_frame(Conn* conn, const Frame& frame);
  void queue_bytes(Conn* conn, std::vector<std::uint8_t> bytes);
  bool flush(Conn* conn);
  void close_conn(std::uint64_t id);
  void begin_drain();
  int loop_timeout_ms(bool draining) const;
  void sweep_idle();
  void wake();

  serve::TranscodeService& service_;
  ServerConfig config_;

  std::unique_ptr<Poller> poller_;
  ScopedFd listener_;
  ScopedFd wake_r_, wake_w_;
  std::thread loop_;
  std::mutex lifecycle_mutex_;  ///< serializes start()/stop()
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> port_{-1};

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 3;  ///< 1 = listener, 2 = wake pipe
  std::size_t inflight_total_ = 0;  ///< submitted, completion not yet drained
  std::vector<std::uint64_t> dirty_;  ///< connections queued to since the last flush_dirty

  // Worker -> loop completion hand-off.
  std::mutex done_mutex_;
  std::vector<Done> done_;

  // Callback-tail accounting: stop() must not tear down the wake pipe
  // while a worker is still inside a completion callback.
  std::mutex cb_mutex_;
  std::condition_variable cb_cv_;
  std::uint64_t callbacks_outstanding_ = 0;

  // Stats (atomics: stats() reads from any thread).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> conn_rejected_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> socket_writes_{0};
  std::atomic<std::uint64_t> pings_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> responses_dropped_{0};
  std::atomic<std::uint64_t> stats_scrapes_{0};
  std::atomic<std::uint64_t> job_ops_{0};

  // Metrics plane: the server publishes into the service's registry — one
  // scrape answers for both layers. The collector snapshots the atomics
  // above; the histogram tracks response frame sizes. Removed/owned so the
  // captured `this` can never dangle past the destructor.
  std::shared_ptr<obs::Registry> metrics_;
  obs::HistogramHandle* response_bytes_ = nullptr;
  std::uint64_t metrics_collector_ = 0;
};

}  // namespace dnj::net
