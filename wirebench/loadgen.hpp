// The load generator: one thread driving non-blocking connections through
// one ppoll loop, so a sender never waits for a reply.
//
// Open loop: requests go out at due times paced at a constant rate, each
// gap jittered by the seed; a request's latency runs from its due time
// (not its actual send time) to its parsed reply, so a stalled generator
// or server shows up in every request queued behind the stall. Lateness
// (first byte handed to the socket - due) is recorded separately and
// judges the run's validity: it grows when the generator falls behind, and
// when the server stops reading so the schedule is no longer offered.
//
// Closed loop: every connection keeps a fixed number of requests in
// flight; throughput counts correct replies parsed before the deadline.
//
// Every reply is checked against its catalog item: a typed refusal or a
// lost request counts as failed, and an OK reply whose payload differs
// from the expectation counts as a mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace wb {

struct PhaseResult {
  std::uint64_t attempted = 0;   ///< requests sent
  std::uint64_t ok = 0;          ///< OK replies whose payload matched
  std::uint64_t refused = 0;     ///< typed non-OK replies
  std::uint64_t transport = 0;   ///< requests never answered (connection failure, timeout)
  std::uint64_t mismatches = 0;  ///< OK replies whose payload differed
  double window_s = 0.0;         ///< closed loop: the measured window

  // Open loop, one entry per attempted request.
  std::vector<double> due_s;       ///< due time, from the phase start
  std::vector<double> latency_ms;  ///< due -> parsed reply; +inf on failure
  std::vector<double> late_ms;     ///< first byte handed to the socket - due time

  /// Closed loop: correct replies parsed in each millisecond of the
  /// window. Counts, not timestamps, so the memory the generator holds does
  /// not grow with throughput and move peak_rss_mb.
  std::vector<std::uint32_t> done_per_ms;
  std::uint64_t done() const;

  // Open loop, per OK reply: the reply's observability block.
  std::vector<double> queue_us, service_us;

  // Client timers and byte counts, summed over OK replies.
  double send_us = 0.0;  ///< request queued -> last byte handed to the socket
  double recv_us = 0.0;  ///< start of the read burst that completed the reply -> parsed
  double rtt_us = 0.0;   ///< request queued -> parsed reply
  double req_bytes = 0.0, resp_bytes = 0.0, out_bytes = 0.0;

  std::uint64_t failed() const { return refused + transport + mismatches; }
};

class Generator {
 public:
  /// `cpu` >= 0 pins the generator's thread to that CPU.
  Generator(int connections, int cpu);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(std::uint16_t port, std::string* error);

  /// One request on the first connection, waiting for its reply: true when
  /// it came back OK with the expected payload.
  bool round_trip(const Item& item, std::string* error);

  /// Open loop over `catalog` at `rate` for `seconds`, requests numbered
  /// from k0 (so phases draw distinct request streams).
  PhaseResult run_open(const Catalog& catalog, double rate, double seconds,
                       std::uint64_t seed, std::uint64_t k0);

  /// Closed loop: `depth` requests in flight over all connections.
  PhaseResult run_closed(const Catalog& catalog, int depth, double seconds,
                         std::uint64_t k0);

  int connections() const { return connections_; }

 private:
  struct Connection;
  struct Plan;
  PhaseResult run(const Plan& plan);         ///< on the calling thread
  PhaseResult run_pinned(const Plan& plan);  ///< on a thread pinned to cpu_

  int connections_;
  int cpu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace wb
