// Per-layer attribution measured from outside the library: the tracer's
// span dump, a kStats scrape, and the generator's own client timers.
//
// Self time of a span is its duration minus the part of it that its child
// spans cover. The stage table's rows are mean self times per request;
// with the client's send/receive timers and an explicit `unattributed`
// remainder they add up to the mean round trip.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace wb {

struct TraceSummary {
  std::uint64_t roots = 0;    ///< request root spans (stage kRequest, no parent)
  std::uint64_t spans = 0;
  std::uint64_t orphans = 0;  ///< spans whose parent chain does not end at a root
  double root_us = 0.0;       ///< mean root duration
  std::array<double, dnj::obs::kNumStages> self_us{};  ///< mean self time per request
};

TraceSummary summarize_trace(const std::vector<dnj::obs::SpanRecord>& spans);

/// Unlabelled series of a Prometheus text scrape, by name.
std::map<std::string, double> parse_scrape(const std::string& text);

struct StageRow {
  std::string name;
  double us = 0.0;
};

struct StageTable {
  std::vector<StageRow> rows;  ///< last row is `unattributed`
  double rtt_us = 0.0;
  bool closes = false;
  std::string why;  ///< reason when it does not close
};

/// `requests` is how many correct replies the client timers averaged over;
/// `bound` is the share of the round trip by which the server rows may
/// miss the root spans, or the remainder may go negative.
StageTable make_stage_table(const TraceSummary& trace, double client_send_us,
                            double client_recv_us, double rtt_us, std::uint64_t requests,
                            double bound);

void print_stage_table(const std::string& workload, const StageTable& table);

}  // namespace wb
