// Latency/throughput accounting for the serving layer.
//
// ServiceStats is a read-view over the service's obs::Registry instruments,
// the one stats store: workers update counters and latency
// obs::HistogramHandles as requests complete, the registry's exporters
// render those instruments, and stats() reads the same ones back, taking
// p50/p95/p99 from each handle's interpolated streaming quantiles. Services
// sharing a registry share its serve_* series, so their stats() read the
// sums.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace dnj::serve {

// Latency histogram geometry: 10 us resolution up to 250 ms. Latencies
// beyond the range saturate into the top bin (stats::Histogram edge-bin
// rule), so tail quantiles of a pathologically slow run read as ">= 250 ms"
// rather than garbage.
inline constexpr double kLatencyLoUs = 0.0;
inline constexpr double kLatencyHiUs = 250000.0;
inline constexpr int kLatencyBins = 25000;

// Per-tenant histograms are 10x coarser (100 us resolution over the same
// range): there is one per named tenant, so the service-wide geometry
// (~200 KB a histogram) would turn "thousands of tenants" into hundreds of
// megabytes of bins. 100 us still resolves serving-scale quantiles.
inline constexpr int kTenantLatencyBins = 2500;

/// Quantile summary of one latency distribution, in microseconds.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;  ///< exact running max, not histogram-quantized
};

/// Counters and latency quantiles for one named registry tenant (requests
/// carrying an empty tenant name count only in the service-wide totals).
/// Sorted by name in ServiceStats::tenants.
struct TenantStats {
  std::string name;
  std::uint64_t requests = 0;   ///< processed = completed + errors
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t ctx_huffman_builds = 0;
  std::uint64_t ctx_reciprocal_builds = 0;
  std::uint64_t ctx_quality_table_builds = 0;
  std::uint64_t ctx_decoder_builds = 0;
  LatencySummary service_time;  ///< coarse geometry (kTenantLatencyBins)
};

/// Point-in-time snapshot of a service's counters and latency quantiles.
/// Responses' payloads are deterministic; this snapshot is the one place
/// where scheduling (timing, context warmth) is allowed to show.
struct ServiceStats {
  // Request lifecycle.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< kOk responses
  std::uint64_t errors = 0;     ///< kError responses
  std::uint64_t rejected = 0;   ///< kRejected (reject policy, queue full)
  std::uint64_t refused_shutdown = 0;  ///< kShutdown (submitted too late)
  std::uint64_t per_kind[kNumRequestKinds] = {};  ///< processed, by RequestKind

  // Queue pressure.
  std::uint64_t queue_capacity = 0;    ///< summed over services sharing the registry
  std::uint64_t queue_high_water = 0;  ///< the fullest queue's; never exceeds queue_capacity

  // Context warmth (jpeg::pipeline::CodecContext::ReuseCounters deltas,
  // taken around each request and summed over requests): rebuilds of
  // cached per-context state. A same-configuration stream rebuilds once
  // per worker; more means configurations interleave on a worker.
  std::uint64_t ctx_huffman_builds = 0;
  std::uint64_t ctx_reciprocal_builds = 0;
  std::uint64_t ctx_quality_table_builds = 0;
  std::uint64_t ctx_decoder_builds = 0;  ///< decode-side Huffman table + LUT builds

  // Latency quantiles (SLO accounting).
  LatencySummary queue_wait;    ///< submission -> worker pickup
  LatencySummary service_time;  ///< worker pickup -> completion
  LatencySummary total;         ///< submission -> completion

  // Per-tenant breakdown, sorted by name: each named registry tenant this
  // service has processed a request of.
  std::vector<TenantStats> tenants;
};

}  // namespace dnj::serve
