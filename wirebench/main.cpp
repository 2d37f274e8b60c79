// wirebench — the repository's end-to-end benchmark.
//
// One process starts a net::Server over a serve::TranscodeService on
// loopback and drives one named workload (workloads.cpp) through the wire
// protocol. Untraced (--trace 0) it reports the end-to-end metrics: an
// open-loop phase at the workload's fixed rate for latency, then a
// closed-loop phase at a fixed depth for throughput. Traced (--trace 1) it
// reports the per-layer metrics: the same phases with span sampling on,
// a stage table that adds up to the mean round trip, kStats scrape deltas
// and direct single-thread api::Codec timings. Every reply is checked
// against an expectation computed through api::Codec; a mismatch fails
// the run.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The exit code is 1 when a reply differs from its expectation, and 2 when
// the run is invalid because its open-loop schedule was not offered.
//
// Usage: wirebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--git-sha SHA] [--inject-mismatch] [--offered-rps R]
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/dnj.hpp"
#include "jpeg/quant.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

using namespace dnj;
using Clock = std::chrono::steady_clock;

namespace {

// The deployment every workload runs against.
constexpr int kServerWorkers = 2;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kCacheEntries = 256;
constexpr std::size_t kCacheBytes = 1u << 20;
// The generator: one thread on a CPU of its own, four connections.
constexpr int kGenConnections = 4;
/// Shares of --seconds: the open-loop phase, then the closed-loop phase.
constexpr double kOpenShare = 0.7;
constexpr double kClosedShare = 0.3;
/// Metrics are medians over time windows of a phase. A latency window is
/// the shortest that holds kBeyond samples beyond its quantile, so a host
/// pause spoils as few windows as possible; a throughput window holds at
/// least kMinThroughputWindow replies, in at most kRateWindows windows.
constexpr double kBeyond = 10.0;
constexpr std::size_t kMinThroughputWindow = 500;
constexpr std::size_t kRateWindows = 200;
/// Fresh deployments per run; setup_s is their median.
constexpr int kSetupReps = 15;
/// A run is invalid when its open-loop sends ran late by more than this
/// share of the workload's latency limit, at p90 in the median time window:
/// a generator that falls behind does so for most requests of every
/// window, while a host pause of 5-30 ms delays a few requests of a few.
constexpr double kLateLimitShare = 0.20;
/// Exit code of a run whose open-loop schedule was not offered.
constexpr int kExitInvalid = 2;
/// Share of the mean round trip by which a stage table may fail to close.
constexpr double kClosureBound = 0.10;
/// Spans the tracer holds per thread in a traced run, and the most requests
/// the traced open-loop phase sends so that no ring wraps: a request leaves
/// fewer than 16 spans on any one thread.
constexpr std::size_t kTraceRing = 1u << 18;
constexpr double kMaxTracedRequests = kTraceRing / 16.0;
/// Latency reported for a percentile that falls on a failed request.
constexpr double kFailedLatencyMs = 1e9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  bool inject_mismatch = false;
  double offered_rps = 0.0;  ///< > 0 overrides the workload's rate (the tests' overload)
};

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "wirebench: %s\n", why.c_str());
  std::exit(1);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(value().c_str());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--git-sha") a.git_sha = value();
    else if (flag == "--inject-mismatch") a.inject_mismatch = true;
    else if (flag == "--offered-rps") a.offered_rps = std::atof(value().c_str());
    else die("unknown argument " + flag);
  }
  if (!wb::find_workload(a.workload)) {
    std::string names;
    for (const wb::WorkloadSpec& w : wb::workloads()) names += std::string(" ") + w.name;
    die("--workload must be one of:" + names);
  }
  if (!(a.seconds > 0.0)) die("--seconds must be positive");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile; +inf samples (failed requests) sort last.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// a / b, or 0 when nothing was counted.
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Window index of time `at` when [0, span) is cut into `windows` pieces.
std::size_t window_of(double at, double span, std::size_t windows) {
  const double w = at / span * static_cast<double>(windows);
  return std::min(windows - 1, static_cast<std::size_t>(std::max(0.0, w)));
}

/// Median over time windows of each window's q-quantile of `v` (sample i
/// was due at at_s[i]). Medians over windows keep a transient stall of the
/// machine from moving the whole run's number.
double windowed_quantile(const std::vector<double>& at_s, const std::vector<double>& v,
                         double span, double q) {
  const auto min_samples = static_cast<std::size_t>(std::ceil(kBeyond / (1.0 - q)));
  const std::size_t w = std::max<std::size_t>(v.size() / min_samples, 1);
  std::vector<std::vector<double>> bins(w);
  for (std::size_t i = 0; i < v.size(); ++i) bins[window_of(at_s[i], span, w)].push_back(v[i]);
  std::vector<double> per_window;
  for (std::vector<double>& b : bins)
    if (!b.empty()) per_window.push_back(quantile(std::move(b), q));
  return median(std::move(per_window));
}

/// Median over time windows of a closed-loop phase's completions per second.
double windowed_rate(const wb::PhaseResult& r) {
  const std::vector<std::uint32_t>& per_ms = r.done_per_ms;
  const std::size_t w = std::clamp<std::size_t>(r.done() / kMinThroughputWindow, 1,
                                                std::min(kRateWindows, per_ms.size()));
  std::vector<double> counts(w, 0.0);
  for (std::size_t ms = 0; ms < per_ms.size(); ++ms)
    counts[ms * w / per_ms.size()] += per_ms[ms];
  for (double& c : counts) c /= r.window_s / static_cast<double>(w);
  return median(std::move(counts));
}

/// Gives the load generator a CPU of its own: the calling thread (and so
/// every server thread created after this) keeps the other CPUs, and the
/// returned CPU is left for the generator. -1 when there is only one CPU.
int reserve_generator_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0 || CPU_COUNT(&set) < 2) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  CPU_CLR(last, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? last : -1;
}

/// A field of /proc/self/status given in kB (VmRSS, VmHWM), in MiB.
double status_mib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) die("cannot read /proc/self/status");
  const std::size_t len = std::strlen(field);
  char line[256];
  double kib = -1.0;
  while (kib < 0 && std::fgets(line, sizeof line, f))
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') kib = std::atof(line + len + 1);
  std::fclose(f);
  if (kib < 0) die(std::string("no ") + field + " in /proc/self/status");
  return kib / 1024.0;
}

/// Returns free heap memory to the kernel, sets the process's peak-RSS
/// mark (VmHWM) back to its current RSS and returns that RSS in MiB. VmHWM
/// minus this is then the memory added since; without the trim, memory the
/// allocator kept from earlier work would hide part of it.
double reset_peak_rss() {
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f || std::fputs("5", f) < 0 || std::fclose(f) != 0)
    die("cannot reset the peak RSS mark through /proc/self/clear_refs");
  return status_mib("VmRSS");
}

/// A started deployment plus the generator connected to it. Members are
/// declared so destruction runs generator -> server -> service.
struct Deployment {
  std::unique_ptr<serve::TranscodeService> service;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<wb::Generator> gen;

  ~Deployment() {
    gen.reset();
    if (server) server->stop();
    if (service) service->shutdown();
  }
};

/// The timed part of setup: table design, service and server start, the
/// generator's connections, and one round trip that must come back OK.
std::unique_ptr<Deployment> set_up(const wb::Inputs& inputs, const wb::Item& first,
                                   int gen_cpu, wb::Tables* tables) {
  std::string error;
  if (!wb::design_tables(inputs, tables, &error)) die(error);

  serve::ServiceConfig cfg;
  cfg.workers = kServerWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.admission = serve::AdmissionPolicy::kReject;
  cfg.cache_capacity = kCacheEntries;
  cfg.cache_max_bytes = kCacheBytes;
  cfg.deepn_luma = jpeg::QuantTable(tables->server.table);
  cfg.deepn_chroma = jpeg::QuantTable(tables->server.table);

  auto d = std::make_unique<Deployment>();
  d->service = std::make_unique<serve::TranscodeService>(std::move(cfg));
  d->server = std::make_unique<net::Server>(*d->service, net::ServerConfig{});
  if (!d->server->start(&error)) die("server start: " + error);
  d->gen = std::make_unique<wb::Generator>(kGenConnections, gen_cpu);
  if (!d->gen->connect(static_cast<std::uint16_t>(d->server->port()), &error))
    die("connect: " + error);
  if (!d->gen->round_trip(first, &error)) die("setup: " + error);
  return d;
}

std::string scrape(const Deployment& d) {
  net::Client client;
  std::string text, error;
  if (!client.connect("127.0.0.1", static_cast<std::uint16_t>(d.server->port()), &error) ||
      !client.scrape(net::StatsFormat::kPrometheus, &text, &error))
    die("stats scrape: " + error);
  return text;
}

/// Mega-pixels per second of direct single-thread façade calls, each
/// input in turn until at least `min_s` has passed.
template <typename Call>
double direct_mpix_s(std::size_t count, double min_s, Call call) {
  if (count == 0) return 0.0;
  api::Session session;
  const api::Codec codec = session.codec();
  for (std::size_t i = 0; i < count; ++i) call(codec, i);  // warm the context
  double pixels = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < count; ++i) pixels += call(codec, i);
  } while (seconds_since(t0) < min_s);
  return pixels / seconds_since(t0) / 1e6;
}

/// Requests over every phase of a run, for the error accounting.
struct Tally {
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  void add(const wb::PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed();
    mismatches += r.mismatches;
  }
};

class JsonMetrics {
 public:
  void add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) value = kFailedLatencyMs;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point run_start = Clock::now();
  const Args args = parse_args(argc, argv);
  const wb::WorkloadSpec& spec = *wb::find_workload(args.workload);
  const double rate = args.offered_rps > 0 ? args.offered_rps : spec.offered_rps;
  const int gen_cpu = reserve_generator_cpu();

  // End-to-end numbers always come from an untraced process; a traced run
  // sizes the per-thread rings up front so no span of a phase is lost.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_sample_every(0);
  if (args.trace) tracer.set_ring_capacity(kTraceRing);

  // Inputs (not part of setup_s).
  Clock::time_point t0 = Clock::now();
  wb::Inputs inputs = wb::make_inputs(spec, args.seed);
  std::string error;
  const wb::Item first = wb::first_request(inputs, &error);
  if (!error.empty()) die(error);
  const double inputs_s = seconds_since(t0);

  // Setup, several times: each builds a fresh deployment from scratch.
  wb::Tables tables;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int r = 0; r < kSetupReps; ++r) {
    dep.reset();
    wb::Tables designed;
    t0 = Clock::now();
    dep = set_up(inputs, first, gen_cpu, &designed);
    setup_s.push_back(seconds_since(t0));
    if (r == 0) tables = std::move(designed);
    else if (!(designed == tables)) die("table design is not deterministic across setups");
  }

  // Expectations for every distinct request (not timed).
  t0 = Clock::now();
  wb::Catalog catalog;
  if (!wb::build_catalog(std::move(inputs), tables, &catalog, &error)) die(error);
  const double catalog_s = seconds_since(t0);
  if (args.inject_mismatch)
    for (wb::Item& item : catalog.items) item.want[item.want.size() / 2] ^= 0x5A;

  // peak_rss_mb counts what serving at the closed loop's fixed depth adds
  // above this baseline: the server's buffers, queues, caches and contexts
  // and the generator's per-reply buffers. The fixed corpus is in the
  // baseline, and the open loop runs after the peak is read, because how
  // much it buffers depends on how long the host happens to pause.
  const double rss_before_mib = status_mib("VmHWM");
  const double rss_base_mib = reset_peak_rss();

  wb::Generator& gen = *dep->gen;
  // A traced run caps its open loop so no ring wraps.
  const double open_s = args.trace ? std::min(kOpenShare * args.seconds, kMaxTracedRequests / rate)
                                   : kOpenShare * args.seconds;
  Tally all;
  const double warm_s = std::min(1.0, 0.1 * args.seconds);
  all.add(gen.run_closed(catalog, spec.depth, warm_s, std::uint64_t{3} << 40));

  JsonMetrics metrics;
  std::uint64_t open_samples = 0, closed_samples = 0;
  double latency_p99 = 0.0, cache_hit_ratio = 0.0, rss_whole_mib = 0.0;
  wb::PhaseResult open;
  if (!args.trace) {
    wb::PhaseResult closed =
        gen.run_closed(catalog, spec.depth, kClosedShare * args.seconds, std::uint64_t{1} << 40);
    const double serving_peak_mib = status_mib("VmHWM");
    rss_whole_mib = std::max(rss_before_mib, serving_peak_mib);
    open = gen.run_open(catalog, rate, open_s, args.seed, 0);
    const std::map<std::string, double> stats = wb::parse_scrape(scrape(*dep));
    const auto stat = [&](const char* name) {
      const auto it = stats.find(name);
      return it == stats.end() ? 0.0 : it->second;
    };
    const double hits = stat("serve_result_cache_hits_total");
    cache_hit_ratio = ratio(hits, hits + stat("serve_result_cache_misses_total"));
    open_samples = open.latency_ms.size();
    closed_samples = closed.done();
    std::uint64_t within = 0;
    for (double ms : open.latency_ms) within += ms <= spec.slo_ms;
    const double ok = static_cast<double>(open.ok + closed.ok);
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("throughput_rps", windowed_rate(closed), "req/s");
    metrics.add("latency_p50_ms", windowed_quantile(open.due_s, open.latency_ms, open_s, 0.50),
                "ms");
    // p90, not p99: a few host vCPU pauses a second each delay 1-4% of the
    // requests, so ten seeds in a row read p99 20-70% apart on a 4-vCPU VM.
    // p99 stays in the meta line.
    metrics.add("latency_p90_ms", windowed_quantile(open.due_s, open.latency_ms, open_s, 0.90),
                "ms");
    latency_p99 = windowed_quantile(open.due_s, open.latency_ms, open_s, 0.99);
    metrics.add("slo_ok_ratio", ratio(within, open.attempted), "1");
    metrics.add("out_bytes_per_image", ratio(open.out_bytes + closed.out_bytes, ok), "B");
    metrics.add("peak_rss_mb", serving_peak_mib - rss_base_mib, "MB");
    all.add(open);
    all.add(closed);
  } else {
    const double half_closed = kClosedShare * args.seconds / 2;
    wb::PhaseResult off = gen.run_closed(catalog, spec.depth, half_closed, std::uint64_t{1} << 40);
    tracer.set_sample_every(1);
    wb::PhaseResult on = gen.run_closed(catalog, spec.depth, half_closed, std::uint64_t{2} << 40);
    // The event loop answers a scrape only after the completion pass that
    // wrote every earlier reply, and that pass closes those replies' root
    // spans. So a scrape before clear() keeps late spans of the closed loop
    // out of the dump, and one before dump() puts every open-loop root in.
    const std::map<std::string, double> before = wb::parse_scrape(scrape(*dep));
    tracer.clear();
    open = gen.run_open(catalog, rate, open_s, args.seed, 0);
    const std::map<std::string, double> after = wb::parse_scrape(scrape(*dep));
    const std::vector<obs::SpanRecord> spans = tracer.dump();
    tracer.set_sample_every(0);
    const auto delta = [&](const char* name) {
      const auto a = after.find(name), b = before.find(name);
      return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
    };

    const wb::TraceSummary trace = wb::summarize_trace(spans);
    const double n = static_cast<double>(std::max<std::uint64_t>(1, open.ok));
    const double send_us = open.send_us / n, recv_us = open.recv_us / n, rtt_us = open.rtt_us / n;
    const wb::StageTable table =
        wb::make_stage_table(trace, send_us, recv_us, rtt_us, open.ok, kClosureBound);
    wb::print_stage_table(spec.name, table);
    const auto self = [&](obs::Stage s) { return trace.self_us[static_cast<std::size_t>(s)]; };

    const double completed = delta("serve_requests_completed_total");
    const double batches = delta("serve_batches_total");
    const double hits = delta("serve_result_cache_hits_total");
    const double misses = delta("serve_result_cache_misses_total");
    cache_hit_ratio = ratio(hits, hits + misses);
    const double rebuilds =
        delta("serve_ctx_huffman_builds_total") + delta("serve_ctx_reciprocal_builds_total") +
        delta("serve_ctx_quality_table_builds_total") + delta("serve_ctx_decoder_builds_total");

    const double encode_mpix = direct_mpix_s(
        catalog.direct_encodes.size(), 0.3, [&](const api::Codec& codec, std::size_t i) {
          const wb::Catalog::DirectEncode& d = catalog.direct_encodes[i];
          if (!codec.encode(d.image.view(), d.options).ok()) die("direct encode failed");
          return static_cast<double>(d.image.pixel_count());
        });
    const double decode_mpix = direct_mpix_s(
        catalog.direct_streams.size(), 0.3, [&](const api::Codec& codec, std::size_t i) {
          api::Result<api::DecodedImage> img = codec.decode(catalog.direct_streams[i]);
          if (!img.ok()) die("direct decode failed");
          return static_cast<double>(img->width) * img->height;
        });

    metrics.add("net.read_us", self(obs::Stage::kNetRead), "us");
    metrics.add("net.parse_us", self(obs::Stage::kNetParse), "us");
    metrics.add("net.write_us", self(obs::Stage::kNetWrite), "us");
    metrics.add("net.root_self_us", self(obs::Stage::kRequest), "us");
    metrics.add("net.unattributed_us", table.rows.back().us, "us");
    metrics.add("net.req_kb", open.req_bytes / n / 1024.0, "KiB");
    metrics.add("net.resp_kb", open.resp_bytes / n / 1024.0, "KiB");
    metrics.add("client.send_us", send_us, "us");
    metrics.add("client.recv_us", recv_us, "us");
    metrics.add("serve.queue_wait_p50_us", quantile(open.queue_us, 0.50), "us");
    metrics.add("serve.queue_wait_p99_us", quantile(open.queue_us, 0.99), "us");
    metrics.add("serve.service_p50_us", quantile(open.service_us, 0.50), "us");
    metrics.add("serve.cache_probe_us", self(obs::Stage::kCacheProbe), "us");
    metrics.add("serve.batch_self_us", self(obs::Stage::kBatch), "us");
    metrics.add("serve.cache_hit_ratio", cache_hit_ratio, "1");
    metrics.add("serve.batch_mean", ratio(completed, batches), "count");
    metrics.add("serve.steal_ratio", ratio(delta("serve_steals_total"), batches), "1");
    metrics.add("serve.ctx_rebuilds_per_kreq", 1000.0 * ratio(rebuilds, completed), "count");
    metrics.add("jpeg.encode_tile_us", self(obs::Stage::kEncodeTile), "us");
    metrics.add("jpeg.encode_dct_us", self(obs::Stage::kEncodeDct), "us");
    metrics.add("jpeg.encode_quant_us", self(obs::Stage::kEncodeQuant), "us");
    metrics.add("jpeg.encode_entropy_us", self(obs::Stage::kEncodeEntropy), "us");
    metrics.add("jpeg.decode_entropy_us", self(obs::Stage::kDecodeEntropy), "us");
    metrics.add("jpeg.decode_pixels_us", self(obs::Stage::kDecodePixels), "us");
    metrics.add("api.encode_mpix_s", encode_mpix, "Mpix/s");
    metrics.add("api.decode_mpix_s", decode_mpix, "Mpix/s");
    const double thr_off = windowed_rate(off);
    const double thr_on = windowed_rate(on);
    metrics.add("obs.trace_overhead_ratio", ratio(thr_on, thr_off), "1");
    metrics.add("obs.spans_per_req", ratio(trace.spans, trace.roots), "count");
    const std::uint64_t lost =
        trace.orphans + (open.attempted > trace.roots ? open.attempted - trace.roots : 0);
    metrics.add("obs.spans_lost", static_cast<double>(lost), "count");
    metrics.add("gen.late_p99_ms", windowed_quantile(open.due_s, open.late_ms, open_s, 0.99),
                "ms");  // the run's validity is judged at p90, below
    open_samples = open.latency_ms.size();
    closed_samples = off.done() + on.done();
    all.add(off);
    all.add(on);
    all.add(open);
  }

  const double late_p90 = windowed_quantile(open.due_s, open.late_ms, open_s, 0.90);
  const double late_p99 = windowed_quantile(open.due_s, open.late_ms, open_s, 0.99);
  const double late_limit_ms = kLateLimitShare * spec.slo_ms;
  const bool valid = late_p90 <= late_limit_ms;
  const char* dnj_threads = std::getenv("DNJ_THREADS");
  std::printf(
      "wirebench-meta: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
      "\"git_sha\": \"%s\", \"simd\": \"%s\", \"dnj_threads\": \"%s\", \"server_workers\": %d, "
      "\"offered_rps\": %.17g, \"depth\": %d, \"slo_ms\": %.17g, \"generator_threads\": %d, "
      "\"connections\": %d, \"open_samples\": %llu, \"closed_samples\": %llu, "
      "\"setup_reps\": %d, \"setup_first_s\": %.6f, \"inputs_s\": %.3f, \"catalog_s\": %.3f, "
      "\"catalog_items\": %zu, \"rss_base_mb\": %.1f, \"rss_whole_peak_mb\": %.1f, "
      "\"cache_hit_ratio\": %.6f, "
      "\"error_ratio\": %.17g, \"mismatches\": %llu, \"latency_p99_ms\": %.17g, "
      "\"late_p90_ms\": %.17g, \"late_p99_ms\": %.17g, \"late_limit_ms\": %.17g, "
      "\"valid\": %s, \"wall_s\": %.3f}\n",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
      args.git_sha.c_str(), simd::level_name(simd::active_level()), dnj_threads ? dnj_threads : "",
      kServerWorkers, rate, spec.depth, spec.slo_ms, 1, gen.connections(),
      static_cast<unsigned long long>(open_samples),
      static_cast<unsigned long long>(closed_samples), kSetupReps, setup_s.front(), inputs_s,
      catalog_s, catalog.items.size(), rss_base_mib, rss_whole_mib, cache_hit_ratio,
      ratio(all.failed, all.attempted), static_cast<unsigned long long>(all.mismatches),
      latency_p99, late_p90, late_p99, late_limit_ms, valid ? "true" : "false",
      seconds_since(run_start));
  if (!valid)
    std::fprintf(stderr, "wirebench: RUN INVALID: the generator sent late (p90 %.3f ms > %.3f ms)\n",
                 late_p90, late_limit_ms);
  if (all.mismatches)
    std::fprintf(stderr, "wirebench: %llu replies differ from their expectation\n",
                 static_cast<unsigned long long>(all.mismatches));

  dep.reset();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              all.mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), metrics.body().c_str());
  std::fflush(stdout);
  if (all.mismatches) return 1;
  return valid ? 0 : kExitInvalid;
}
