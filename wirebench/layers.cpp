#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace wb {

using dnj::obs::SpanRecord;
using dnj::obs::Stage;

namespace {

/// Length of the union of [lo, hi) intervals clipped to [from, to).
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>>& iv,
                      std::uint64_t from, std::uint64_t to) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, reach = from;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, reach);
    hi = std::min(hi, to);
    if (hi > lo) {
      total += hi - lo;
      reach = hi;
    }
  }
  return total;
}

/// Accumulates one trace (spans [b, e) of the sorted dump) into *sum.
void add_trace(const std::vector<SpanRecord>& all, std::size_t b, std::size_t e,
               TraceSummary* sum, std::array<double, dnj::obs::kNumStages>* self_ns,
               double* root_ns) {
  std::unordered_map<std::uint32_t, std::size_t> by_id;
  for (std::size_t i = b; i < e; ++i) by_id.emplace(all[i].span_id, i);
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (std::size_t i = b; i < e; ++i) {
    const SpanRecord& s = all[i];
    sum->spans += 1;
    if (s.parent_id == 0) {
      if (s.stage == Stage::kRequest) {
        sum->roots += 1;
        *root_ns += static_cast<double>(s.end_ns - s.start_ns);
      } else {
        sum->orphans += 1;  // a parentless span that is not a request root
      }
      continue;
    }
    // Walk up to the root; a missing link means the span lost its parent.
    std::uint32_t parent = s.parent_id;
    bool rooted = false;
    for (std::size_t hops = 0; hops < 64; ++hops) {
      auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      const SpanRecord& p = all[it->second];
      if (p.parent_id == 0) {
        rooted = p.stage == Stage::kRequest;
        break;
      }
      parent = p.parent_id;
    }
    if (!rooted) sum->orphans += 1;
    children[s.parent_id].push_back({s.start_ns, s.end_ns});
  }
  for (std::size_t i = b; i < e; ++i) {
    const SpanRecord& s = all[i];
    std::uint64_t self = s.end_ns - s.start_ns;
    auto it = children.find(s.span_id);
    if (it != children.end()) self -= covered(it->second, s.start_ns, s.end_ns);
    (*self_ns)[static_cast<std::size_t>(s.stage)] += static_cast<double>(self);
  }
}

}  // namespace

TraceSummary summarize_trace(const std::vector<SpanRecord>& spans) {
  TraceSummary sum;
  std::array<double, dnj::obs::kNumStages> self_ns{};
  double root_ns = 0.0;
  // dump() orders by trace id, so each trace is one contiguous run.
  for (std::size_t b = 0; b < spans.size();) {
    std::size_t e = b;
    while (e < spans.size() && spans[e].trace_id == spans[b].trace_id) ++e;
    add_trace(spans, b, e, &sum, &self_ns, &root_ns);
    b = e;
  }
  if (sum.roots > 0) {
    const double n = static_cast<double>(sum.roots);
    sum.root_us = root_ns / n / 1000.0;
    for (std::size_t s = 0; s < self_ns.size(); ++s) sum.self_us[s] = self_ns[s] / n / 1000.0;
  }
  return sum;
}

std::map<std::string, double> parse_scrape(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

StageTable make_stage_table(const TraceSummary& trace, double client_send_us,
                            double client_recv_us, double rtt_us, std::uint64_t requests,
                            double bound) {
  static const std::pair<const char*, Stage> kServerRows[] = {
      {"net.read", Stage::kNetRead},
      {"net.parse", Stage::kNetParse},
      {"serve.queue_wait", Stage::kQueueWait},
      {"serve.batch_self", Stage::kBatch},
      {"serve.cache_probe", Stage::kCacheProbe},
      {"jpeg.encode_tile", Stage::kEncodeTile},
      {"jpeg.encode_dct", Stage::kEncodeDct},
      {"jpeg.encode_quant", Stage::kEncodeQuant},
      {"jpeg.encode_entropy", Stage::kEncodeEntropy},
      {"jpeg.decode_entropy", Stage::kDecodeEntropy},
      {"jpeg.decode_pixels", Stage::kDecodePixels},
      {"net.write", Stage::kNetWrite},
      {"net.root_self", Stage::kRequest},
  };
  StageTable t;
  t.rtt_us = rtt_us;
  t.rows.push_back({"client.send", client_send_us});
  double server = 0.0, listed = 0.0;
  for (double us : trace.self_us) server += us;
  for (const auto& [name, stage] : kServerRows) {
    const double us = trace.self_us[static_cast<std::size_t>(stage)];
    t.rows.push_back({name, us});
    listed += us;
  }
  t.rows.push_back({"other", server - listed});
  t.rows.push_back({"client.recv", client_recv_us});
  t.rows.push_back({"unattributed", rtt_us - client_send_us - client_recv_us - trace.root_us});

  std::ostringstream why;
  if (trace.roots != requests)
    why << "traced roots " << trace.roots << " != timed requests " << requests << "; ";
  if (trace.orphans != 0) why << trace.orphans << " spans without a request root; ";
  if (std::fabs(server - trace.root_us) > bound * rtt_us)
    why << "server rows " << server << " us vs root spans " << trace.root_us << " us; ";
  if (t.rows.back().us < -bound * rtt_us) why << "negative remainder; ";
  t.why = why.str();
  t.closes = t.why.empty() && requests > 0;
  if (requests == 0) t.why = "no timed requests";
  return t;
}

void print_stage_table(const std::string& workload, const StageTable& table) {
  std::printf("stage table: %s (mean per request, traced open loop)\n", workload.c_str());
  double sum = 0.0;
  for (const StageRow& r : table.rows) {
    std::printf("  %-22s %12.2f us  %6.1f%%\n", r.name.c_str(), r.us,
                table.rtt_us > 0 ? 100.0 * r.us / table.rtt_us : 0.0);
    sum += r.us;
  }
  std::printf("  %-22s %12.2f us  (rows sum %.2f us)\n", "round trip", table.rtt_us, sum);
  if (table.closes)
    std::printf("  closes: yes\n");
  else
    std::printf("  closes: NO (%s)\n", table.why.c_str());
}

}  // namespace wb
