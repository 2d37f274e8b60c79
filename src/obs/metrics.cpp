#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace dnj::obs {

namespace {

/// Shortest text that round-trips the double; counters print as integers.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string escaping for names/label text (control chars, quote, slash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += Registry::escape_label_value(value);
    out += '"';
  }
  out += '}';
  return out;
}

bool sample_less(const Sample& a, const Sample& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

}  // namespace

std::string Registry::escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string Registry::instrument_key(const std::string& name, const Labels& labels) {
  // '\x1f' cannot appear in metric names and is escaped out of label
  // values on render, so the key is collision-free.
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  const std::string key = instrument_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(key, std::make_unique<Counter>()).first;
    identities_.emplace(key, std::make_pair(name, labels));
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  const std::string key = instrument_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>()).first;
    identities_.emplace(key, std::make_pair(name, labels));
  }
  return *it->second;
}

HistogramHandle& Registry::histogram(const std::string& name, const Labels& labels,
                                     double lo, double hi, int bins) {
  const std::string key = instrument_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    HistEntry entry;
    entry.name = name;
    entry.labels = labels;
    entry.handle = std::make_unique<HistogramHandle>(lo, hi, bins);
    it = histograms_.emplace(key, std::move(entry)).first;
  }
  return *it->second.handle;
}

std::vector<Sample> Registry::gather() const {
  std::vector<Sample> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, counter] : counters_) {
      const auto& [name, labels] = identities_.at(key);
      out.push_back({name, labels, static_cast<double>(counter->value()),
                     SampleKind::kCounter});
    }
    for (const auto& [key, gauge] : gauges_) {
      const auto& [name, labels] = identities_.at(key);
      out.push_back({name, labels, gauge->value(), SampleKind::kGauge});
    }
    for (const auto& [key, entry] : histograms_) {
      // Summary expansion: quantiles as labeled gauges, then _sum/_count/_max.
      for (const auto& [q, qname] :
           {std::make_pair(0.5, "0.5"), std::make_pair(0.95, "0.95"),
            std::make_pair(0.99, "0.99")}) {
        Labels labels = entry.labels;
        labels.emplace_back("quantile", qname);
        out.push_back({entry.name, std::move(labels), entry.handle->quantile(q),
                       SampleKind::kGauge});
      }
      out.push_back({entry.name + "_sum", entry.labels, entry.handle->sum(),
                     SampleKind::kCounter});
      out.push_back({entry.name + "_count", entry.labels,
                     static_cast<double>(entry.handle->count()),
                     SampleKind::kCounter});
      out.push_back({entry.name + "_max", entry.labels, entry.handle->max(),
                     SampleKind::kGauge});
    }
  }
  std::stable_sort(out.begin(), out.end(), sample_less);
  return out;
}

std::string Registry::render_prometheus() const {
  const std::vector<Sample> samples = gather();
  std::string out;
  out.reserve(samples.size() * 64);
  std::string last_name;
  for (const Sample& s : samples) {
    if (s.name != last_name) {
      last_name = s.name;
      out += "# TYPE ";
      out += s.name;
      out += s.kind == SampleKind::kCounter ? " counter\n" : " gauge\n";
    }
    out += s.name;
    out += label_block(s.labels);
    out += ' ';
    out += format_value(s.value);
    out += '\n';
  }
  return out;
}

std::string Registry::render_json() const {
  const std::vector<Sample> samples = gather();
  std::string out;
  out.reserve(samples.size() * 80 + 32);
  out += "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"kind\":\"";
    out += s.kind == SampleKind::kCounter ? "counter" : "gauge";
    out += "\",\"labels\":{";
    bool lfirst = true;
    for (const auto& [k, v] : s.labels) {
      if (!lfirst) out += ',';
      lfirst = false;
      out += '"';
      out += json_escape(k);
      out += "\":\"";
      out += json_escape(v);
      out += '"';
    }
    out += "},\"value\":";
    out += format_value(s.value);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace dnj::obs
