// Async serving through the public API (src/api): a self-contained
// embedder's view of the Service façade — submit mixed encode / decode /
// transcode traffic from several client threads, then read the metrics.
//
//   $ ./api_server
//
// Like quickstart.cpp, this file includes ONLY the public umbrella header.
// The error model is on display: every reply carries a typed Status, the
// bad-input submission comes back kInvalidArgument without touching the
// queue, and submissions after shutdown() come back kShutdown.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "api/dnj.hpp"

using namespace dnj::api;

namespace {

constexpr int kSide = 32;

std::vector<std::uint8_t> make_image(int seed) {
  std::vector<std::uint8_t> px(static_cast<std::size_t>(kSide) * kSide);
  for (int y = 0; y < kSide; ++y)
    for (int x = 0; x < kSide; ++x) {
      const double v =
          128.0 + 55.0 * std::sin(0.31 * x + 0.13 * seed) * std::cos(0.22 * y);
      px[static_cast<std::size_t>(y) * kSide + x] =
          static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
    }
  return px;
}

}  // namespace

int main() {
  // A small corpus plus its encoded forms (for decode/transcode traffic).
  Session session;
  Codec codec = session.codec();
  const EncodeOptions store_options = EncodeOptions().quality(85).chroma_420(false);

  std::vector<std::vector<std::uint8_t>> images;
  std::vector<std::vector<std::uint8_t>> streams;
  for (int i = 0; i < 16; ++i) {
    images.push_back(make_image(i));
    Result<std::vector<std::uint8_t>> s =
        codec.encode(ImageView{images.back().data(), kSide, kSide, 1}, store_options);
    if (!s.ok()) {
      std::fprintf(stderr, "corpus encode failed: %s\n", s.status().code_name());
      return 1;
    }
    streams.push_back(s.take());
  }

  Service service(ServiceOptions().workers(4));

  // Mixed closed-loop traffic from four client threads.
  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::vector<std::uint64_t> ok(kClients, 0), failed(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const EncodeOptions transcode_options = EncodeOptions().quality(45).chroma_420(false);
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t pick = static_cast<std::size_t>(i * kClients + c) % images.size();
        Pending pending;
        switch (i % 3) {
          case 0:
            pending = service.encode(ImageView{images[pick].data(), kSide, kSide, 1},
                                     store_options);
            break;
          case 1:
            pending = service.decode(streams[pick]);
            break;
          default:
            pending = service.transcode(streams[pick], transcode_options);
            break;
        }
        const ServiceReply reply = pending.get();
        std::uint64_t& counter = reply.status.ok() ? ok[static_cast<std::size_t>(c)]
                                                   : failed[static_cast<std::size_t>(c)];
        ++counter;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // The typed error paths, end to end.
  const ServiceReply bad =
      service.encode(ImageView{nullptr, kSide, kSide, 1}, store_options).get();
  std::printf("null-pixel submit     -> %s\n", bad.status.code_name());

  const ServiceMetrics m = service.metrics();
  std::uint64_t total_ok = 0, total_failed = 0;
  for (int c = 0; c < kClients; ++c) {
    total_ok += ok[static_cast<std::size_t>(c)];
    total_failed += failed[static_cast<std::size_t>(c)];
  }
  std::printf("\nclients: %d x %d requests -> ok=%llu failed=%llu\n", kClients,
              kPerClient, static_cast<unsigned long long>(total_ok),
              static_cast<unsigned long long>(total_failed));
  std::printf("service: submitted=%llu completed=%llu\n",
              static_cast<unsigned long long>(m.submitted),
              static_cast<unsigned long long>(m.completed));
  std::printf("latency p50/p95/p99 = %.0f/%.0f/%.0f us\n", m.total_p50_us, m.total_p95_us,
              m.total_p99_us);

  service.shutdown();
  const ServiceReply late = service.decode(streams.front()).get();
  std::printf("post-shutdown submit  -> %s\n", late.status.code_name());
  return total_failed == 0 && bad.status.code() == StatusCode::kInvalidArgument &&
                 late.status.code() == StatusCode::kShutdown
             ? 0
             : 1;
}
