#include "loadgen.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <thread>
#include <unordered_map>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace wb {

using namespace dnj;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long a phase waits for outstanding replies after its last send.
constexpr auto kDrain = std::chrono::seconds(15);
constexpr std::size_t kRecvChunk = 256 * 1024;
constexpr int kMaxIov = 64;
constexpr auto kSpin = std::chrono::microseconds(50);

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

}  // namespace

std::uint64_t PhaseResult::done() const {
  std::uint64_t n = 0;
  for (std::uint32_t c : done_per_ms) n += c;
  return n;
}

struct Generator::Connection {
  struct Out {
    std::array<std::uint8_t, net::kHeaderSize> header;  ///< the frame's header, own id
    const std::vector<std::uint8_t>* frame = nullptr;
    std::size_t off = 0;
    std::uint32_t id = 0;
    std::int64_t slot = -1;  ///< open loop: index into late_ms
    Clock::time_point due;
  };
  struct Inflight {
    const Item* item = nullptr;
    Clock::time_point due, start;
    double send_us = 0.0;
    std::int64_t slot = -1;  ///< open loop: index into latency_ms
  };
  net::ScopedFd fd;
  std::vector<std::uint8_t> in;  ///< received bytes; whole frames are consumed from `pos`
  std::size_t pos = 0;
  std::deque<Out> out;
  std::unordered_map<std::uint32_t, Inflight> inflight;
  std::uint32_t next_id = 1;
  bool dead = false;
};

struct Generator::Plan {
  Clock::time_point start;
  struct Send {
    const Item* item;
    double at;  ///< due time, seconds from start
    int conn;   ///< index into conns_
  };
  std::vector<Send> sends;  ///< open loop, in due order

  const Catalog* catalog = nullptr;  ///< closed loop when set
  int depth_per_conn = 0;
  Clock::time_point deadline;
  std::uint64_t k0 = 0;
};

Generator::Generator(int connections, int cpu)
    : connections_(std::max(1, connections)), cpu_(cpu) {}

Generator::~Generator() = default;

bool Generator::connect(std::uint16_t port, std::string* error) {
  conns_.clear();
  for (int i = 0; i < connections_; ++i) {
    auto c = std::make_unique<Connection>();
    c->fd = net::tcp_connect("127.0.0.1", port, error);
    if (!c->fd.valid() || !net::set_nonblocking(c->fd.get())) {
      if (error->empty()) *error = "cannot make the client socket non-blocking";
      return false;
    }
    conns_.push_back(std::move(c));
  }
  return true;
}

PhaseResult Generator::run(const Plan& plan) {
  PhaseResult res;
  const bool closed = plan.catalog != nullptr;
  std::vector<char> buf(kRecvChunk);
  if (closed) {
    const double ms = s_between(plan.start, plan.deadline) * 1000.0;
    res.done_per_ms.assign(static_cast<std::size_t>(std::ceil(ms)), 0);
  } else {
    for (std::vector<double>* v :
         {&res.due_s, &res.latency_ms, &res.late_ms, &res.queue_us, &res.service_us})
      v->reserve(plan.sends.size());
  }

  const auto fail = [&](Connection& c) {
    if (c.dead) return;
    c.dead = true;
    res.transport += c.inflight.size();
    c.inflight.clear();
    c.out.clear();
    c.fd.reset();
  };

  // Writes as much of the connection's queue as the socket takes, many
  // frames per system call.
  const auto flush = [&](Connection& c) {
    while (!c.out.empty() && !c.dead) {
      iovec iov[kMaxIov];
      int n = 0;
      for (auto it = c.out.begin(); it != c.out.end() && n + 2 <= kMaxIov; ++it) {
        if (it->off < net::kHeaderSize)
          iov[n++] = {it->header.data() + it->off, net::kHeaderSize - it->off};
        const std::size_t body = std::max(it->off, net::kHeaderSize);
        if (body < it->frame->size())
          iov[n++] = {const_cast<std::uint8_t*>(it->frame->data()) + body,
                      it->frame->size() - body};
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(n);
      const long w = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        fail(c);
        return;
      }
      const Clock::time_point now = Clock::now();
      for (std::size_t left = static_cast<std::size_t>(w); left > 0;) {
        Connection::Out& o = c.out.front();
        if (o.off == 0 && o.slot >= 0)  // the request's first byte is on the wire
          res.late_ms[static_cast<std::size_t>(o.slot)] =
              std::chrono::duration<double, std::milli>(now - o.due).count();
        const std::size_t take = std::min(left, o.frame->size() - o.off);
        o.off += take;
        left -= take;
        if (o.off == o.frame->size()) {
          auto in = c.inflight.find(o.id);
          if (in != c.inflight.end()) in->second.send_us = us_between(in->second.start, now);
          c.out.pop_front();
        }
      }
    }
  };

  // Queues one request; the caller flushes.
  const auto enqueue = [&](Connection& c, const Item& item, double at) {
    const Clock::time_point now = Clock::now();
    ++res.attempted;
    std::int64_t slot = -1;
    if (!closed) {  // late_ms[slot] is written when the first byte goes out
      slot = static_cast<std::int64_t>(res.latency_ms.size());
      res.due_s.push_back(at);
      res.latency_ms.push_back(kInf);
      res.late_ms.push_back(0.0);
    }
    if (c.dead) {  // a lost connection fails every request scheduled on it
      ++res.transport;
      return;
    }
    Connection::Out o;
    std::memcpy(o.header.data(), item.frame.data(), net::kHeaderSize);
    o.id = c.next_id++;
    for (int b = 0; b < 4; ++b) o.header[8 + b] = static_cast<std::uint8_t>(o.id >> (8 * b));
    o.frame = &item.frame;
    o.slot = slot;
    o.due = closed ? now : after(plan.start, at);
    Connection::Inflight in;
    in.item = &item;
    in.due = o.due;
    in.start = now;
    in.slot = slot;
    c.inflight.emplace(o.id, in);
    c.out.push_back(o);
  };

  const auto on_reply = [&](Connection& c, const net::Frame& frame, const net::WireReply& reply,
                            Clock::time_point burst, Clock::time_point parsed) {
    auto it = c.inflight.find(reply.request_id);
    if (it == c.inflight.end()) {  // not ours: the stream can no longer be trusted
      fail(c);
      return;
    }
    const Connection::Inflight in = it->second;
    c.inflight.erase(it);
    if (reply.status != net::WireStatus::kOk) {
      ++res.refused;
      return;
    }
    const Item& item = *in.item;
    const bool decode = item.op == net::Op::kDecode;
    const bool match =
        decode ? reply.image.width() == item.width && reply.image.height() == item.height &&
                     reply.image.channels() == item.channels && reply.image.data() == item.want
               : reply.bytes == item.want;
    if (!match) {
      ++res.mismatches;
      return;
    }
    ++res.ok;
    if (closed && parsed < plan.deadline) {
      const auto ms = static_cast<std::size_t>(s_between(plan.start, parsed) * 1000.0);
      if (ms < res.done_per_ms.size()) ++res.done_per_ms[ms];
    }
    if (in.slot >= 0)
      res.latency_ms[static_cast<std::size_t>(in.slot)] =
          std::chrono::duration<double, std::milli>(parsed - in.due).count();
    if (!closed) {
      res.queue_us.push_back(reply.queue_us);
      res.service_us.push_back(reply.service_us);
    }
    res.send_us += in.send_us;
    res.recv_us += us_between(burst, parsed);
    res.rtt_us += us_between(in.start, parsed);
    res.req_bytes += static_cast<double>(item.frame.size());
    res.resp_bytes += static_cast<double>(net::kHeaderSize + frame.payload.size());
    res.out_bytes += static_cast<double>(decode ? reply.image.byte_size() : reply.bytes.size());
  };

  // Frames are cut from the byte stream by their header alone. The payload
  // CRC is not verified: every payload is compared with its expectation
  // instead, and the generator's cost then does not move with the
  // library's CRC code.
  const auto on_readable = [&](Connection& c) {
    const Clock::time_point burst = Clock::now();
    for (;;) {
      const long n = ::recv(c.fd.get(), buf.data(), buf.size(), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf.data(), buf.data() + n);
        if (static_cast<std::size_t>(n) < buf.size()) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail(c);  // peer closed or socket error
      return;
    }
    while (c.in.size() - c.pos >= net::kHeaderSize) {
      const std::uint8_t* h = c.in.data() + c.pos;
      const std::size_t size = net::read_u32(h + 20);
      if (net::read_u32(h) != net::kMagic ||
          h[5] != static_cast<std::uint8_t>(net::FrameType::kResponse) ||
          size > net::kMaxPayloadBytes) {
        fail(c);
        return;
      }
      if (c.in.size() - c.pos < net::kHeaderSize + size) break;
      net::Frame frame;
      frame.version = h[4];
      frame.type = net::FrameType::kResponse;
      frame.op = static_cast<net::Op>(h[6]);
      frame.status = h[7];
      frame.request_id = net::read_u32(h + 8);
      frame.config_digest = net::read_u64(h + 12);
      frame.payload.assign(h + net::kHeaderSize, h + net::kHeaderSize + size);
      c.pos += net::kHeaderSize + size;
      net::WireReply reply;
      if (!net::parse_response(frame, &reply)) {
        fail(c);
        return;
      }
      on_reply(c, frame, reply, burst, Clock::now());
      if (c.dead) return;
    }
    if (c.pos == c.in.size()) {
      c.in.clear();
      c.pos = 0;
    } else if (c.pos >= kRecvChunk) {  // keep a partial frame, drop what was consumed
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(c.pos));
      c.pos = 0;
    }
  };

  std::size_t next = 0;
  std::uint64_t j = 0;
  const std::size_t planned = plan.sends.size();
  const Clock::time_point last_send =
      closed ? plan.deadline : after(plan.start, planned == 0 ? 0.0 : plan.sends.back().at);
  const Clock::time_point give_up = last_send + kDrain;
  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;

  for (;;) {
    Clock::time_point now = Clock::now();
    if (!closed) {
      while (next < planned && after(plan.start, plan.sends[next].at) <= now) {
        const Plan::Send& s = plan.sends[next++];
        enqueue(*conns_[static_cast<std::size_t>(s.conn)], *s.item, s.at);
      }
    } else if (now < plan.deadline) {
      for (auto& c : conns_) {
        while (!c->dead && c->inflight.size() < static_cast<std::size_t>(plan.depth_per_conn)) {
          enqueue(*c, plan.catalog->items[plan.catalog->pick(plan.k0 + j++)], 0.0);
        }
      }
    }
    for (auto& c : conns_)
      if (!c->dead && !c->out.empty()) flush(*c);

    now = Clock::now();
    const bool sending_done = closed ? now >= plan.deadline : next == planned;
    std::size_t outstanding = 0;
    for (auto& c : conns_) outstanding += c->inflight.size();
    if (sending_done && outstanding == 0) break;
    if (now >= give_up) {
      for (auto& c : conns_) fail(*c);
      break;
    }

    Clock::time_point wake = now + std::chrono::milliseconds(5);
    if (!closed && next < planned) wake = std::min(wake, after(plan.start, plan.sends[next].at));
    if (closed && !sending_done) wake = std::min(wake, plan.deadline);
    // A due time this close is polled for, not slept towards: a wake-up
    // from sleep would add its own latency to the request's.
    if (!closed && next < planned && wake - now < kSpin) wake = now;
    pfds.clear();
    polled.clear();
    for (auto& c : conns_) {
      if (c->dead) continue;
      const short events = static_cast<short>(POLLIN | (c->out.empty() ? 0 : POLLOUT));
      pfds.push_back({c->fd.get(), events, 0});
      polled.push_back(c.get());
    }
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000), static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      Connection& c = *polled[i];
      const short ev = pfds[i].revents;
      if (ev & (POLLIN | POLLERR | POLLHUP)) on_readable(c);
      if (!c.dead && (ev & POLLOUT)) flush(c);
    }
  }
  return res;
}

PhaseResult Generator::run_pinned(const Plan& plan) {
  PhaseResult res;
  std::thread thread([this, &plan, &res] {
    if (cpu_ >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu_, &one);
      ::sched_setaffinity(0, sizeof one, &one);
    }
    // Due-time wake-ups should not be deferred by the default 50 us slack.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    try {
      res = run(plan);
    } catch (const std::exception&) {
      res = PhaseResult{};
      res.attempted = res.transport = 1;  // failed, never silently short
    }
  });
  thread.join();
  return res;
}

bool Generator::round_trip(const Item& item, std::string* error) {
  Plan plan;
  plan.start = Clock::now();
  plan.sends.push_back({&item, 0.0, 0});
  const PhaseResult r = run(plan);
  if (r.ok == 1) return true;
  *error = r.mismatches ? "first reply differs from its expectation"
                        : r.refused ? "first request refused" : "first request got no reply";
  return false;
}

PhaseResult Generator::run_open(const Catalog& catalog, double rate, double seconds,
                                std::uint64_t seed, std::uint64_t k0) {
  Plan plan;
  plan.start = Clock::now() + std::chrono::milliseconds(2);
  double at = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    // Paced arrivals: the mean gap is 1/rate, each gap jittered to
    // [0.75, 1.25) of it by the seed.
    at += (0.75 + 0.5 * unit(mix64(seed ^ mix64(0xA11CE + k0 + i)))) / rate;
    if (at >= seconds) break;
    plan.sends.push_back({&catalog.items[catalog.pick(k0 + i)], at,
                          static_cast<int>(i % static_cast<std::uint64_t>(connections_))});
  }
  return run_pinned(plan);
}

PhaseResult Generator::run_closed(const Catalog& catalog, int depth, double seconds,
                                  std::uint64_t k0) {
  Plan plan;
  plan.start = Clock::now();
  plan.catalog = &catalog;
  plan.depth_per_conn = std::max(1, depth / connections_);
  plan.deadline = after(plan.start, seconds);
  plan.k0 = k0;
  PhaseResult r = run_pinned(plan);
  r.window_s = seconds;
  return r;
}

}  // namespace wb
