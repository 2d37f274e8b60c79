// A standalone DeepN-JPEG network server over the public API: construct an
// async Service, open the TCP front end with listen(), and serve the
// binary protocol (docs/PROTOCOL.md) until stdin closes.
//
//   ./net_server [port] [workers]
//
//   port     TCP port to bind on 127.0.0.1 (default 0 = ephemeral; the
//            bound port is printed either way)
//   workers  service worker threads (default 2)
//
// Pair it with tools/scrape_stats.py or any foreign client built from the
// protocol spec:
//
//   $ ./net_server 9090 4
//   dnj net_server: listening on 127.0.0.1:9090 (4 workers)
//   ... Ctrl-D to drain and exit ...
//
// Like every example, this includes ONLY the public umbrella header — no
// internal layer is touched; listen()/stop_listening() and the typed
// Status results are the whole operational surface.
#include <cstdio>
#include <cstdlib>

#include "api/dnj.hpp"

int main(int argc, char** argv) {
  const int port = argc > 1 ? std::atoi(argv[1]) : 0;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 2;
  if (port < 0 || port > 65535 || workers < 1) {
    std::fprintf(stderr, "usage: %s [port] [workers]\n", argv[0]);
    return 2;
  }

  dnj::api::Service service(dnj::api::ServiceOptions()
                                .workers(workers)
                                .reject_when_full(true));  // typed overload, not stalls

  const dnj::api::Status status = service.listen(
      dnj::api::ListenOptions().port(static_cast<std::uint16_t>(port)));
  if (!status.ok()) {
    std::fprintf(stderr, "dnj net_server: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("dnj net_server: listening on 127.0.0.1:%d (%d workers)\n",
              service.listen_port(), workers);
  std::printf("dnj net_server: EOF on stdin (Ctrl-D) drains and exits\n");
  std::fflush(stdout);

  // Serve until stdin closes — the idiomatic way to run under a pipe, a
  // terminal, or a process supervisor alike.
  int c;
  while ((c = std::getchar()) != EOF) {
  }

  service.shutdown();  // drains the listener, then the service
  std::printf("dnj net_server: drained, bye\n");
  return 0;
}
