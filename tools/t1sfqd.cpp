/// \file t1sfqd.cpp
/// \brief The synthesis daemon: src/service/ behind a transport.
///
/// Two transports over the same length-prefixed JSON protocol
/// (src/service/protocol.hpp):
///
///   * `--stdio`          — serve frames on stdin/stdout until EOF or a
///                          `shutdown` request. This is what the tests, the
///                          CI smoke job and editor integrations drive: no
///                          socket files, no lifecycle management, and the
///                          daemon dies with its parent.
///   * `--socket <path>`  — listen on a unix-domain socket and serve
///                          connections one at a time (the Server itself is
///                          thread-safe; sequential accept keeps the daemon's
///                          resource profile flat and its logs readable). A
///                          `shutdown` request stops the daemon after the
///                          response is written; the socket file is removed
///                          on exit.
///
/// Every service knob is a flag (see --help): warm-cache capacity, session-
/// table capacity, disk-blob layering, ECO eligibility and shadow
/// verification, batch parallelism, obs recording. Exit code 0 on clean
/// shutdown/EOF, 1 on transport errors, 2 on bad flags.

#include <csignal>
#include <cstring>
#include <iostream>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "benchmarks/argparse.hpp"
#include "service/server.hpp"

using namespace t1sfq;

namespace {

/// Minimal bidirectional streambuf over a connected file descriptor, so the
/// transport-agnostic `Server::serve(istream&, ostream&)` runs unchanged on
/// socket connections.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(rbuf_, rbuf_, rbuf_);
    setp(wbuf_, wbuf_ + sizeof(wbuf_));
  }

 protected:
  int underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, rbuf_, sizeof(rbuf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(rbuf_, rbuf_, rbuf_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int overflow(int ch) override {
    if (!flush_()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return 0;
  }

  int sync() override { return flush_() ? 0 : -1; }

 private:
  bool flush_() {
    const char* p = pbase();
    while (p < pptr()) {
      ssize_t n;
      do {
        n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return false;
      p += n;
    }
    setp(wbuf_, wbuf_ + sizeof(wbuf_));
    return true;
  }

  int fd_;
  char rbuf_[8192];
  char wbuf_[8192];
};

int serve_stdio(service::Server& server) {
  // Frames are binary (4-byte length prefix); keep stdio un-tied and let the
  // protocol's explicit flushes pace the writes.
  std::cin.tie(nullptr);
  server.serve(std::cin, std::cout);
  return 0;
}

int serve_socket(service::Server& server, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "t1sfqd: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "t1sfqd: socket path too long: " << path << "\n";
    ::close(listener);
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 8) < 0) {
    std::cerr << "t1sfqd: bind/listen(" << path << "): " << std::strerror(errno)
              << "\n";
    ::close(listener);
    return 1;
  }
  std::cerr << "t1sfqd: listening on " << path << "\n";

  while (!server.shutdown_requested()) {
    int conn;
    do {
      conn = ::accept(listener, nullptr, nullptr);
    } while (conn < 0 && errno == EINTR);
    if (conn < 0) {
      std::cerr << "t1sfqd: accept(): " << std::strerror(errno) << "\n";
      break;
    }
    FdStreamBuf buf(conn);
    std::istream in(&buf);
    std::ostream out(&buf);
    server.serve(in, out);
    out.flush();
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool stdio = false;
  std::string socket_path;
  service::ServerConfig cfg;
  bool no_disk_cache = false;
  bool verify_eco = false;

  bench::ArgParser args("t1sfqd");
  args.flag("--stdio", &stdio, "serve frames on stdin/stdout (tests, CI)")
      .string_opt("--socket", &socket_path, "path", "listen on a unix-domain socket")
      .size_opt("--cache-entries", &cfg.cache_entries, "N",
                "in-memory warm-cache capacity (0: off)")
      .flag("--no-disk-cache", &no_disk_cache, "skip the on-disk warm-cache blobs")
      .size_opt("--max-sessions", &cfg.max_sessions, "N",
                "session-table capacity; the least recently served is evicted (>= 1)")
      .uint_opt("--batch-threads", &cfg.batch_threads, "N",
                "batch request parallelism (0 = hardware)")
      .double_opt("--eco-max-dirty", &cfg.session.max_dirty_fraction, "F",
                  "ECO eligibility: max dirty fraction of the live netlist")
      .flag("--verify-eco", &verify_eco,
            "shadow-run the full flow after every ECO and compare results")
      .flag("--observe", &cfg.observe, "record obs metrics for every request");
  if (!args.parse(argc, argv)) return 2;
  cfg.disk_cache = !no_disk_cache;
  cfg.session.verify = verify_eco;

  if (cfg.max_sessions == 0) {
    std::cerr << "t1sfqd: --max-sessions must be at least 1\n" << args.usage();
    return 2;
  }
  if (stdio == !socket_path.empty()) {
    std::cerr << "t1sfqd: pick exactly one transport (--stdio or --socket <path>)\n"
              << args.usage();
    return 2;
  }

  // A client vanishing mid-response must error the write, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  service::Server server(cfg);
  return stdio ? serve_stdio(server) : serve_socket(server, socket_path);
}
