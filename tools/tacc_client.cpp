// tacc_client — CLI client for taccd.
//
// One-shot (request words as positional args; key=value options pass
// through untouched):
//
//   tacc_client --socket=/tmp/taccd.sock CONFIGURE city 200 10 seed=7
//   tacc_client --socket=/tmp/taccd.sock JOIN city 1.5 2.0
//   tacc_client --tcp=127.0.0.1:7433 STATS city
//
// Pipelined (--stdin): every stdin line is sent before any response is
// read; responses print in request order, one per line. This is the mode
// that can actually overflow the daemon's admission queue.
//
// Exit codes: 0 all responses were OK; 3 at least one ERR response;
// 4 connection failed; 5 connection dropped before every response arrived;
// 2 usage error.
#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return -1;
  const std::string host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &result) != 0) {
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads one '\n'-terminated line (without the newline) via `buffer`.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

int run(int argc, char** argv) {
  const auto flags = tacc::util::Flags::parse(argc, argv);
  const std::string socket_path = flags.get_string("socket", "");
  const std::string tcp_spec = flags.get_string("tcp", "");
  const bool from_stdin = flags.get_bool("stdin", false);
  const std::vector<std::string>& words = flags.positional();

  if ((socket_path.empty() == tcp_spec.empty()) ||
      (from_stdin == !words.empty())) {
    std::cerr << "usage: tacc_client (--socket=PATH | --tcp=HOST:PORT) "
                 "(REQUEST WORDS... | --stdin)\n";
    return 2;
  }
  for (const std::string& name : flags.unused()) {
    std::cerr << "warning: unknown flag --" << name << " ignored\n";
  }

  std::vector<std::string> requests;
  if (from_stdin) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) requests.push_back(line);
    }
  } else {
    std::string line;
    for (const std::string& word : words) {
      if (!line.empty()) line += ' ';
      line += word;
    }
    requests.push_back(std::move(line));
  }
  if (requests.empty()) {
    std::cerr << "tacc_client: no requests on stdin\n";
    return 2;
  }

  ::signal(SIGPIPE, SIG_IGN);
  const int fd = socket_path.empty() ? connect_tcp(tcp_spec)
                                     : connect_unix(socket_path);
  if (fd < 0) {
    std::cerr << "tacc_client: cannot connect to "
              << (socket_path.empty() ? tcp_spec : socket_path) << "\n";
    return 4;
  }

  // Pipelined send: all requests go out before any response is read. The
  // daemon reads between batches, and the socket buffers hold the replies
  // of a smoke-test-sized stream, so this cannot deadlock at that scale.
  std::string outgoing;
  for (const std::string& request : requests) {
    outgoing += request;
    outgoing += '\n';
  }
  if (!send_all(fd, outgoing)) {
    std::cerr << "tacc_client: send failed\n";
    ::close(fd);
    return 5;
  }

  std::string buffer;
  std::string response;
  bool any_err = false;
  std::size_t received = 0;
  while (received < requests.size() &&
         read_line(fd, buffer, response)) {
    std::cout << response << "\n";
    if (response.rfind("OK", 0) != 0) any_err = true;
    ++received;
  }
  ::close(fd);
  if (received < requests.size()) {
    std::cerr << "tacc_client: connection closed after " << received << "/"
              << requests.size() << " responses\n";
    return 5;
  }
  return any_err ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "tacc_client: " << error.what() << "\n";
    return 1;
  }
}
