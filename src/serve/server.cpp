#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace uwbams::serve {

namespace {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; nothing useful to do with the tail
    }
    off += static_cast<std::size_t>(n);
  }
}

int make_listener(const std::string& path) {
  if (path.empty())
    throw std::runtime_error("Server: empty socket path");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("Server: socket path too long (" + path + ")");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("Server: socket(): ") +
                             std::strerror(errno));
  ::unlink(path.c_str());  // clear a stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("Server: bind(" + path +
                             "): " + std::strerror(err));
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw std::runtime_error(std::string("Server: listen(): ") +
                             std::strerror(err));
  }
  return fd;
}

}  // namespace

Server::Server(std::string socket_path, ScenarioService& service)
    : socket_path_(std::move(socket_path)),
      service_(service),
      listen_fd_(make_listener(socket_path_)) {}

Server::~Server() { stop(); }

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes the blocked accept(); close() alone may not. The fd
  // is closed only after the accept thread has left it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Stop reading new requests; responses already being written still go
    // out, so shutdown drains rather than truncates. Every fd in conns_ is
    // open while conn_mu_ is held.
    std::unique_lock<std::mutex> lock(conn_mu_);
    for (const auto& entry : conns_) ::shutdown(entry.first, SHUT_RD);
    conn_cv_.wait(lock, [&] { return conns_.empty(); });
  }
  reap();
  ::unlink(socket_path_.c_str());
}

void Server::reap() {
  std::vector<std::thread> ended;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ended.swap(ended_);
  }
  for (auto& t : ended) t.join();
}

std::size_t Server::tracked_connections() {
  reap();
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conns_.size() + ended_.size();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by stop()
    }
    reap();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    conns_.emplace(fd, std::thread([this, fd] { connection_loop(fd); }));
  }
}

void Server::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      send_all(fd, service_.handle_line(line) + "\n");
      if (service_.shutdown_requested()) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestBytes) {
      // Refuse mid-line before buffering an unbounded request.
      send_all(fd, error_line("request exceeds " +
                              std::to_string(kMaxRequestBytes) + " bytes") +
                       "\n");
      break;
    }
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (service_.shutdown_requested()) {
    // Stop reading on the other connections so they drain and end too.
    for (const auto& entry : conns_)
      if (entry.first != fd) ::shutdown(entry.first, SHUT_RD);
  }
  // Leave conns_ before the fd number can be reused; reap() joins us.
  const auto self = conns_.find(fd);
  ended_.push_back(std::move(self->second));
  conns_.erase(self);
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  conn_cv_.notify_all();
}

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("Client: socket path too long (" + socket_path +
                             ")");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw std::runtime_error(std::string("Client: socket(): ") +
                             std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("Client: connect(" + socket_path +
                             "): " + std::strerror(err));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::roundtrip(const std::string& line) {
  send_all(fd_, line + "\n");
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string out = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!out.empty() && out.back() == '\r') out.pop_back();
      return out;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw std::runtime_error("Client: server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace uwbams::serve
