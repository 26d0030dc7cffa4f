/// @file server.hpp
/// @brief AF_UNIX line-framed transport for `uwbams_serve`.
///
/// Server owns a listening SOCK_STREAM unix-domain socket and a small
/// thread-per-connection accept loop (an ended connection's thread is
/// joined at the next accept); all request semantics live in the
/// ScenarioService it wraps (service.hpp). Framing is newline-delimited:
/// each complete line goes to ScenarioService::handle_line and the single
/// response line is written back. A connection whose buffered line exceeds
/// protocol kMaxRequestBytes gets one structured error response and is
/// closed — the server never allocates unboundedly for a hostile peer.
///
/// Client is the matching blocking connector used by the CLI request mode
/// and the tests: one roundtrip() = write a line, read a line.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace uwbams::serve {

class Server {
 public:
  /// Binds and listens on `socket_path` (an existing stale socket file is
  /// removed first). @throws std::runtime_error on any socket failure.
  Server(std::string socket_path, ScenarioService& service);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the accept loop in a background thread.
  void start();
  /// Stops accepting, shuts down live connections for reading (in-flight
  /// responses still drain), joins all threads, unlinks the socket file.
  /// Idempotent.
  void stop();

  const std::string& socket_path() const { return socket_path_; }

  /// Connections whose thread has not been joined yet: live ones plus
  /// ended ones not reaped so far (this call reaps those first).
  std::size_t tracked_connections();

 private:
  void accept_loop();
  void connection_loop(int fd);
  /// Joins the threads of connections that have ended.
  void reap();

  std::string socket_path_;
  ScenarioService& service_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  // A connection's entry leaves `conns_` before its fd is closed, so
  // stop() never shuts down a reused fd number; its thread then waits in
  // `ended_` for reap().
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;  // a connection ended
  std::map<int, std::thread> conns_;
  std::vector<std::thread> ended_;
};

/// Blocking unix-domain client: connect once, then any number of
/// line-in / line-out roundtrips on the same connection.
class Client {
 public:
  /// @throws std::runtime_error if the connect fails.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `line` (newline appended) and returns the response line
  /// (newline stripped). @throws std::runtime_error on a dropped
  /// connection.
  std::string roundtrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the last returned line
};

}  // namespace uwbams::serve
