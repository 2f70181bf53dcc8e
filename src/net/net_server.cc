#include "net/net_server.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/logging.h"
#include "base/net_util.h"
#include "base/string_util.h"

namespace thali {
namespace net {

namespace {

// Loop sleep while work is pending (completions also wake it) vs idle.
constexpr int kBusyTimeoutMs = 1;
constexpr int kIdleTimeoutMs = 50;

}  // namespace

// Both ends are non-blocking: a full pipe already holds a pending wake.
struct NetServer::WakePipe {
  WakePipe(int rx_fd, int tx_fd) : rx(rx_fd), tx(tx_fd) {}
  ~WakePipe() {
    CloseFd(rx);
    CloseFd(tx);
  }
  void Wake() const {
    const char byte = 'x';
    (void)!write(tx, &byte, 1);
  }
  const int rx, tx;
};

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    const Options& options, serve::ModelRouter* router) {
  if (router == nullptr || router->ModelNames().empty()) {
    return Status::InvalidArgument("router must have at least one model");
  }
  StatusOr<int> listen_fd = ListenLoopback(options.port);
  if (!listen_fd.ok()) return listen_fd.status();
  StatusOr<uint16_t> port = LocalPort(*listen_fd);
  if (!port.ok()) {
    CloseFd(*listen_fd);
    return port.status();
  }
  StatusOr<EventLoop> loop = EventLoop::Create();
  if (!loop.ok()) {
    CloseFd(*listen_fd);
    return loop.status();
  }
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    CloseFd(*listen_fd);
    return Status::IOError(StrFormat("pipe: %s", strerror(errno)));
  }
  auto wake = std::make_shared<const WakePipe>(pipe_fds[0], pipe_fds[1]);
  for (int fd : pipe_fds) {
    Status nb = SetNonBlocking(fd, true);
    if (!nb.ok()) {
      CloseFd(*listen_fd);
      return nb;
    }
  }
  return std::unique_ptr<NetServer>(
      new NetServer(options, router, std::move(loop).value(), *listen_fd,
                    *port, std::move(wake)));
}

NetServer::NetServer(const Options& options, serve::ModelRouter* router,
                     EventLoop loop, int listen_fd, uint16_t port,
                     std::shared_ptr<const WakePipe> wake)
    : options_(options),
      router_(router),
      loop_(std::move(loop)),
      listen_fd_(listen_fd),
      port_(port),
      wake_(std::move(wake)) {
  THALI_CHECK_OK(loop_.Add(listen_fd_, /*want_write=*/false));
  THALI_CHECK_OK(loop_.Add(wake_->rx, /*want_write=*/false));
  loop_thread_ = std::thread([this] { LoopThread(); });
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  stop_.store(true, std::memory_order_release);
  wake_->Wake();  // out of the idle sleep
  loop_thread_.join();
  for (auto& [fd, conn] : conns_) CloseFd(fd);
  conns_.clear();
  CloseFd(listen_fd_);
}

void NetServer::AcceptPending() {
  for (;;) {
    StatusOr<int> fd = AcceptConnection(listen_fd_);
    if (!fd.ok()) {
      if (fd.status().code() != StatusCode::kUnavailable) {
        THALI_LOG(Warning) << "accept failed: " << fd.status().ToString();
      }
      return;
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // At the connection cap the newcomer is turned away outright —
      // admission control for sockets, mirroring queue backpressure.
      CloseFd(*fd);
      counters_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Status added = loop_.Add(*fd, /*want_write=*/false);
    if (!added.ok()) {
      CloseFd(*fd);
      continue;
    }
    conns_.emplace(*fd, std::make_unique<Connection>(*fd));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

bool NetServer::ReadFromConnection(Connection* conn) {
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = recv(conn->fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      Status fed = conn->FeedBytes(std::span<const uint8_t>(
          buf, static_cast<size_t>(n)));
      if (!fed.ok()) return false;  // framing error: cut the peer off
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;  // more may be buffered
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

std::string NetServer::BuildStatsJson() const {
  std::string json = "{\"router\": ";
  json += router_->StatsJson();
  json += StrFormat(
      ", \"net\": {\"backend\": \"%s\", \"connections\": %zu, "
      "\"connections_accepted\": %lld, \"connections_dropped\": %lld, "
      "\"frames_received\": %lld, \"detects\": %lld, \"detect_errors\": "
      "%lld, \"pings\": %lld, \"stats_requests\": %lld}}",
      loop_.backend() == EventLoop::Backend::kEpoll ? "epoll" : "poll",
      conns_.size(),
      static_cast<long long>(
          counters_.connections_accepted.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.connections_dropped.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.frames_received.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.detects.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.detect_errors.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.pings.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.stats_requests.load(std::memory_order_relaxed)));
  return json;
}

void NetServer::DispatchFrame(Connection* conn, const FrameHeader& header,
                              std::vector<uint8_t> payload) {
  counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
  switch (static_cast<Op>(header.op)) {
    case Op::kPing:
      counters_.pings.fetch_add(1, std::memory_order_relaxed);
      conn->EnqueueReady(EncodePingResponse(payload));
      return;
    case Op::kStats:
      counters_.stats_requests.fetch_add(1, std::memory_order_relaxed);
      conn->EnqueueReady(
          EncodeStatsResponse(Status::OK(), BuildStatsJson()));
      return;
    case Op::kDetect: {
      counters_.detects.fetch_add(1, std::memory_order_relaxed);
      DetectRequest req;
      Status decoded = DecodeDetectRequest(payload, &req);
      if (!decoded.ok()) {
        counters_.detect_errors.fetch_add(1, std::memory_order_relaxed);
        conn->EnqueueReady(EncodeDetectResponse(decoded, {}));
        return;
      }
      StatusOr<serve::Server*> server = router_->Route(req.model_id);
      if (!server.ok()) {
        counters_.detect_errors.fetch_add(1, std::memory_order_relaxed);
        conn->EnqueueReady(EncodeDetectResponse(server.status(), {}));
        return;
      }
      serve::Server::SubmitOptions submit;
      submit.priority = req.priority;
      if (req.deadline_ms > 0) {
        submit.deadline = serve::ServeClock::now() +
                          std::chrono::milliseconds(req.deadline_ms);
      }
      auto future = (*server)->Submit(std::move(req.image), submit,
                                      [wake = wake_] { wake->Wake(); });
      if (!future.ok()) {
        // Shed / backpressure / shutdown: the rejection status goes back
        // on the wire immediately, preserving reply order.
        counters_.detect_errors.fetch_add(1, std::memory_order_relaxed);
        conn->EnqueueReady(EncodeDetectResponse(future.status(), {}));
        return;
      }
      conn->EnqueueFuture(Op::kDetect, std::move(future).value());
      return;
    }
  }
  conn->EnqueueReady(EncodeErrorResponse(
      static_cast<Op>(header.op),
      Status::Unimplemented(StrFormat("unknown op %u", header.op))));
}

void NetServer::CloseConnection(int fd) {
  loop_.Remove(fd);
  CloseFd(fd);
  conns_.erase(fd);
  counters_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::LoopThread() {
  std::vector<EventLoop::Event> events;
  std::vector<int> dead;
  while (!stop_.load(std::memory_order_acquire)) {
    bool any_pending = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn->HasPendingWork()) {
        any_pending = true;
        break;
      }
    }
    StatusOr<int> n =
        loop_.Wait(&events, any_pending ? kBusyTimeoutMs : kIdleTimeoutMs);
    if (!n.ok()) {
      THALI_LOG(Warning) << "event loop wait failed: "
                         << n.status().ToString();
      continue;
    }

    // Readable/writable/error per fd this tick.
    dead.clear();
    bool accept_ready = false;
    std::map<int, EventLoop::Event> by_fd;
    for (const EventLoop::Event& e : events) {
      if (e.fd == listen_fd_) {
        accept_ready = e.readable;
        continue;
      }
      if (e.fd == wake_->rx) {
        char drain[16];
        while (read(wake_->rx, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      by_fd[e.fd] = e;
    }
    if (accept_ready) AcceptPending();

    // Service connections in rotating order: at most one dispatched
    // frame per connection per tick (per-client round-robin fairness).
    rr_order_.clear();
    for (const auto& [fd, conn] : conns_) rr_order_.push_back(fd);
    if (!rr_order_.empty()) {
      rr_next_ %= rr_order_.size();
      std::rotate(rr_order_.begin(),
                  rr_order_.begin() + static_cast<ptrdiff_t>(rr_next_),
                  rr_order_.end());
      ++rr_next_;
    }

    for (int fd : rr_order_) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      const auto ev = by_fd.find(fd);
      const bool readable = ev != by_fd.end() && ev->second.readable;
      const bool error = ev != by_fd.end() && ev->second.error;

      if (error) {
        dead.push_back(fd);
        continue;
      }
      if (readable && !ReadFromConnection(conn)) {
        dead.push_back(fd);
        continue;
      }
      // Dispatch at most one frame, and only while the connection is
      // under its in-flight cap (per-client backpressure).
      if (conn->pending_count() <
          static_cast<size_t>(options_.max_inflight_per_conn)) {
        FrameHeader header;
        std::vector<uint8_t> payload;
        if (conn->NextFrame(&header, &payload)) {
          DispatchFrame(conn, header, std::move(payload));
        }
      }
      // Move resolved replies into the write buffer and flush.
      conn->PumpPending();
      if (conn->wants_write()) {
        Status flushed = conn->FlushWrites();
        if (!flushed.ok() &&
            flushed.code() != StatusCode::kUnavailable) {
          dead.push_back(fd);
          continue;
        }
      }
      Status armed = loop_.SetWantWrite(fd, conn->wants_write());
      if (!armed.ok()) dead.push_back(fd);
    }
    for (int fd : dead) CloseConnection(fd);
  }
}

}  // namespace net
}  // namespace thali
