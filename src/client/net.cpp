#include "client/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "client/protocol.h"

namespace scisparql {
namespace client {
namespace net {

IoOutcome ReadAll(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r == 0) return IoOutcome::kClosed;
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoOutcome::kTimeout;
      return IoOutcome::kError;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return IoOutcome::kOk;
}

IoOutcome WriteAll(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoOutcome::kTimeout;
      return IoOutcome::kError;
    }
    if (r == 0) return IoOutcome::kError;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return IoOutcome::kOk;
}

Status IoStatus(IoOutcome outcome, const char* what) {
  switch (outcome) {
    case IoOutcome::kOk:
      return Status::OK();
    case IoOutcome::kClosed:
      return Status::IoError(std::string(what) + ": connection closed");
    case IoOutcome::kTimeout:
      return Status::DeadlineExceeded(std::string(what) + ": socket timeout");
    case IoOutcome::kError:
      return Status::IoError(std::string(what) + ": " + std::strerror(errno));
  }
  return Status::Internal("unreachable");
}

namespace {

/// Applies a scripted fault decision to one frame op on `fd`. Returns a
/// non-OK status when the frame must fail; tearing the connection down on
/// a drop makes the fault symmetric — the peer's next op fails too, like
/// a real connection reset.
Status ApplyFrameFaults(int fd, const char* what) {
  TransportFaults& faults = TransportFaults::Instance();
  if (!faults.enabled()) return Status::OK();
  TransportFaults::FrameDecision d = faults.OnFrame(fd);
  if (d.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
  }
  if (d.stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(d.stall_ms));
  }
  if (d.timeout) {
    return Status::DeadlineExceeded(std::string(what) +
                                    ": socket timeout (injected)");
  }
  if (d.drop) {
    ::shutdown(fd, SHUT_RDWR);
    return Status::IoError(std::string(what) +
                           ": connection dropped (injected)");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFrame(int fd) {
  SCISPARQL_RETURN_NOT_OK(ApplyFrameFaults(fd, "read frame"));
  uint32_t len;
  IoOutcome r = ReadAll(fd, &len, 4);
  if (r != IoOutcome::kOk) return IoStatus(r, "read frame header");
  if (len > (64u << 20)) return Status::IoError("oversized frame");
  std::string payload(len, '\0');
  r = ReadAll(fd, payload.data(), len);
  if (r != IoOutcome::kOk) return IoStatus(r, "read frame body");
  return payload;
}

Status WriteFrame(int fd, const std::string& payload) {
  SCISPARQL_RETURN_NOT_OK(ApplyFrameFaults(fd, "write frame"));
  std::string framed = Frame(payload);
  return IoStatus(WriteAll(fd, framed.data(), framed.size()), "write frame");
}

Result<int> DialServer(const std::string& host, int port,
                       std::chrono::milliseconds timeout) {
  TransportFaults& faults = TransportFaults::Instance();
  if (faults.enabled()) {
    SCISPARQL_RETURN_NOT_OK(faults.OnDial(port));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  if (timeout.count() > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINPROGRESS) {
      return Status::DeadlineExceeded("connect timeout");
    }
    return Status::IoError("connect() failed");
  }
  RegisterFd(fd, port);
  return fd;
}

void RegisterFd(int fd, int port) {
  TransportFaults::Instance().Register(fd, port);
}

void ForgetFd(int fd) { TransportFaults::Instance().Forget(fd); }

// --- TransportFaults. ---

TransportFaults& TransportFaults::Instance() {
  static TransportFaults* instance = new TransportFaults();
  return *instance;
}

void TransportFaults::Enable() {
  enabled_.store(true, std::memory_order_release);
}

void TransportFaults::Reset() {
  enabled_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  ports_.clear();
  fired_.store(0, std::memory_order_relaxed);
  // fd registrations survive a Reset: connections outlive fault scripts.
}

void TransportFaults::Partition(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  ports_[port].partitioned = true;
}

void TransportFaults::Heal(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  ports_.erase(port);
}

void TransportFaults::Blackhole(int port, std::chrono::milliseconds stall) {
  std::lock_guard<std::mutex> lock(mu_);
  ports_[port].blackhole_ms = static_cast<int>(stall.count());
}

void TransportFaults::DropAfterFrames(int port, uint64_t frames) {
  std::lock_guard<std::mutex> lock(mu_);
  ports_[port].drop_after = static_cast<long long>(frames);
}

void TransportFaults::DelayFrames(int port,
                                  std::chrono::milliseconds delay) {
  std::lock_guard<std::mutex> lock(mu_);
  ports_[port].delay_ms = static_cast<int>(delay.count());
}

Status TransportFaults::OnDial(int port) {
  int stall_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ports_.find(port);
    if (it == ports_.end()) return Status::OK();
    if (it->second.partitioned) {
      fired_.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("connect() refused (injected partition)");
    }
    if (it->second.blackhole_ms >= 0) stall_ms = it->second.blackhole_ms;
  }
  if (stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    fired_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("connect timeout (injected blackhole)");
  }
  return Status::OK();
}

TransportFaults::FrameDecision TransportFaults::OnFrame(int fd) {
  FrameDecision d;
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = fd_port_.find(fd);
  if (fit == fd_port_.end()) return d;
  auto pit = ports_.find(fit->second);
  if (pit == ports_.end()) return d;
  PortFaults& pf = pit->second;
  if (pf.delay_ms > 0) d.delay_ms = pf.delay_ms;
  if (pf.partitioned) {
    d.drop = true;
    fired_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  if (pf.blackhole_ms >= 0) {
    d.stall_ms = pf.blackhole_ms;
    d.timeout = true;
    fired_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  if (pf.drop_after >= 0) {
    if (pf.drop_after == 0) {
      pf.drop_after = -1;  // one-shot
      d.drop = true;
      fired_.fetch_add(1, std::memory_order_relaxed);
      return d;
    }
    --pf.drop_after;
  }
  return d;
}

void TransportFaults::Register(int fd, int port) {
  std::lock_guard<std::mutex> lock(mu_);
  fd_port_[fd] = port;
}

void TransportFaults::Forget(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  fd_port_.erase(fd);
}

}  // namespace net
}  // namespace client
}  // namespace scisparql
