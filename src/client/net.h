#ifndef SCISPARQL_CLIENT_NET_H_
#define SCISPARQL_CLIENT_NET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"

namespace scisparql {
namespace client {
namespace net {

/// Socket I/O shared by the server's connection threads and the client
/// session. Everything funnels through ReadFrame / WriteFrame /
/// DialServer, which is what makes TransportFaults (below) a complete
/// seam: a scripted fault observes every frame either side moves.

enum class IoOutcome { kOk, kClosed, kTimeout, kError };

/// Reads exactly `n` bytes, retrying on EINTR so signal-heavy load cannot
/// corrupt protocol framing; partial reads continue where they left off.
/// A socket receive timeout (SO_RCVTIMEO) surfaces as kTimeout.
IoOutcome ReadAll(int fd, void* buf, size_t n);

/// Writes exactly `n` bytes with the same EINTR / partial-transfer
/// handling as ReadAll.
IoOutcome WriteAll(int fd, const void* buf, size_t n);

Status IoStatus(IoOutcome outcome, const char* what);

/// Reads one length-prefixed frame (u32 length + payload, 64 MiB cap).
Result<std::string> ReadFrame(int fd);

/// Frames and writes one payload.
Status WriteFrame(int fd, const std::string& payload);

/// One TCP dial with `timeout` applied as both socket timeouts (SO_SNDTIMEO
/// also bounds connect() on Linux, so a black-holed server cannot hang the
/// client during session setup). The returned fd is registered with
/// TransportFaults under `port`.
Result<int> DialServer(const std::string& host, int port,
                       std::chrono::milliseconds timeout);

/// Associates `fd` with `port` for fault scripting. DialServer does this
/// for outbound connections; the server's accept loop must do it for
/// inbound ones (under its own listen port).
void RegisterFd(int fd, int port);
/// Drops the association (call before close; stale entries are harmless —
/// the kernel reuses fds and registration overwrites).
void ForgetFd(int fd);

/// Process-global scriptable network fault injector — the transport twin
/// of storage::FaultyVfs. Faults are keyed by *port*: a partitioned port
/// refuses new dials and fails I/O on every registered connection (both
/// directions, both endpoints in this process), which is how in-process
/// tests simulate a network partition between nodes that share an address
/// space. Disabled (the default) it costs one relaxed atomic load per
/// frame.
///
///   Partition(p)        dials refused, frames on existing fds fail
///   Blackhole(p, ms)    dials and frames stall `ms` then time out
///                       (accept-then-hang, the pathological failure that
///                       liveness probes must bound)
///   DropAfterFrames(p,n) the (n+1)-th frame touching `p` fails and tears
///                       the connection down (one-shot) — mid-stream drop
///   DelayFrames(p, ms)  every frame on `p` sleeps `ms` first — latency
///
/// Duplicated delivery needs no knob: dropping a reply makes the
/// retry-safe caller refetch, and the replication apply path is
/// idempotent by LSN — which is exactly the invariant tests assert.
class TransportFaults {
 public:
  static TransportFaults& Instance();

  /// Turns the hooks on. Scripted faults have no effect while disabled.
  void Enable();
  /// Turns the hooks off and clears every scripted fault and counter.
  void Reset();

  void Partition(int port);
  void Heal(int port);  ///< Clears ALL faults scripted for `port`.
  void Blackhole(int port, std::chrono::milliseconds stall);
  void DropAfterFrames(int port, uint64_t frames);
  void DelayFrames(int port, std::chrono::milliseconds delay);

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Faults actually fired (refused dials + dropped/timed-out frames).
  uint64_t faults_fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

  // --- Hooks (called by the I/O helpers; not for test code). ---

  /// Gate for a new outbound connection to `port`.
  Status OnDial(int port);

  struct FrameDecision {
    bool drop = false;     ///< Fail the op and tear the connection down.
    bool timeout = false;  ///< Fail the op as a socket timeout.
    int stall_ms = 0;      ///< Sleep before failing (blackhole).
    int delay_ms = 0;      ///< Sleep before proceeding (latency).
  };
  /// Gate for one frame read/write on `fd`.
  FrameDecision OnFrame(int fd);

  void Register(int fd, int port);
  void Forget(int fd);

 private:
  TransportFaults() = default;

  struct PortFaults {
    bool partitioned = false;
    int blackhole_ms = -1;        ///< < 0 = no blackhole.
    long long drop_after = -1;    ///< Frames until a one-shot drop; < 0 off.
    int delay_ms = 0;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> fired_{0};
  mutable std::mutex mu_;
  std::unordered_map<int, int> fd_port_;       // fd -> port
  std::unordered_map<int, PortFaults> ports_;  // port -> scripted faults
};

}  // namespace net
}  // namespace client
}  // namespace scisparql

#endif  // SCISPARQL_CLIENT_NET_H_
