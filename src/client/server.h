#ifndef SCISPARQL_CLIENT_SERVER_H_
#define SCISPARQL_CLIENT_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/protocol.h"
#include "common/status.h"
#include "engine/ssdm.h"
#include "repl/shipper.h"
#include "sched/scheduler.h"

namespace scisparql {
namespace client {

/// TCP server exposing an SSDM engine to remote SciSPARQL clients — the
/// client-server deployment mode of Section 5.1 (the Matlab integration of
/// Chapter 7 talks to SSDM exactly this way). One statement per request.
///
/// Connections are served concurrently: each connection gets a thread
/// that reads a frame, runs the statement itself through
/// sched::QueryScheduler::Execute once it holds one of the scheduler's
/// execution slots, and writes the reply — no hand-off to another thread.
/// Read statements run in parallel under a shared engine lock; updates
/// and structural statements follow the scheduler's three-class model. A
/// full wait list answers Unavailable ("server overloaded") instead of
/// queueing unboundedly. One watcher thread per server waits in epoll for
/// peers that hang up; a client that disconnects mid-query has its query
/// cancelled cooperatively.
class SsdmServer {
 public:
  struct Options {
    /// Execution slots / wait list / default per-query deadline.
    sched::SchedulerOptions sched;

    /// Stable node identity for failover elections; installed into the
    /// engine on Start when non-empty.
    std::string node_id;

    /// Semi-synchronous write acknowledgement: after an update commits
    /// locally, wait up to this long for at least one replica to report
    /// the commit LSN applied before acking the client; on timeout the
    /// client gets Unavailable (the write is durable locally but NOT
    /// acknowledged — it may be lost across a failover). Zero (default)
    /// acks on local durability alone. Only meaningful on a primary that
    /// has replicas.
    std::chrono::milliseconds sync_ack_timeout{0};

    /// Self-fencing lease: a primary that has seen replicas but received
    /// no replication fetch within this window assumes it is partitioned
    /// from the cluster (a promotion may be in progress on the other
    /// side) and rejects write-class statements with Unavailable until a
    /// fetch arrives again. Zero (default) disables the lease. Set it at
    /// or below the failure detector's liveness threshold so the old
    /// primary stops accepting writes before anyone else can be elected.
    std::chrono::milliseconds fence_timeout{0};
  };

  /// `engine` must outlive the server. While the server is running, all
  /// engine access must go through it (the scheduler owns the engine
  /// lock).
  explicit SsdmServer(SSDM* engine) : SsdmServer(engine, Options()) {}
  SsdmServer(SSDM* engine, Options options)
      : engine_(engine), options_(std::move(options)) {}
  ~SsdmServer() { Stop(); }

  SsdmServer(const SsdmServer&) = delete;
  SsdmServer& operator=(const SsdmServer&) = delete;

  /// Binds to 127.0.0.1:`port` (0 = ephemeral), starts the scheduler, the
  /// disconnect watcher and the accept thread. Returns the bound port.
  Result<int> Start(int port = 0);

  /// Stops accepting, cancels every connection's in-flight query and
  /// shuts its socket, joins all threads and stops the scheduler.
  /// Idempotent.
  void Stop();

  int port() const { return port_; }
  uint64_t requests_served() const { return requests_; }

  /// The scheduler serializing all engine access while the server runs
  /// (null before Start). A replica applier attaches here so its apply
  /// path takes the same exclusive lock the served reads respect.
  sched::QueryScheduler* scheduler() { return scheduler_.get(); }

  /// The WAL shipper answering replication requests on this server's port
  /// (null before Start). Exposes per-replica applied LSN / lag state.
  repl::WalShipper* shipper() { return shipper_.get(); }

  /// Scheduler counters (admitted/rejected/completed/timed-out, queue
  /// high-water, per-class latency sums) — also exposed to remote clients
  /// through the STATS protocol verb.
  sched::SchedulerStats scheduler_stats() const;

 private:
  struct Connection {
    uint64_t id = 0;  ///< The watcher's epoll key; 0 is its wake-up fd.
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    /// Set by the watcher when the peer hangs up, and by Stop(); every
    /// statement this connection runs observes it.
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Sets the cancel flag of each connection whose peer hung up.
  void WatchLoop();
  /// Builds the response payload for one request frame.
  std::string Dispatch(const std::string& request, Connection* conn);
  /// Joins finished connection threads (called from the accept loop).
  void ReapConnections();
  /// Takes a connection off the watcher and closes its socket.
  void CloseConnection(Connection* conn);

  SSDM* engine_;
  Options options_;
  std::unique_ptr<sched::QueryScheduler> scheduler_;
  std::unique_ptr<repl::WalShipper> shipper_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;  // guarded by conns_mu_

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd that ends WatchLoop
  std::thread watch_thread_;
};

/// Client side: connects to an SsdmServer and executes statements. Offers
/// the same QueryRequest/QueryOutcome surface as the embedded engine —
/// Execute() ships the request's timeout, option overrides and trace wish
/// over the wire as a structured frame and rebuilds the outcome (including
/// CONSTRUCT graphs) client-side. The text verbs (Query, Ask, Run, Stats,
/// Metrics, Explain) send the same structured frame and check the reply's
/// kind.
class RemoteSession {
 public:
  /// Transient-failure policy for Connect() and for resending read-class
  /// statements after a broken connection. Backoff between attempts grows
  /// geometrically with `multiplier`, capped at `max_backoff`, with a
  /// uniform ±`jitter` fraction applied so a fleet of clients does not
  /// retry in lockstep after a server restart.
  struct RetryOptions {
    int max_attempts = 3;  ///< Total tries; 1 disables retry entirely.
    std::chrono::milliseconds initial_backoff{50};
    double multiplier = 2.0;
    std::chrono::milliseconds max_backoff{1000};
    double jitter = 0.3;
  };

  ~RemoteSession();

  RemoteSession(const RemoteSession&) = delete;
  RemoteSession& operator=(const RemoteSession&) = delete;
  RemoteSession(RemoteSession&& o) noexcept
      : fd_(o.fd_),
        host_(std::move(o.host_)),
        port_(o.port_),
        timeout_(o.timeout_),
        retry_(o.retry_),
        rng_state_(o.rng_state_) {
    o.fd_ = -1;
  }

  /// `timeout` bounds connect and every subsequent request round-trip
  /// (SO_RCVTIMEO/SO_SNDTIMEO), so a hung server cannot block the client
  /// forever; an expired wait surfaces as DeadlineExceeded. Zero = no
  /// timeout. Connect failures are retried per `retry` (the two-argument
  /// overload uses the RetryOptions defaults); when `timeout` is set it
  /// also caps the total time spent across attempts and backoff.
  static Result<RemoteSession> Connect(
      const std::string& host, int port,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0));
  static Result<RemoteSession> Connect(const std::string& host, int port,
                                       std::chrono::milliseconds timeout,
                                       RetryOptions retry);

  /// Unified remote execution. `req.timeout` is enforced server-side
  /// (queue wait included); `req.options`' planner flags travel with the
  /// request; when `req.trace_sink` is non-null the server records a trace
  /// and the rendered span tree is adopted into the sink. `req.cancel` is
  /// not transported — disconnecting cancels the in-flight statement.
  Result<QueryOutcome> Execute(const QueryRequest& req);

  /// SELECT queries; other statement forms are reported as errors.
  Result<sparql::QueryResult> Query(const std::string& text);

  /// ASK queries.
  Result<bool> Ask(const std::string& text);

  /// Updates / DEFINE; also accepts CONSTRUCT (returns the Turtle text).
  Result<std::string> Run(const std::string& text);

  /// The STATS verb: a "scheduler: <counters>" line for the server's
  /// scheduler, then the engine's optimizer-statistics report (triple
  /// totals, per-predicate counts, index fan-out histograms).
  Result<std::string> Stats();

  /// The METRICS verb: the server's Prometheus-style metrics exposition.
  Result<std::string> Metrics();

  /// Remote EXPLAIN: runs `query` server-side with profiling and returns
  /// the plan text (chosen BGP order, estimated vs. actual cardinalities).
  Result<std::string> Explain(const std::string& query);

  /// Registers a prepared statement server-side — composes and runs
  /// `PREPARE name(?p1, ...) AS query`. Parameter names are given without
  /// the leading '?'. Re-preparing a name replaces its definition.
  Status Prepare(const std::string& name,
                 const std::vector<std::string>& params,
                 const std::string& query);

  /// Runs a PREPARE'd statement with ground arguments via the binary
  /// prepared-exec frame: no statement text, no server-side parse — the
  /// server binds the arguments to the cached body directly.
  Result<QueryOutcome> ExecutePrepared(const std::string& name,
                                       const std::vector<Term>& args);

  /// Raw request round-trip for protocol extensions layered on the same
  /// frames (the replication verbs): sends `payload` verbatim and returns
  /// the raw response payload, with the usual 'E' error mapping. Set
  /// `retry_safe` only for idempotent requests — they are resent over a
  /// fresh connection per the retry policy, exactly like reads.
  Result<std::string> Call(const std::string& payload, bool retry_safe) {
    return RoundTrip(payload, retry_safe);
  }

 private:
  RemoteSession(int fd, std::string host, int port,
                std::chrono::milliseconds timeout, RetryOptions retry);

  /// Sends `req` as a structured frame and decodes the structured reply;
  /// the rendered trace, when asked for, is adopted into req.trace_sink.
  /// Read-class statements and prepared calls are resent per the retry
  /// policy (see RoundTrip); everything else is sent once.
  Result<WireResponse> Send(const QueryRequest& req);

  /// Send() for a verb answered with 'I' info text (STATS, METRICS,
  /// EXPLAIN); returns that text.
  Result<std::string> Info(const std::string& text);

  /// Sends a payload and returns the raw response payload, with an 'E'
  /// reply mapped to its status. When `retry_safe` is true (safe to run
  /// twice) a broken connection is re-established with backoff and the
  /// request resent, up to retry_.max_attempts tries. Timeouts are never
  /// retried: the server may still be executing the statement.
  Result<std::string> RoundTrip(const std::string& payload, bool retry_safe);

  /// Closes the current socket and dials the server again (one attempt;
  /// the caller owns the backoff loop).
  Status Reconnect();

  /// Next backoff delay for `attempt` (0-based), with jitter applied.
  std::chrono::milliseconds BackoffDelay(int attempt);

  int fd_ = -1;
  std::string host_;
  int port_ = 0;
  std::chrono::milliseconds timeout_{0};
  RetryOptions retry_;
  uint64_t rng_state_ = 0;  ///< xorshift state for retry jitter
};

/// The backoff schedule behind RemoteSession's retries, exposed as a pure
/// function of (options, attempt, rng state) so the policy is testable
/// without sockets: geometric growth by `multiplier` from
/// `initial_backoff`, capped at `max_backoff`, then ±`jitter` applied
/// uniformly. `rng_state` is xorshift64 state, advanced on every call
/// (with jitter 0 the result is exact and deterministic).
std::chrono::milliseconds RetryBackoff(
    const RemoteSession::RetryOptions& retry, int attempt,
    uint64_t* rng_state);

}  // namespace client
}  // namespace scisparql

#endif  // SCISPARQL_CLIENT_SERVER_H_
