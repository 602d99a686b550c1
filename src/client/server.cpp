#include "client/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "client/net.h"
#include "client/protocol.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "loaders/turtle.h"

namespace scisparql {
namespace client {

namespace {

using net::ReadFrame;
using net::WriteFrame;

/// 'E' payload: status code byte + message.
std::string ErrorPayload(const Status& status) {
  std::string payload;
  payload.push_back('E');
  payload.push_back(static_cast<char>(status.code()));
  payload += status.message();
  return payload;
}

}  // namespace

Result<int> SsdmServer::Start(int port) {
  if (!options_.node_id.empty()) engine_->set_node_id(options_.node_id);
  shipper_ = std::make_unique<repl::WalShipper>(engine_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError("bind() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) return Status::IoError("listen() failed");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) return Status::IoError("epoll failed");
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.u64 = 0;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake);
  scheduler_ =
      std::make_unique<sched::QueryScheduler>(engine_, options_.sched);
  running_ = true;
  watch_thread_ = std::thread([this]() { WatchLoop(); });
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return port_;
}

void SsdmServer::Stop() {
  if (!running_.exchange(false)) return;
  // Closing the listening socket unblocks accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  // Cancel every in-flight statement first, then shut the sockets so the
  // blocking reads fail and the connection threads leave their loops.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) conn->cancel->store(true);
  for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  uint64_t one = 1;
  ssize_t woke = ::write(wake_fd_, &one, sizeof(one));
  (void)woke;
  if (watch_thread_.joinable()) watch_thread_.join();
  for (auto& conn : conns) CloseConnection(conn.get());
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  // Every connection thread has returned, so no statement holds a slot.
  if (scheduler_ != nullptr) scheduler_->Stop();
}

sched::SchedulerStats SsdmServer::scheduler_stats() const {
  return scheduler_ != nullptr ? scheduler_->stats() : sched::SchedulerStats();
}

void SsdmServer::AcceptLoop() {
  while (running_) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    ReapConnections();
    net::RegisterFd(fd, port_);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (!running_) {
        ::close(fd);
        return;
      }
      raw->id = next_conn_id_++;
      conns_.push_back(std::move(conn));
      // Registered only once the watcher can find it in conns_: the watch
      // is one-shot, so an early hang-up must not be lost. A hang-up ends
      // the connection, so one event is all it ever needs.
      epoll_event ev{};
      ev.events = EPOLLRDHUP | EPOLLONESHOT;
      ev.data.u64 = raw->id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
    raw->thread = std::thread([this, raw]() { ServeConnection(raw); });
  }
}

void SsdmServer::WatchLoop() {
  epoll_event events[16] = {};
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, 16, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Connections are looked up by id under conns_mu_, and leave conns_
    // under it before they are freed, so a stale event is just ignored.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int i = 0; i < n; ++i) {
      uint64_t id = events[i].data.u64;
      if (id == 0) return;  // woken by Stop()
      for (auto& conn : conns_) {
        if (conn->id == id) conn->cancel->store(true);
      }
    }
  }
}

void SsdmServer::ReapConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    CloseConnection(conn.get());
  }
}

void SsdmServer::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  net::ForgetFd(conn->fd);
  ::close(conn->fd);
}

void SsdmServer::ServeConnection(Connection* conn) {
  while (running_) {
    Result<std::string> request = ReadFrame(conn->fd);
    if (!request.ok()) break;  // client disconnected
    ++requests_;
    std::string payload = Dispatch(*request, conn);
    if (!WriteFrame(conn->fd, payload).ok()) break;
  }
  conn->done.store(true);
}

std::string SsdmServer::Dispatch(const std::string& request,
                                 Connection* conn) {
  // Replication verbs (marker 0x02) are served by the WAL shipper on this
  // connection thread: probe and fetch never touch the engine (the
  // durable-LSN atomic gates what the segment scan may ship), and the
  // snapshot verb goes through the scheduler as a read like everything
  // else.
  if (!request.empty() && request[0] == repl::kReplMarker) {
    Result<std::string> reply = shipper_->Handle(request, scheduler_.get());
    return reply.ok() ? *reply : ErrorPayload(reply.status());
  }
  // Every statement arrives as a structured frame; anything else is an
  // InvalidArgument reply, and the connection stays open for the next.
  Result<WireRequest> wire = DecodeRequest(request);
  if (!wire.ok()) return ErrorPayload(wire.status());
  QueryRequest req;
  if (wire->is_prepared) {
    QueryRequest::PreparedCall call;
    call.name = std::move(wire->prepared_name);
    call.args = std::move(wire->prepared_args);
    req.prepared = std::move(call);
  } else {
    req.text = std::move(wire->text);
  }
  req.timeout = wire->timeout;
  if (wire->has_optimize || wire->has_push_filters) {
    sparql::ExecOptions opts = engine_->exec_options();
    if (wire->has_optimize) opts.optimize_join_order = wire->optimize;
    if (wire->has_push_filters) opts.push_filters = wire->push_filters;
    req.options = opts;
  }
  obs::QueryTrace trace;
  if (wire->want_trace) req.trace_sink = &trace;

  // Self-fencing lease: a primary cut off from its replicas must stop
  // taking writes before the cluster can elect a successor, or a client
  // could get an ack no future primary knows about.
  if (options_.fence_timeout.count() > 0 && !engine_->replica_mode() &&
      !req.prepared.has_value() &&
      SSDM::ClassifyStatement(req.text) != sched::StatementClass::kRead &&
      shipper_->FencedOut(options_.fence_timeout)) {
    obs::DefaultMetrics()
        .GetCounter("ssdm_repl_fenced_writes_total", "",
                    "Write statements rejected by the primary's "
                    "self-fencing lease.")
        .Add();
    return ErrorPayload(Status::Unavailable(
        "primary is fenced: no replica has fetched within the fence "
        "window; a failover may be in progress"));
  }

  // The statement runs right here once this thread holds an execution
  // slot. The watcher flips the connection's cancel flag if the client
  // hangs up meanwhile, and Stop() flips it on shutdown, so the query
  // stops mid-flight instead of holding a slot for a dead connection.
  req.cancel = conn->cancel;
  // The STATS verb's reply also carries this server's scheduler counters.
  // The match normalizes as SSDM::Execute's STATS recognition does, so
  // " stats " gets them too.
  const bool stats_verb = !req.prepared.has_value() &&
                          EqualsIgnoreCase(StripWhitespace(req.text), "STATS");
  Result<QueryOutcome> result = scheduler_->Execute(std::move(req));

  if (!result.ok()) return ErrorPayload(result.status());

  // Semi-synchronous acknowledgement: the ack promises the write survives
  // a failover, which candidate selection (highest applied LSN) can only
  // honor once some replica actually applied it. The wait holds no slot.
  if (options_.sync_ack_timeout.count() > 0 && !engine_->replica_mode() &&
      result->kind() == QueryOutcome::Kind::kUpdateCount) {
    uint64_t lsn = std::get<QueryOutcome::UpdateCount>(result->value).lsn;
    if (lsn > 0 && !shipper_->WaitForReplicaLsn(
                       lsn, options_.sync_ack_timeout)) {
      return ErrorPayload(Status::Unavailable(
          "update is durable locally but no replica acknowledged it "
          "within the sync-ack window; it may be lost across a failover"));
    }
  }

  // The serialize phase is part of the query's trace: it is wall time the
  // client observes before its answer arrives.
  obs::TraceSpan* ser_span =
      wire->want_trace ? trace.AddChild(nullptr, "serialize") : nullptr;
  obs::SpanTimer ser_timer(ser_span);
  WireResponse resp;
  switch (result->kind()) {
    case QueryOutcome::Kind::kRows:
      resp.kind = 'R';
      resp.body = SerializeResult(result->rows());
      break;
    case QueryOutcome::Kind::kGraph:
      resp.kind = 'G';
      resp.body = loaders::WriteTurtle(result->graph(), engine_->prefixes());
      break;
    case QueryOutcome::Kind::kAsk:
      resp.kind = 'B';
      resp.body.push_back(result->ask() ? 1 : 0);
      break;
    case QueryOutcome::Kind::kUpdateCount: {
      resp.kind = 'U';
      resp.body = std::to_string(result->update_count());
      // The commit LSN rides along as a second decimal field — the
      // client's read-your-writes token. Old clients strtoll the count
      // and never look past the space.
      const auto& u = std::get<QueryOutcome::UpdateCount>(result->value);
      if (u.lsn > 0) {
        resp.body += " " + std::to_string(u.lsn);
        // Third field: the executing primary's fencing term, so routers
        // can spot acks from a deposed primary.
        resp.body += " " + std::to_string(u.term);
      }
      break;
    }
    case QueryOutcome::Kind::kInfo:
      resp.kind = 'I';
      if (stats_verb) {
        resp.body = "scheduler: " + scheduler_->stats().ToString() + "\n";
      }
      resp.body += result->info();
      break;
  }
  ser_timer.Stop();
  if (wire->want_trace) resp.trace = trace.Render();
  return EncodeResponse(resp);
}

RemoteSession::~RemoteSession() {
  if (fd_ >= 0) {
    net::ForgetFd(fd_);
    ::close(fd_);
  }
}

namespace {

using net::DialServer;

bool RetriableConnectError(const Status& st) {
  // InvalidArgument (bad address) will not heal on its own; transport
  // errors and connect timeouts can — the server may just be restarting.
  return st.code() == StatusCode::kIoError ||
         st.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

RemoteSession::RemoteSession(int fd, std::string host, int port,
                             std::chrono::milliseconds timeout,
                             RetryOptions retry)
    : fd_(fd),
      host_(std::move(host)),
      port_(port),
      timeout_(timeout),
      retry_(retry) {
  // Seed the jitter generator from wall time and the session identity so
  // concurrent sessions spread their retries.
  rng_state_ = static_cast<uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch().count())
               ^ (reinterpret_cast<uintptr_t>(this) << 16) ^ 0x9e3779b97f4a7c15ull;
}

std::chrono::milliseconds RetryBackoff(
    const RemoteSession::RetryOptions& retry, int attempt,
    uint64_t* rng_state) {
  double base = static_cast<double>(retry.initial_backoff.count());
  for (int i = 0; i < attempt; ++i) base *= retry.multiplier;
  base = std::min(base, static_cast<double>(retry.max_backoff.count()));
  // xorshift64 — plenty for jitter, no <random> machinery per call.
  *rng_state ^= *rng_state << 13;
  *rng_state ^= *rng_state >> 7;
  *rng_state ^= *rng_state << 17;
  double unit = static_cast<double>(*rng_state % 10000) / 10000.0;  // [0,1)
  double jittered = base * (1.0 + retry.jitter * (2.0 * unit - 1.0));
  if (jittered < 0) jittered = 0;
  return std::chrono::milliseconds(static_cast<int64_t>(jittered));
}

std::chrono::milliseconds RemoteSession::BackoffDelay(int attempt) {
  return RetryBackoff(retry_, attempt, &rng_state_);
}

Result<RemoteSession> RemoteSession::Connect(
    const std::string& host, int port, std::chrono::milliseconds timeout) {
  return Connect(host, port, timeout, RetryOptions());
}

Result<RemoteSession> RemoteSession::Connect(const std::string& host, int port,
                                             std::chrono::milliseconds timeout,
                                             RetryOptions retry) {
  if (retry.max_attempts < 1) retry.max_attempts = 1;
  RemoteSession session(-1, host, port, timeout, retry);
  auto start = std::chrono::steady_clock::now();
  Status last = Status::OK();
  for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(session.BackoffDelay(attempt - 1));
    }
    Result<int> fd = DialServer(host, port, timeout);
    if (fd.ok()) {
      session.fd_ = *fd;
      return session;
    }
    last = fd.status();
    if (!RetriableConnectError(last)) return last;
    // A session timeout caps the whole retry budget, backoff included —
    // the caller asked for a bound on session setup, not per attempt.
    if (timeout.count() > 0 &&
        std::chrono::steady_clock::now() - start >= timeout) {
      break;
    }
  }
  return Status(last.code(),
                last.message() + " (after " +
                    std::to_string(retry.max_attempts) + " attempts)");
}

Status RemoteSession::Reconnect() {
  if (fd_ >= 0) {
    net::ForgetFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  SCISPARQL_ASSIGN_OR_RETURN(int fd, DialServer(host_, port_, timeout_));
  fd_ = fd;
  return Status::OK();
}

Result<std::string> RemoteSession::RoundTrip(const std::string& payload,
                                             bool retry_safe) {
  int attempts = retry_safe ? std::max(retry_.max_attempts, 1) : 1;
  Status last = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(BackoffDelay(attempt - 1));
      Status re = Reconnect();
      if (!re.ok()) {
        last = re;
        continue;  // burn an attempt; the server may come back
      }
    }
    if (fd_ < 0) {
      last = Status::IoError("session not connected");
      continue;
    }
    Status sent = WriteFrame(fd_, payload);
    Result<std::string> reply =
        sent.ok() ? ReadFrame(fd_) : Result<std::string>(sent);
    if (reply.ok()) {
      if (reply->empty()) return Status::IoError("empty response");
      if ((*reply)[0] == 'E') {
        StatusCode code = reply->size() > 1
                              ? static_cast<StatusCode>((*reply)[1])
                              : StatusCode::kInternal;
        return Status(code, reply->substr(std::min<size_t>(2, reply->size())));
      }
      return reply;
    }
    last = reply.status();
    // Only transport failures are worth a resend. A DeadlineExceeded
    // round-trip is NOT: the server may still be executing the statement,
    // and re-submitting would double the work (or the write).
    if (last.code() != StatusCode::kIoError) return last;
  }
  if (attempts > 1) {
    return Status(last.code(), last.message() + " (after " +
                                   std::to_string(attempts) + " attempts)");
  }
  return last;
}

Result<WireResponse> RemoteSession::Send(const QueryRequest& req) {
  WireRequest wire;
  if (req.prepared.has_value()) {
    wire.is_prepared = true;
    wire.prepared_name = req.prepared->name;
    wire.prepared_args = req.prepared->args;
  } else {
    wire.text = req.text;
  }
  wire.timeout = req.timeout;
  wire.want_trace = req.trace_sink != nullptr;
  if (req.options.has_value()) {
    wire.has_optimize = true;
    wire.optimize = req.options->optimize_join_order;
    wire.has_push_filters = true;
    wire.push_filters = req.options->push_filters;
  }
  // Prepared calls always run a PREPARE'd query body and plain reads are
  // idempotent; both are safe to resend over a fresh connection.
  bool retry_safe =
      req.prepared.has_value() ||
      SSDM::ClassifyStatement(req.text) == sched::StatementClass::kRead;
  SCISPARQL_ASSIGN_OR_RETURN(std::string payload,
                             RoundTrip(EncodeRequest(wire), retry_safe));
  SCISPARQL_ASSIGN_OR_RETURN(WireResponse resp, DecodeResponse(payload));
  if (req.trace_sink != nullptr) {
    req.trace_sink->AdoptRendered(std::move(resp.trace));
  }
  return resp;
}

Result<QueryOutcome> RemoteSession::Execute(const QueryRequest& req) {
  SCISPARQL_ASSIGN_OR_RETURN(WireResponse resp, Send(req));
  switch (resp.kind) {
    case 'R': {
      SCISPARQL_ASSIGN_OR_RETURN(sparql::QueryResult rows,
                                 DeserializeResult(resp.body));
      return QueryOutcome{std::move(rows)};
    }
    case 'B':
      if (resp.body.empty()) return Status::IoError("empty ASK response");
      return QueryOutcome{resp.body[0] != 0};
    case 'G': {
      // Rebuild the graph client-side so remote CONSTRUCT/DESCRIBE yield
      // the same outcome shape as embedded execution.
      Graph g;
      loaders::TurtleOptions opts;
      SCISPARQL_RETURN_NOT_OK(loaders::LoadTurtleString(resp.body, &g, opts));
      return QueryOutcome{std::move(g)};
    }
    case 'U': {
      QueryOutcome::UpdateCount u;
      char* rest = nullptr;
      u.count = std::strtoll(resp.body.c_str(), &rest, 10);
      // Optional second field: the commit LSN of the acked update (absent
      // from servers predating replication, and from non-durable engines).
      if (rest != nullptr && *rest == ' ') {
        char* rest2 = nullptr;
        u.lsn = std::strtoull(rest + 1, &rest2, 10);
        // Optional third field: the primary's fencing term.
        if (rest2 != nullptr && *rest2 == ' ') {
          u.term = std::strtoull(rest2 + 1, nullptr, 10);
        }
      }
      return QueryOutcome{u};
    }
    case 'I':
      return QueryOutcome{QueryOutcome::Info{std::move(resp.body)}};
    default:
      return Status::IoError("unknown response kind tag");
  }
}

Result<sparql::QueryResult> RemoteSession::Query(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(WireResponse resp, Send(text));
  if (resp.kind != 'R') {
    return Status::InvalidArgument("statement is not a SELECT query");
  }
  return DeserializeResult(resp.body);
}

Result<bool> RemoteSession::Ask(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(WireResponse resp, Send(text));
  if (resp.kind != 'B' || resp.body.empty()) {
    return Status::InvalidArgument("statement is not an ASK query");
  }
  return resp.body[0] != 0;
}

Result<std::string> RemoteSession::Run(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(WireResponse resp, Send(text));
  if (resp.kind == 'G' || resp.kind == 'I') return std::move(resp.body);
  return std::string();
}

Result<std::string> RemoteSession::Info(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(WireResponse resp, Send(text));
  if (resp.kind != 'I') {
    return Status::Internal("malformed response to " + text);
  }
  return std::move(resp.body);
}

Result<std::string> RemoteSession::Explain(const std::string& query) {
  return Info("EXPLAIN " + query);
}

Status RemoteSession::Prepare(const std::string& name,
                              const std::vector<std::string>& params,
                              const std::string& query) {
  std::string text = "PREPARE " + name;
  if (!params.empty()) {
    text += "(";
    for (size_t i = 0; i < params.size(); ++i) {
      if (i > 0) text += ", ";
      text += "?" + params[i];
    }
    text += ")";
  }
  text += " AS " + query;
  QueryRequest req;
  req.text = std::move(text);
  Result<QueryOutcome> out = Execute(req);
  return out.status();
}

Result<QueryOutcome> RemoteSession::ExecutePrepared(
    const std::string& name, const std::vector<Term>& args) {
  QueryRequest req;
  QueryRequest::PreparedCall call;
  call.name = name;
  call.args = args;
  req.prepared = std::move(call);
  return Execute(req);
}

Result<std::string> RemoteSession::Stats() { return Info("STATS"); }

Result<std::string> RemoteSession::Metrics() { return Info("METRICS"); }

}  // namespace client
}  // namespace scisparql
