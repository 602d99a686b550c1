#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/net.h"
#include "client/protocol.h"
#include "client/server.h"
#include "query_helpers.h"

namespace scisparql {
namespace client {
namespace {

TEST(Protocol, TermRoundTripAllKinds) {
  std::vector<Term> terms = {
      Term(),
      Term::Iri("http://x/y"),
      Term::Blank("b1"),
      Term::String("plain"),
      Term::LangString("chat", "fr"),
      Term::Integer(-42),
      Term::Double(3.25),
      Term::Boolean(true),
      Term::TypedLiteral("2020-01-01", "http://dt"),
      Term::Array(ResidentArray::Make(
          *NumericArray::FromInts({2, 2}, {1, 2, 3, 4}))),
      Term::Array(ResidentArray::Make(
          *NumericArray::FromDoubles({3}, {0.5, 1.5, 2.5}))),
  };
  for (const Term& t : terms) {
    std::string buf;
    ASSERT_TRUE(SerializeTerm(t, &buf).ok());
    size_t pos = 0;
    Term back = *DeserializeTerm(buf, &pos);
    EXPECT_EQ(pos, buf.size()) << t.ToString();
    EXPECT_EQ(back.kind(), t.kind()) << t.ToString();
    if (!t.IsUndef()) {
      EXPECT_EQ(back, t) << t.ToString();
    }
  }
}

TEST(Protocol, ResultRoundTrip) {
  sparql::QueryResult r;
  r.columns = {"a", "b"};
  r.rows.push_back({Term::Integer(1), Term::String("x")});
  r.rows.push_back({Term(), Term::Double(2.5)});
  auto back = *DeserializeResult(SerializeResult(r));
  EXPECT_EQ(back.columns, r.columns);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0][0], Term::Integer(1));
  EXPECT_TRUE(back.rows[1][0].IsUndef());
}

TEST(Protocol, TruncatedInputRejected) {
  std::string buf;
  ASSERT_TRUE(SerializeTerm(Term::String("hello"), &buf).ok());
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    size_t pos = 0;
    std::string partial = buf.substr(0, cut);
    EXPECT_FALSE(DeserializeTerm(partial, &pos).ok()) << cut;
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(engine_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:score 10 . ex:b ex:score 20 .
ex:m ex:data ((1 2) (3 4)) .
)").ok());
    server_ = std::make_unique<SsdmServer>(&engine_);
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override { server_->Stop(); }

  SSDM engine_;
  std::unique_ptr<SsdmServer> server_;
  int port_ = 0;
};

TEST_F(ServerTest, RemoteSelect) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT ?v WHERE { ?s ex:score ?v } ORDER BY ?v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0], Term::Integer(10));
}

TEST_F(ServerTest, RemoteArrayResultsMaterialize) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT ?a (ASUM(?a) AS ?s) WHERE { ex:m ex:data ?a }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_TRUE(r->rows[0][0].IsArray());
  EXPECT_TRUE(r->rows[0][0].array()->resident());
  EXPECT_EQ(r->rows[0][0].array()->Materialize()->ToString(),
            "[[1, 2], [3, 4]]");
  EXPECT_EQ(r->rows[0][1], Term::Double(10));
}

TEST_F(ServerTest, RemoteAskAndUpdate) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  EXPECT_FALSE(*session.Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:c ex:score 30 }"));
  ASSERT_TRUE(session.Run("PREFIX ex: <http://example.org/> "
                          "INSERT DATA { ex:c ex:score 30 }")
                  .ok());
  EXPECT_TRUE(*session.Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:c ex:score 30 }"));
  // The update really landed in the shared server-side engine.
  EXPECT_TRUE(*Ask(engine_, 
      "PREFIX ex: <http://example.org/> ASK { ex:c ex:score 30 }"));
}

TEST_F(ServerTest, RemoteConstructReturnsTurtle) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto ttl = session.Run(
      "PREFIX ex: <http://example.org/> "
      "CONSTRUCT { ?s ex:double ?v } WHERE { ?s ex:score ?v }");
  ASSERT_TRUE(ttl.ok()) << ttl.status().ToString();
  EXPECT_NE(ttl->find("double"), std::string::npos);
}

TEST_F(ServerTest, RemoteErrorsPropagate) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query("SELECT garbage");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(ServerTest, SequentialConnections) {
  for (int i = 0; i < 3; ++i) {
    auto session = *RemoteSession::Connect("127.0.0.1", port_);
    auto r = session.Query(
        "PREFIX ex: <http://example.org/> "
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:score ?v }");
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GE(server_->requests_served(), 3u);
}

TEST_F(ServerTest, ConcurrentClientsSelect) {
  // N client threads, each its own connection, each running M SELECTs.
  // Every response must be complete and correct — framing intact under
  // interleaved connections, results consistent under the shared lock.
  constexpr int kClients = 6;
  constexpr int kQueriesEach = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto session = RemoteSession::Connect("127.0.0.1", port_);
      if (!session.ok()) return;
      for (int i = 0; i < kQueriesEach; ++i) {
        auto r = session->Query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?v WHERE { ?s ex:score ?v } ORDER BY ?v");
        if (r.ok() && r->rows.size() == 2 &&
            r->rows[0][0] == Term::Integer(10) &&
            r->rows[1][0] == Term::Integer(20)) {
          ++ok_count;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesEach);
  EXPECT_GE(server_->requests_served(),
            static_cast<uint64_t>(kClients * kQueriesEach));
  EXPECT_GE(server_->scheduler_stats().completed,
            static_cast<uint64_t>(kClients * kQueriesEach));
}

TEST_F(ServerTest, ConcurrentReadersAndWriter) {
  // A writer alternates score values over one connection while reader
  // connections watch: every read must see exactly 2 score triples.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      auto session = RemoteSession::Connect("127.0.0.1", port_);
      if (!session.ok()) return;
      while (!stop.load()) {
        auto r = session->Query(
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:score ?v }");
        if (r.ok() && r->rows[0][0] != Term::Integer(2)) ++bad;
      }
    });
  }
  auto writer = *RemoteSession::Connect("127.0.0.1", port_);
  for (int i = 0; i < 10; ++i) {
    auto r = writer.Run(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?s ex:score ?v } INSERT { ?s ex:score ?v } "
        "WHERE { ?s ex:score ?v }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ServerTest, StatsVerb) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  ASSERT_TRUE(session
                  .Query("PREFIX ex: <http://example.org/> "
                         "SELECT ?v WHERE { ?s ex:score ?v }")
                  .ok());
  auto stats = session.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("admitted="), std::string::npos);
  EXPECT_NE(stats->find("reads="), std::string::npos);
  EXPECT_NE(stats->find("queue_high_water="), std::string::npos);
}

/// A raw connection to the test server that sends one frame at a time
/// and reads the reply — the wire as any client sees it.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    auto fd = net::DialServer("127.0.0.1", port, std::chrono::seconds(5));
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = fd.ok() ? *fd : -1;
  }
  ~RawConnection() {
    if (fd_ >= 0) {
      net::ForgetFd(fd_);
      ::close(fd_);
    }
  }

  /// Sends `payload` and returns the reply payload ("" on a broken
  /// connection).
  std::string Call(const std::string& payload) {
    if (!net::WriteFrame(fd_, payload).ok()) return "";
    auto reply = net::ReadFrame(fd_);
    return reply.ok() ? *reply : "";
  }

  /// Sends `text` as a structured request and decodes the reply.
  Result<WireResponse> Structured(const std::string& text,
                                  std::chrono::milliseconds timeout = {}) {
    WireRequest req;
    req.text = text;
    req.timeout = timeout;
    return DecodeResponse(Call(EncodeRequest(req)));
  }

 private:
  int fd_ = -1;
};

constexpr char kAskScore10[] =
    "PREFIX ex: <http://example.org/> ASK { ex:a ex:score 10 }";

/// Expects an 'E' reply carrying InvalidArgument.
void ExpectInvalidArgument(const std::string& payload) {
  ASSERT_GE(payload.size(), 2u) << payload;
  EXPECT_EQ(payload[0], 'E') << payload;
  EXPECT_EQ(static_cast<StatusCode>(payload[1]), StatusCode::kInvalidArgument)
      << payload;
}

TEST_F(ServerTest, StatsVerbNormalizesWhitespaceAndCase) {
  // The engine recognizes the STATS verb trimmed and case-insensitively;
  // the server's reply must agree, or " stats " would come back without
  // the scheduler counters.
  RawConnection conn(port_);
  auto resp = conn.Structured("  stats \n");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->kind, 'I') << resp->body;
  EXPECT_NE(resp->body.find("scheduler:"), std::string::npos) << resp->body;
  EXPECT_NE(resp->body.find("admitted="), std::string::npos) << resp->body;
}

TEST_F(ServerTest, BareTextFrameIsRejectedAndConnectionStaysUsable) {
  // Only structured (0x01) and replication (0x02) frames carry requests.
  RawConnection conn(port_);
  ExpectInvalidArgument(conn.Call(kAskScore10));
  ExpectInvalidArgument(conn.Call("STATS"));
  auto resp = conn.Structured(kAskScore10);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->kind, 'B');
  EXPECT_EQ(resp->body, std::string(1, '\x01'));
}

TEST_F(ServerTest, PreparedArgumentCountBeyondThePayloadIsRejected) {
  // A 19-byte prepared-exec frame claiming 2^32-1 arguments and carrying
  // none: the count must be refused before it sizes an allocation.
  std::string frame;
  frame.push_back(kStructuredMarker);
  frame.push_back('\x20');  // flag bit 5: prepared execution
  frame.append(8, '\0');    // timeout_ms = 0
  frame.append("\x01\0\0\0q", 5);  // name "q"
  frame.append(4, '\xff');  // argc = 0xFFFFFFFF
  ASSERT_EQ(frame.size(), 19u);
  RawConnection conn(port_);
  ExpectInvalidArgument(conn.Call(frame));
  // The server is still up and answers the next request.
  auto session = RemoteSession::Connect("127.0.0.1", port_,
                                        std::chrono::milliseconds(5000));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto ask = session->Ask(kAskScore10);
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  EXPECT_TRUE(*ask);
}

TEST_F(ServerTest, TimeoutTooLargeForADeadlineMeansNone) {
  // 2^62 ms from now overflows the steady clock; the request must run as
  // if it had no deadline, not expire at once.
  RawConnection conn(port_);
  auto resp = conn.Structured(kAskScore10,
                              std::chrono::milliseconds(int64_t{1} << 62));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->kind, 'B');
  EXPECT_EQ(resp->body, std::string(1, '\x01'));
}

TEST_F(ServerTest, RemoteDeadlineExceeded) {
  // A per-statement deadline inside the query text's context: use the
  // scheduler's default timeout instead — restart the server with one.
  server_->Stop();
  SsdmServer::Options options;
  options.sched.default_timeout = std::chrono::milliseconds(25);
  engine_.RegisterForeign(
      "http://example.org/nap",
      [](std::span<const Term> args) -> Result<Term> {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return args[0];
      },
      1);
  // Enough rows that the amortized interrupt checks fire mid-query.
  std::string ttl = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 300; ++i) {
    ttl += "ex:row" + std::to_string(i) + " ex:val " + std::to_string(i) +
           " .\n";
  }
  ASSERT_TRUE(engine_.LoadTurtleString(ttl).ok());
  server_ = std::make_unique<SsdmServer>(&engine_, options);
  port_ = *server_->Start(0);

  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // The engine lock was released: a remote update still succeeds.
  EXPECT_TRUE(session
                  .Run("PREFIX ex: <http://example.org/> "
                       "INSERT DATA { ex:after ex:val 1 }")
                  .ok());
  EXPECT_GE(server_->scheduler_stats().timed_out, 1u);
}

TEST_F(ServerTest, OverloadedServerRejectsCleanly) {
  // Rebuild the server with one worker and a one-slot queue; block the
  // worker with a gated foreign function and verify the third client gets
  // the documented Unavailable("server overloaded") error.
  server_->Stop();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int entered = 0;
  engine_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        ++entered;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        return args[0];
      },
      1);
  SsdmServer::Options options;
  options.sched.workers = 1;
  options.sched.queue_capacity = 1;
  server_ = std::make_unique<SsdmServer>(&engine_, options);
  port_ = *server_->Start(0);

  const std::string slow =
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:gate(1) AS ?x) WHERE { }";
  auto run_slow = [&] {
    auto session = RemoteSession::Connect("127.0.0.1", port_);
    ASSERT_TRUE(session.ok());
    auto r = session->Query(slow);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  std::thread t1(run_slow);
  {  // Worker is busy inside the gate…
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered >= 1; }));
  }
  std::thread t2(run_slow);  // …this one fills the queue…
  while (server_->scheduler_stats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // …and this one must be turned away with a clean overload error.
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(slow);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("overloaded"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  t1.join();
  t2.join();
  EXPECT_GE(server_->scheduler_stats().rejected, 1u);
}

TEST_F(ServerTest, ClientReceiveTimeout) {
  // A client-side SO_RCVTIMEO bounds the wait for a slow server: block
  // the only worker, then watch a 100 ms-timeout client give up with
  // DeadlineExceeded instead of hanging.
  server_->Stop();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  engine_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        return args[0];
      },
      1);
  SsdmServer::Options options;
  options.sched.workers = 1;
  server_ = std::make_unique<SsdmServer>(&engine_, options);
  port_ = *server_->Start(0);

  auto session = RemoteSession::Connect("127.0.0.1", port_,
                                        std::chrono::milliseconds(100));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto start = std::chrono::steady_clock::now();
  auto r = session->Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:gate(1) AS ?x) WHERE { }");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(3));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
}

TEST(ServerLifecycle, StopIsIdempotent) {
  SSDM engine;
  SsdmServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
}

TEST(ServerLifecycle, ConnectToClosedPortFails) {
  SSDM engine;
  int dead_port;
  {
    SsdmServer server(&engine);
    dead_port = *server.Start(0);
  }
  EXPECT_FALSE(RemoteSession::Connect("127.0.0.1", dead_port).ok());
}

TEST(RemoteRetry, ConnectReportsAttemptCountOnRefusedPort) {
  // Find a port with nothing listening by binding-then-closing a listener.
  SSDM engine;
  int dead_port;
  {
    SsdmServer server(&engine);
    dead_port = *server.Start(0);
  }
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 2;
  retry.initial_backoff = std::chrono::milliseconds(5);
  auto session = RemoteSession::Connect(
      "127.0.0.1", dead_port, std::chrono::milliseconds(500), retry);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("after 2 attempts"),
            std::string::npos);
}

TEST(RemoteRetry, BadAddressFailsWithoutRetry) {
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff = std::chrono::milliseconds(50);
  auto start = std::chrono::steady_clock::now();
  auto session = RemoteSession::Connect(
      "not-an-ip", 1, std::chrono::milliseconds(0), retry);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  // No backoff sleeps: a bad address cannot heal, so it must fail fast.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST_F(ServerTest, ReadResendsAfterServerRestart) {
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(10);
  auto session = *RemoteSession::Connect(
      "127.0.0.1", port_, std::chrono::milliseconds(2000), retry);
  const std::string query =
      "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:score 10 }";
  ASSERT_TRUE(session.Query(query).ok());

  // Bounce the server on the same port: the session's connection is dead,
  // but a read-class statement transparently reconnects and resends.
  server_->Stop();
  server_ = std::make_unique<SsdmServer>(&engine_);
  ASSERT_TRUE(server_->Start(port_).ok());
  auto rows = session.Query(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(ServerTest, UpdateIsNotResentOverBrokenConnection) {
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(10);
  auto session = *RemoteSession::Connect(
      "127.0.0.1", port_, std::chrono::milliseconds(2000), retry);
  server_->Stop();
  server_ = std::make_unique<SsdmServer>(&engine_);
  ASSERT_TRUE(server_->Start(port_).ok());
  // Updates are not idempotent, so the broken connection surfaces as an
  // error instead of a silent double-apply.
  auto run = session.Run(
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:r ex:score 1 }");
  EXPECT_FALSE(run.ok());
}

/// A server with one execution slot over 5,000 ex:val rows and ex:nap(?x),
/// which sleeps 1 ms per call: the nap query below takes about 5 s unless
/// it is cancelled.
class SlowQueryServerTest : public ServerTest {
 protected:
  static constexpr char kNapQuery[] =
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }";

  void SetUp() override {
    ServerTest::SetUp();
    server_->Stop();
    std::shared_ptr<std::atomic<int>> naps = naps_;
    engine_.RegisterForeign(
        "http://example.org/nap",
        [naps](std::span<const Term> args) -> Result<Term> {
          ++*naps;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return args[0];
        },
        1);
    std::string ttl = "@prefix ex: <http://example.org/> .\n";
    for (int i = 0; i < 5000; ++i) {
      ttl += "ex:row" + std::to_string(i) + " ex:val " + std::to_string(i) +
             " .\n";
    }
    ASSERT_TRUE(engine_.LoadTurtleString(ttl).ok());
    SsdmServer::Options options;
    options.sched.workers = 1;
    server_ = std::make_unique<SsdmServer>(&engine_, options);
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  /// Waits until the nap query is executing.
  void AwaitNaps() {
    auto start = std::chrono::steady_clock::now();
    while (naps_->load() == 0 &&
           std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(naps_->load(), 0) << "the nap query never started";
  }

  std::shared_ptr<std::atomic<int>> naps_ =
      std::make_shared<std::atomic<int>>(0);
};

TEST_F(SlowQueryServerTest, DisconnectCancelsInFlightQuery) {
  // A raw client sends the nap query and hangs up mid-query.
  auto fd = net::DialServer("127.0.0.1", port_, std::chrono::milliseconds(0));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  WireRequest nap;
  nap.text = kNapQuery;
  ASSERT_TRUE(net::WriteFrame(*fd, EncodeRequest(nap)).ok());
  AwaitNaps();
  net::ForgetFd(*fd);
  ::close(*fd);

  // The server notices, and the statement stops with Cancelled long
  // before its 5 s of naps are over.
  auto start = std::chrono::steady_clock::now();
  while (server_->scheduler_stats().cancelled < 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->scheduler_stats().cancelled, 1u);
  EXPECT_LT(naps_->load(), 4000);

  // The only slot is free again: a second client is answered promptly.
  auto session = RemoteSession::Connect("127.0.0.1", port_,
                                        std::chrono::milliseconds(2000));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto asked = std::chrono::steady_clock::now();
  auto ask = session->Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:a ex:score 10 }");
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  EXPECT_TRUE(*ask);
  EXPECT_LT(std::chrono::steady_clock::now() - asked, std::chrono::seconds(2));
}

TEST_F(SlowQueryServerTest, StopWithStatementInFlightReturnsPromptly) {
  std::thread client([this] {
    RemoteSession::RetryOptions retry;
    retry.max_attempts = 1;
    auto session = RemoteSession::Connect(
        "127.0.0.1", port_, std::chrono::milliseconds(10000), retry);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    // Cancelled, or the socket shut under it: either way not an answer.
    EXPECT_FALSE(session->Query(kNapQuery).ok());
  });
  AwaitNaps();
  auto start = std::chrono::steady_clock::now();
  server_->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  client.join();
  EXPECT_LT(naps_->load(), 4000);
}

}  // namespace
}  // namespace client
}  // namespace scisparql
