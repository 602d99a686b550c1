#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "decorators.h"
#include "engine/ssdm.h"
#include "generators.h"
#include "relstore/database.h"

namespace perfbench {

/// What a correct response to a request looks like.
struct Expect {
  enum class Kind {
    kRows,    ///< SELECT: row count in [lo, hi]
    kCount,   ///< SELECT with one COUNT cell: its value in [lo, hi]
    kAsk,     ///< ASK: equals `ask`
    kUpdate,  ///< update: triples touched in [lo, hi]
  };
  Kind kind = Kind::kRows;
  int64_t lo = 0;
  int64_t hi = 0;
  bool ask = false;
  /// When >= 0, the first row's cell in this column must render (ToString)
  /// as `first`.
  int first_col = -1;
  std::string first;
  /// Workload-private key (annotate_write: the experiment touched).
  int key = -1;
  /// Workload-private count (annotate_write: deletions of the experiment's
  /// annotations acknowledged when the read was drawn).
  int64_t mark = 0;
};

/// One statement a client sends, with its class and expected answer.
struct Request {
  std::string text;
  int cls = 0;
  bool write = false;
  Expect expect;
};

/// A ready-to-serve engine and everything it depends on. Members are
/// destroyed in reverse order: engine, then storage, database, VFS.
struct Instance {
  std::unique_ptr<BenchVfs> vfs;
  std::unique_ptr<scisparql::relstore::Database> db;
  std::shared_ptr<TimedStorage> storage;  ///< null without array storage
  std::unique_ptr<scisparql::SSDM> engine;
  size_t triples = 0;  ///< triples loaded during setup
  double load_s = 0;   ///< of the setup, seconds spent in the load itself
};

/// A benchmark workload: a seeded input generator, the timed set-up of an
/// engine over those inputs, and the request mix clients draw from.
class Workload {
 public:
  static constexpr int kMaxClients = 16;

  virtual ~Workload() = default;

  /// Closed-loop clients (one connection each).
  virtual int clients() const = 0;
  /// Request class names, indexed by Request::cls.
  virtual std::vector<std::string> classes() const = 0;

  /// Builds every input from `seed`. Not timed.
  virtual scisparql::Status Generate(uint64_t seed) = 0;

  /// Builds an engine over the generated inputs, with its durable store in
  /// `dir` (which must not exist yet), up to the point where it can serve
  /// the first query. This is what setup_s times.
  virtual scisparql::Result<std::unique_ptr<Instance>> Setup(
      const std::string& dir) = 0;

  /// Frees generator output that only Setup needs; the expected answers
  /// stay. Called after the last Setup, so resident_mb counts the engine
  /// rather than the benchmark's inputs.
  virtual void ReleaseInputs() = 0;

  /// The next request of `client`, drawn from that client's own stream.
  /// `client` is below kMaxClients; the loop's clients use 0..clients()-1.
  virtual Request Next(int client, Rng& rng) = 0;

  /// Checks a response. The default applies `req.expect`.
  virtual bool Check(const Request& req, const scisparql::QueryOutcome& out);

  /// Classes whose in-process time splits into array computation and
  /// back-end time (sci_array's Q3 and Q4).
  virtual bool ArrayComputeClass(int /*cls*/) const { return false; }
};

/// The four workloads by name: sp2b_read, sci_array, annotate_write,
/// path_closure. nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
