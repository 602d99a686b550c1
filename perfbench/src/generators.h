#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small deterministic generator, so one seed always yields
/// the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
  double Uniform() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }

 private:
  uint64_t state_;
};

// --- sp2b_read: an SP²Bench-style DBLP graph. ---

/// Sizes are fixed; the seed decides authorship, years, optional
/// attributes, so every seed has the same shape and a different graph.
struct Sp2bConfig {
  int journals = 40;
  int articles_per_journal = 200;
  int proceedings = 130;
  int inproceedings_per_proc = 60;
  int persons = 6000;
};

/// Generator output: the Turtle document plus every statistic the query
/// checks need.
struct Sp2bData {
  Sp2bConfig config;
  std::string turtle;
  size_t triples = 0;
  // Per journal.
  std::vector<int> articles;
  std::vector<int> with_month;
  std::vector<int> authorships;
  std::vector<int> distinct_years;
  std::vector<int> max_year;
  std::vector<std::set<int>> authors;  ///< distinct author person ids
  // Per proceedings.
  std::vector<int> inproceedings;
};

Sp2bData GenerateSp2b(const Sp2bConfig& config, uint64_t seed);

/// Namespace prologue of every sp2b_read statement.
const std::string& Sp2bPrologue();

// --- path_closure: many disjoint `knows` rings. ---

struct RingsConfig {
  int rings = 500;
  /// Ring sizes cycle through these (multiples of `label_every`), so every
  /// seed has the same size mix; the seed shuffles which ring gets which.
  std::vector<int> sizes = {128, 160, 192, 224, 256, 288, 320, 352, 384};
  int label_every = 8;  ///< every k-th node carries an ex:label
  /// Rings numbered from `rings` on, all of `big_size` nodes.
  int big_rings = 20;
  int big_size = 1536;
};

struct RingsData {
  RingsConfig config;
  std::string turtle;
  size_t triples = 0;
  std::vector<int> ring_size;     ///< of the rings, then the big rings
  std::vector<int> ring_offset;  ///< number of each ring's first node
};

RingsData GenerateRings(const RingsConfig& config, uint64_t seed);

const std::string& RingsPrologue();

// --- annotate_write: experiments with measurements and annotations. ---

struct ExperimentsConfig {
  int experiments = 400;
  int measurements_per_experiment = 8;
  int annotations_per_experiment = 3;
  /// Temperature thresholds the range query draws from.
  std::vector<double> thresholds = {280, 290, 300, 310, 320, 330, 340, 350};
};

struct ExperimentsData {
  ExperimentsConfig config;
  std::string turtle;
  size_t triples = 0;
  std::vector<int> above_threshold;  ///< experiments hotter than each threshold
};

ExperimentsData GenerateExperiments(const ExperimentsConfig& config,
                                    uint64_t seed);

const std::string& ExperimentsPrologue();

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
