// The benchmark's own computations, independent of the program under test:
// a query generator, a C_out evaluator, exact optima (enumeration up to 8
// relations, subset DP up to 22), a permutation check, and the host-speed
// reference kernel used to normalise fixed-work timings.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "jo/query.h"

namespace perfbench {

/// splitmix64: the benchmark's own seeded stream, so its inputs never
/// depend on the program's RNG.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

/// Mixes a run seed with stream ids into an independent stream seed.
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// A Steinbrunn-style query with integer log10 statistics (the paper's
/// Sec. 4.1 setup): Card = 10^u with u in [1, 4], Sel = 10^-u with u in
/// [1, 2]. Shapes: chain, star, cycle, clique.
qjo::Query MakeQuery(qjo::QueryGraphType shape, int relations, SplitMix& rng);

/// True iff `order` is a permutation of 0..n-1.
bool IsPermutation(const std::vector<int>& order, int n);

/// C_out cost (sum of intermediate result cardinalities) of a left-deep
/// order, from the query's relations and predicates alone. `order` must be
/// a permutation.
double CoutCost(const qjo::Query& query, const std::vector<int>& order);

/// Largest query whose optimum the benchmark computes.
inline constexpr int kMaxOptimumRelations = 22;

/// Exact optimal C_out cost: enumeration of all orders up to 8 relations,
/// subset DP up to kMaxOptimumRelations; nullopt above.
std::optional<double> ExactOptimum(const qjo::Query& query);
double EnumerationOptimum(const qjo::Query& query);
double SubsetDpOptimum(const qjo::Query& query);

/// Nominal duration of the reference kernel: fixed-work timings are
/// rescaled to the host speed at which the kernel takes this long.
inline constexpr double kNominalRefMs = 2.0;

/// Runs the fixed reference kernel (random reads, multiply-adds and
/// branches over a 256 KiB table, like an annealing sweep) a few times on
/// each of `threads` threads at once, and returns the mean over threads of
/// each thread's fastest wall time in ms.
double TimeReferenceKernelMs(int threads = 1);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
