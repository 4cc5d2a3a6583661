#include "reference.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

namespace perfbench {
namespace {

/// Dense selectivity matrix: sel[a * n + b] is the product of the
/// selectivities of every predicate between a and b (1 when none).
std::vector<double> SelectivityMatrix(const qjo::Query& query) {
  const int n = query.num_relations();
  std::vector<double> sel(static_cast<size_t>(n) * n, 1.0);
  for (const qjo::Predicate& p : query.predicates()) {
    sel[static_cast<size_t>(p.left) * n + p.right] *= p.selectivity;
    sel[static_cast<size_t>(p.right) * n + p.left] *= p.selectivity;
  }
  return sel;
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  SplitMix mix(seed ^ (0x51ed27aa3c1f4e6bull * (a + 1)) ^
               (0xc2b2ae3d27d4eb4full * (b + 1)));
  mix.Next();
  return mix.Next();
}

qjo::Query MakeQuery(qjo::QueryGraphType shape, int relations, SplitMix& rng) {
  qjo::Query query;
  for (int t = 0; t < relations; ++t) {
    query.AddRelation("R" + std::to_string(t), std::pow(10.0, rng.Range(1, 4)));
  }
  auto add = [&](int a, int b) {
    // Predicates are generated valid, so the status is always ok.
    (void)query.AddPredicate(a, b, std::pow(10.0, -rng.Range(1, 2)));
  };
  switch (shape) {
    case qjo::QueryGraphType::kChain:
      for (int t = 0; t + 1 < relations; ++t) add(t, t + 1);
      break;
    case qjo::QueryGraphType::kStar:
      for (int t = 1; t < relations; ++t) add(0, t);
      break;
    case qjo::QueryGraphType::kCycle:
      for (int t = 0; t + 1 < relations; ++t) add(t, t + 1);
      add(relations - 1, 0);
      break;
    case qjo::QueryGraphType::kClique:
      for (int a = 0; a < relations; ++a) {
        for (int b = a + 1; b < relations; ++b) add(a, b);
      }
      break;
  }
  return query;
}

bool IsPermutation(const std::vector<int>& order, int n) {
  if (static_cast<int>(order.size()) != n) return false;
  std::vector<bool> seen(n, false);
  for (int r : order) {
    if (r < 0 || r >= n || seen[r]) return false;
    seen[r] = true;
  }
  return true;
}

double CoutCost(const qjo::Query& query, const std::vector<int>& order) {
  const int n = query.num_relations();
  const std::vector<double> sel = SelectivityMatrix(query);
  double card = query.relation(order[0]).cardinality;
  double cost = 0.0;
  for (int i = 1; i < n; ++i) {
    const int r = order[i];
    card *= query.relation(r).cardinality;
    for (int j = 0; j < i; ++j) card *= sel[static_cast<size_t>(r) * n + order[j]];
    cost += card;
  }
  return cost;
}

double EnumerationOptimum(const qjo::Query& query) {
  std::vector<int> order(query.num_relations());
  std::iota(order.begin(), order.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best, CoutCost(query, order));
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

double SubsetDpOptimum(const qjo::Query& query) {
  const int n = query.num_relations();
  const std::vector<double> sel = SelectivityMatrix(query);
  std::vector<std::vector<int>> neighbours(n);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && sel[static_cast<size_t>(a) * n + b] != 1.0) {
        neighbours[a].push_back(b);
      }
    }
  }
  const uint32_t full = (uint32_t{1} << n) - 1;
  // card[m]: result size of joining the relations of m; dp[m]: cheapest
  // left-deep C_out over exactly m. Both grow from m minus its lowest bit.
  std::vector<double> card(static_cast<size_t>(full) + 1, 1.0);
  std::vector<double> dp(static_cast<size_t>(full) + 1, 0.0);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    const int low = __builtin_ctz(mask);
    const uint32_t rest = mask & (mask - 1);
    double c = card[rest] * query.relation(low).cardinality;
    for (int s : neighbours[low]) {
      if (rest & (uint32_t{1} << s)) c *= sel[static_cast<size_t>(low) * n + s];
    }
    card[mask] = c;
    if (rest == 0) continue;  // singleton: no join yet
    double best = std::numeric_limits<double>::infinity();
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      best = std::min(best, dp[mask ^ (bits & (~bits + 1))]);
    }
    dp[mask] = best + c;
  }
  return dp[full];
}

std::optional<double> ExactOptimum(const qjo::Query& query) {
  const int n = query.num_relations();
  if (n > kMaxOptimumRelations) return std::nullopt;
  return n <= 8 ? EnumerationOptimum(query) : SubsetDpOptimum(query);
}

namespace {

/// One thread's share of a probe: the fastest of a few repetitions.
double ReferenceKernelOnThisThread() {
  constexpr int kTableSize = 1 << 15;  // 32768 doubles = 256 KiB
  constexpr int kSteps = 400000;
  constexpr int kReps = 5;
  thread_local std::vector<double> table = [] {
    std::vector<double> t(kTableSize);
    SplitMix rng(12345);
    for (double& v : t) v = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 - 0.5;
    return t;
  }();
  double best_ms = std::numeric_limits<double>::infinity();
  double energy = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (int step = 0; step < kSteps; ++step) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      double& v = table[x & (kTableSize - 1)];
      const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
      // Metropolis-style accept: flip the entry's sign when the draw
      // clears it, so the table stays bounded and the branch is random.
      if (v * 1.7 < u - 0.5) {
        energy += v;
        v = -v;
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best_ms = std::min(best_ms, ms);
  }
  // Keeps the loop from being optimised away.
  static std::atomic<double> sink{0.0};
  sink.store(energy, std::memory_order_relaxed);
  return best_ms;
}

}  // namespace

double TimeReferenceKernelMs(int threads) {
  std::vector<double> ms(static_cast<size_t>(std::max(threads, 1)), 0.0);
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < ms.size(); ++i) {
    helpers.emplace_back([&ms, i] { ms[i] = ReferenceKernelOnThisThread(); });
  }
  ms[0] = ReferenceKernelOnThisThread();
  for (std::thread& t : helpers) t.join();
  double sum = 0.0;
  for (double m : ms) sum += m;
  return sum / static_cast<double>(ms.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
