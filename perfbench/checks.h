// Output checks every returned plan must pass, built only on the
// benchmark's own evaluator and optimum (reference.h).

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <optional>
#include <string>
#include <vector>

#include "jo/query.h"

namespace perfbench {

/// What a response claims about one query.
struct PlanClaim {
  std::vector<int> order;
  double best_cost = 0.0;
  /// The program's own optimality label; 0 = not filled.
  double optimal_cost = 0.0;
};

/// Relative tolerance of every cost comparison.
inline constexpr double kCostTolerance = 1e-9;

/// Checks `claim` against `query`: the order is a permutation of all
/// relations, its recomputed C_out equals best_cost, the cost is not below
/// `optimum`, and a filled optimal_cost equals `optimum`. The last two are
/// skipped when `optimum` is unknown (queries above 22 relations). Returns
/// an empty string when every check passes, else the first failure.
std::string CheckPlan(const qjo::Query& query, const PlanClaim& claim,
                      const std::optional<double>& optimum);

/// Shows that CheckPlan rejects corrupted plans (a repeated relation, a
/// cost off by 1%, a claimed cost below the optimum, a wrong optimality
/// label) and that the two optimum methods agree. Returns the failures.
std::vector<std::string> SelfTestChecks();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
