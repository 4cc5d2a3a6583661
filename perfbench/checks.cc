#include "checks.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "reference.h"

namespace perfbench {
namespace {

bool RelativelyEqual(double a, double b) {
  return std::fabs(a - b) <= kCostTolerance * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

std::string CheckPlan(const qjo::Query& query, const PlanClaim& claim,
                      const std::optional<double>& optimum) {
  std::ostringstream why;
  if (!IsPermutation(claim.order, query.num_relations())) {
    why << "order is not a permutation of " << query.num_relations()
        << " relations";
    return why.str();
  }
  const double cost = CoutCost(query, claim.order);
  if (!RelativelyEqual(cost, claim.best_cost)) {
    why << "reported cost " << claim.best_cost << " but the order costs "
        << cost;
    return why.str();
  }
  if (optimum.has_value()) {
    if (cost < *optimum * (1.0 - kCostTolerance)) {
      why << "cost " << cost << " below the optimum " << *optimum;
      return why.str();
    }
    if (claim.optimal_cost != 0.0 &&
        !RelativelyEqual(claim.optimal_cost, *optimum)) {
      why << "optimal_cost label " << claim.optimal_cost
          << " differs from the optimum " << *optimum;
      return why.str();
    }
  }
  return "";
}

std::vector<std::string> SelfTestChecks() {
  std::vector<std::string> failures;
  SplitMix rng(2024);
  const qjo::QueryGraphType shapes[] = {
      qjo::QueryGraphType::kChain, qjo::QueryGraphType::kStar,
      qjo::QueryGraphType::kCycle, qjo::QueryGraphType::kClique};
  for (qjo::QueryGraphType shape : shapes) {
    const qjo::Query query = MakeQuery(shape, 7, rng);
    const double by_enumeration = EnumerationOptimum(query);
    const double by_dp = SubsetDpOptimum(query);
    if (!RelativelyEqual(by_enumeration, by_dp)) {
      failures.push_back(std::string("enumeration and subset DP disagree on a ") +
                         qjo::QueryGraphTypeName(shape) + " query");
    }
    std::vector<int> order(query.num_relations());
    std::iota(order.begin(), order.end(), 0);
    const double cost = CoutCost(query, order);
    const PlanClaim good{order, cost, by_dp};
    if (!CheckPlan(query, good, by_dp).empty()) {
      failures.push_back("a correct plan was rejected");
    }
    PlanClaim repeated = good;
    repeated.order[1] = repeated.order[0];
    PlanClaim off_by_one_percent = good;
    off_by_one_percent.best_cost *= 1.01;
    PlanClaim below_optimum = good;
    const std::optional<double> higher_optimum = cost * 1.5;
    PlanClaim wrong_label = good;
    wrong_label.optimal_cost = by_dp * 0.99;
    const struct {
      const char* what;
      const PlanClaim& claim;
      std::optional<double> optimum;
    } corrupted[] = {
        {"a repeated relation", repeated, by_dp},
        {"a cost off by 1%", off_by_one_percent, by_dp},
        {"a claimed cost below the optimum", below_optimum, higher_optimum},
        {"a wrong optimality label", wrong_label, by_dp},
    };
    for (const auto& c : corrupted) {
      if (CheckPlan(query, c.claim, c.optimum).empty()) {
        failures.push_back(std::string("a plan with ") + c.what +
                           " was accepted");
      }
    }
  }
  return failures;
}

}  // namespace perfbench
