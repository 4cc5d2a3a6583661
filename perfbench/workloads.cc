#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "checks.h"
#include "core/portfolio.h"
#include "core/postprocess.h"
#include "core/qubo_cache.h"
#include "core/quantum_optimizer.h"
#include "decomp/decomp.h"
#include "jo/classical.h"
#include "obs/obs.h"
#include "reference.h"
#include "serve/optimizer_service.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using qjo::Query;
using qjo::QueryGraphType;

constexpr QueryGraphType kShapes[] = {QueryGraphType::kChain,
                                      QueryGraphType::kStar,
                                      QueryGraphType::kCycle,
                                      QueryGraphType::kClique};

/// Hardware threads the benchmark may keep busy: clients, service
/// workers and solver threads together stay within it.
constexpr int kThreadBudget = 4;

/// deadline_large: the request deadline and the slack a response may
/// overrun it by before it counts as a failed operation.
constexpr double kDeadlineMs = 200.0;
constexpr double kDeadlineSlackMs = 20.0;

/// Strands whose outcomes the traced run reports.
const char* const kStrands[] = {"sa", "tabu", "sqa", "decomp"};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

/// Reference figures: raw (unscaled) latency median, and p90 once at least
/// ten samples lie beyond it.
std::string LatencyNote(const std::vector<double>& raw_ms, double busy_s,
                        double ref_ms, size_t rounds) {
  std::string note = "raw latency p50 " + std::to_string(Median(raw_ms)) + " ms";
  if (raw_ms.size() >= 100) {
    note += ", p90 " + std::to_string(Percentile(raw_ms, 90.0)) + " ms";
  }
  return note + " over " + std::to_string(raw_ms.size()) + " requests in " +
         std::to_string(rounds) + " rounds; raw throughput " +
         std::to_string(raw_ms.size() / busy_s) + " rps; reference kernel median " +
         std::to_string(ref_ms) + " ms";
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// Host-speed reference: the fixed kernel is timed between requests while
/// no program thread is busy. Times are rescaled by the nominal over the
/// run's median reference time; the median of many probes follows the
/// host's speed from run to run, where a single probe is too noisy to
/// rescale one request.
class HostSpeed {
 public:
  /// `threads`: how many threads the workload keeps busy at once; the
  /// probe runs the kernel on as many.
  explicit HostSpeed(int threads) : threads_(threads) {}
  void Probe() { samples_.push_back(TimeReferenceKernelMs(threads_)); }
  double MedianMs() const { return Median(samples_); }
  /// Multiplies a time (divides a rate) to rescale it.
  double Factor() const { return kNominalRefMs / MedianMs(); }

 private:
  int threads_;
  std::vector<double> samples_;
};

/// Rescales a request's time by `factor`, except its first `clock_ms`: a
/// wait bounded by the wall clock (a deadline) takes as long on any host,
/// and rescaling it would distort it.
double Rescale(double raw_ms, double factor, double clock_ms) {
  return raw_ms <= clock_ms ? raw_ms : clock_ms + (raw_ms - clock_ms) * factor;
}

PlanClaim ClaimOf(const qjo::QjoReport& report) {
  return {report.best_order.order(), report.best_cost, report.optimal_cost};
}

/// Bit-identical plans: the same order at the same cost.
bool SamePlan(const PlanClaim& a, const PlanClaim& b) {
  return a.order == b.order && a.best_cost == b.best_cost;
}

/// One returned plan awaiting verification after the timed phase.
struct Response {
  const Query* query = nullptr;
  int key = -1;  ///< index of the query among the run's distinct queries
  PlanClaim claim;
  /// Answers a query of the first round, which every run completes.
  bool first_round = false;
};

/// Checks every response against the benchmark's own optimum (computed
/// once per distinct query) and returns plan_cost_ratio: the geometric mean
/// of plan cost over optimum across the distinct first-round queries small
/// enough to have an optimum. The first round is the same set of queries
/// however many rounds a run completes.
double VerifyResponses(const std::vector<Response>& responses,
                       RunOutcome& out) {
  std::map<int, std::optional<double>> optima;
  std::map<int, double> first_round_ratio;
  for (const Response& r : responses) {
    auto it = optima.find(r.key);
    if (it == optima.end()) it = optima.emplace(r.key, ExactOptimum(*r.query)).first;
    const std::string why = CheckPlan(*r.query, r.claim, it->second);
    if (!why.empty()) {
      out.Fail("query " + std::to_string(r.key) + " (" +
               std::to_string(r.query->num_relations()) +
               " relations): " + why);
      continue;
    }
    if (r.first_round && it->second.has_value() && *it->second > 0.0) {
      first_round_ratio.emplace(r.key, r.claim.best_cost / *it->second);
    }
  }
  double log_sum = 0.0;
  for (const auto& [key, ratio] : first_round_ratio) log_sum += std::log(ratio);
  return first_round_ratio.empty()
             ? 1.0
             : std::exp(log_sum / static_cast<double>(first_round_ratio.size()));
}

// ---------------------------------------------------------------------------
// Traced run: per-layer calls from outside, with the benchmark's spans.

struct StrandSamples {
  std::vector<double> ms, sweeps, rounds, wins;
};

struct LayerSamples {
  std::vector<double> dp_ms, greedy_ms, encode_ms, qubo_variables, qubo_terms;
  std::vector<double> race_ms, race_self_ms, fallback_wins, postprocess_ms;
  std::vector<double> decomp_ms, decomp_rounds, decomp_improvements;
  std::map<std::string, StrandSamples> strands;
  /// The program's own per-stage times of the traced calls.
  std::vector<double> stage_encode_ms, stage_oracle_ms, stage_solve_ms,
      stage_postprocess_ms;
  std::vector<double> untraced_latency_ms, traced_latency_ms;
};

void AddStageTimings(const qjo::QjoReport& report, LayerSamples& layers) {
  const qjo::StageTimings& st = report.stage_timings;
  layers.stage_encode_ms.push_back(st.Of("encode"));
  layers.stage_oracle_ms.push_back(st.Of("oracle_dp"));
  layers.stage_solve_ms.push_back(st.Of("solve.portfolio"));
  layers.stage_postprocess_ms.push_back(st.Of("postprocess"));
}

/// Calls each layer's public function on `query` with the request's
/// configuration, each inside a span of the benchmark's own: the classical
/// planners, the encode, the portfolio race (strand outcomes read from its
/// report), the sample decoder and the decomposition loop.
void ProbeLayers(const Query& query, const qjo::QjoConfig& config,
                 SpanRecorder& spans, int request, LayerSamples& layers,
                 RunOutcome& out) {
  ScopedSpan probe(&spans, "probe", -1, request);
  // Runs `body` inside a child span of the probe; returns the span's id.
  auto timed = [&](const char* name, auto&& body) {
    const int id = spans.Begin(name, probe.id(), request);
    body();
    spans.End(id);
    return id;
  };
  const int n = query.num_relations();
  double optimal_cost = 0.0;
  if (n <= qjo::kMaxDpRelations) {
    layers.dp_ms.push_back(spans.DurationMs(timed("jo.dp", [&] {
      auto dp = qjo::OptimizeDp(query);
      if (dp.ok()) optimal_cost = dp->cost;
    })));
  }
  layers.greedy_ms.push_back(spans.DurationMs(timed("jo.greedy", [&] {
    auto greedy = qjo::OptimizeGreedy(query);
    if (!greedy.ok()) out.Fail("OptimizeGreedy: " + greedy.status().ToString());
  })));

  qjo::JoEncodingOptions encode_options;
  encode_options.thresholds = config.thresholds;
  encode_options.num_thresholds = config.num_thresholds;
  encode_options.omega = config.omega;
  qjo::StatusOr<std::shared_ptr<const qjo::JoQuboEncoding>> built =
      qjo::Status::Internal("not built");
  layers.encode_ms.push_back(spans.DurationMs(timed("encode", [&] {
    built = qjo::BuildJoQuboEncoding(query, encode_options);
  })));
  if (!built.ok()) {
    out.Fail("BuildJoQuboEncoding: " + built.status().ToString());
    return;
  }
  const qjo::JoQuboEncoding& encoding = **built;
  layers.qubo_variables.push_back(encoding.encoding.qubo.num_variables());
  layers.qubo_terms.push_back(encoding.encoding.qubo.num_quadratic_terms());

  // The race configured as the pipeline configures it for this request.
  qjo::PortfolioOptions race = config.portfolio;
  race.solver_kernel = config.solver_kernel;
  race.run.parallelism = std::max(race.run.parallelism, config.run.parallelism);
  if (race.run.pool == nullptr) race.run.pool = config.run.pool;
  if (race.run.deadline_ms < 0.0 && config.run.deadline_ms >= 0.0) {
    race.run.deadline_ms = config.run.deadline_ms;
  }
  qjo::StatusOr<qjo::PortfolioReport> report = qjo::Status::Internal("not run");
  const auto race_start = Clock::now();
  const int race_span = timed("race", [&] {
    qjo::Rng rng(config.seed);
    report = qjo::RunJoPortfolio(query, encoding, race, rng);
  });
  if (!report.ok()) {
    out.Fail("RunJoPortfolio: " + report.status().ToString());
    return;
  }
  const qjo::PortfolioReport& raced = *report;
  // Strand spans come from the program's report: each strand runs for its
  // reported total time, all from the race start on a parallel pool, one
  // after another (run_first strands first) on a serial one.
  const qjo::StrandRegistry& registry =
      race.registry ? *race.registry : qjo::StrandRegistry::Default();
  std::vector<const qjo::StrandOutcome*> eligible;
  for (const qjo::StrandOutcome& strand : raced.race.strands) {
    if (strand.eligible) eligible.push_back(&strand);
  }
  std::stable_sort(eligible.begin(), eligible.end(),
                   [&](const qjo::StrandOutcome* a, const qjo::StrandOutcome* b) {
                     return registry.strands()[a->index].run_first >
                            registry.strands()[b->index].run_first;
                   });
  const bool serial = race.run.pool->parallelism() == 1;
  Clock::time_point strand_start = race_start;
  for (const qjo::StrandOutcome* strand : eligible) {
    spans.Add("strand." + strand->name, strand_start, strand->total_ms,
              race_span, request);
    if (serial) {
      strand_start += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(strand->total_ms));
    }
  }
  layers.race_ms.push_back(spans.DurationMs(race_span));
  layers.race_self_ms.push_back(spans.SelfTimeMs(race_span));
  layers.fallback_wins.push_back(raced.used_classical_fallback ? 100.0 : 0.0);
  for (const char* name : kStrands) {
    StrandSamples& s = layers.strands[name];
    for (const qjo::StrandOutcome& strand : raced.race.strands) {
      if (strand.name != name || !strand.eligible) continue;
      s.ms.push_back(strand.total_ms);
      s.sweeps.push_back(static_cast<double>(strand.sweeps_completed));
      s.rounds.push_back(strand.rounds_completed);
    }
    s.wins.push_back(raced.winner == name ? 100.0 : 0.0);
  }
  const std::string why = CheckPlan(
      query, {raced.best_order.order(), raced.best_cost, 0.0}, std::nullopt);
  if (!why.empty()) out.Fail("RunJoPortfolio plan: " + why);

  std::vector<std::vector<int>> samples;
  if (!raced.race.best_assignment.empty()) {
    samples.push_back(raced.race.best_assignment);
  }
  layers.postprocess_ms.push_back(spans.DurationMs(timed("postprocess", [&] {
    qjo::EvaluateSamples(encoding.milp, samples, optimal_cost, &encoding.bilp);
  })));

  if (race.enable_decomp && n >= race.min_decomp_relations) {
    qjo::DecompOptions decomp = race.decomp;
    decomp.solver_kernel = config.solver_kernel;
    decomp.run.pool = race.run.pool;
    decomp.run.parallelism = race.run.parallelism;
    if (race.run.deadline_ms > 0.0) decomp.run.deadline_ms = race.run.deadline_ms;
    qjo::StatusOr<qjo::DecompReport> decomposed = qjo::Status::Internal("not run");
    layers.decomp_ms.push_back(spans.DurationMs(timed("decomp", [&] {
      qjo::Rng rng(config.seed);
      decomposed = qjo::OptimizeJoinOrderDecomposed(query, decomp, rng);
    })));
    if (!decomposed.ok()) {
      out.Fail("OptimizeJoinOrderDecomposed: " + decomposed.status().ToString());
      return;
    }
    layers.decomp_rounds.push_back(decomposed->rounds);
    layers.decomp_improvements.push_back(decomposed->improvements);
  }
}

/// Serving-layer figures of a traced run (zero on the direct workloads).
struct ServeLayer {
  std::vector<double> queue_ms, solve_ms, hit_ms;
  double solves = 0, cache_hits = 0, coalesced = 0;
  double build_cache_hits = 0, build_cache_misses = 0;
};

void AddLayerMetrics(const LayerSamples& layers, const ServeLayer& serve,
                     double ref_ms, RunOutcome& out) {
  out.Add("host.ref_ms", ref_ms, "ms");
  out.Add("jo.dp_ms", Mean(layers.dp_ms), "ms");
  out.Add("jo.greedy_ms", Mean(layers.greedy_ms), "ms");
  out.Add("encode.ms", Mean(layers.encode_ms), "ms");
  out.Add("encode.qubo_variables", Mean(layers.qubo_variables), "count");
  out.Add("encode.qubo_terms", Mean(layers.qubo_terms), "count");
  out.Add("race.ms", Mean(layers.race_ms), "ms");
  out.Add("race.self_ms", Mean(layers.race_self_ms), "ms");
  out.Add("race.fallback_wins", Mean(layers.fallback_wins), "%");
  out.Add("postprocess.ms", Mean(layers.postprocess_ms), "ms");
  for (const char* name : kStrands) {
    const auto it = layers.strands.find(name);
    const StrandSamples empty;
    const StrandSamples& s = it == layers.strands.end() ? empty : it->second;
    const std::string prefix = std::string("strand.") + name;
    out.Add(prefix + ".ms", Mean(s.ms), "ms");
    out.Add(prefix + ".sweeps", Mean(s.sweeps), "count");
    out.Add(prefix + ".rounds", Mean(s.rounds), "count");
    out.Add(prefix + ".wins", Mean(s.wins), "%");
  }
  out.Add("decomp.ms", Mean(layers.decomp_ms), "ms");
  out.Add("decomp.rounds", Mean(layers.decomp_rounds), "count");
  out.Add("decomp.improvements", Mean(layers.decomp_improvements), "count");
  out.Add("serve.queue_ms_p50", Median(serve.queue_ms), "ms");
  out.Add("serve.solve_ms_p50", Median(serve.solve_ms), "ms");
  out.Add("serve.hit_ms_p50", Median(serve.hit_ms), "ms");
  out.Add("serve.solves", serve.solves, "count");
  out.Add("serve.cache_hits", serve.cache_hits, "count");
  out.Add("serve.coalesced", serve.coalesced, "count");
  out.Add("serve.build_cache_hits", serve.build_cache_hits, "count");
  out.Add("serve.build_cache_misses", serve.build_cache_misses, "count");
  out.Add("stage.encode_ms", Mean(layers.stage_encode_ms), "ms");
  out.Add("stage.oracle_dp_ms", Mean(layers.stage_oracle_ms), "ms");
  out.Add("stage.solve_ms", Mean(layers.stage_solve_ms), "ms");
  out.Add("stage.postprocess_ms", Mean(layers.stage_postprocess_ms), "ms");
  out.Add("trace.overhead_ms",
          Median(layers.traced_latency_ms) - Median(layers.untraced_latency_ms),
          "ms");
}

void WriteSpans(const SpanRecorder& spans, const RunOptions& options,
                RunOutcome& out) {
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);
  const std::string path = options.out_dir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".json";
  if (!spans.WriteChromeTrace(path)) out.Fail("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Direct workloads: one caller, OptimizeJoinOrder.

struct DirectSpec {
  /// Plans are bit-identical at any parallelism, so only time varies
  /// between runs.
  bool fixed_work = false;
  /// The part of a request's time bounded by the wall clock: kept raw.
  double clock_bound_ms = 0.0;
  /// A response slower than this is a failed operation.
  double fail_above_ms = std::numeric_limits<double>::infinity();
  qjo::QjoConfig config;
  /// The queries of one round: whole rounds are attempted.
  std::vector<Query> (*make_round)(uint64_t seed, int round) = nullptr;
  Query warmup;
};

/// Fixed-work rounds take their queries from this stream whatever the
/// seed, and the seed orders them. There a plan is a deterministic function
/// of its query, so queries drawn per seed would make plan_cost_ratio and
/// latency spread with the draw rather than with the program (README.md).
constexpr uint64_t kFixedWorkQueries = 1;

/// The queries of one round, one per (shape, relations) cell: contents
/// drawn from `content_seed`, order from `order_seed`.
std::vector<Query> MakeRound(
    const std::vector<std::pair<QueryGraphType, int>>& cells,
    uint64_t content_seed, uint64_t order_seed) {
  SplitMix content(content_seed);
  std::vector<Query> queries;
  for (const auto& [shape, n] : cells) {
    queries.push_back(MakeQuery(shape, n, content));
  }
  SplitMix order(order_seed);
  order.Shuffle(queries);
  return queries;
}

/// Latency grows steeply with the relation count, so a round's latencies
/// form one cluster per size. Each round holds one query per (shape, size)
/// cell and four per shape at the middle size, which puts the median in
/// the middle of a dense cluster rather than between sparse ones. Every
/// round repeats the same queries in a new order, so the latency
/// distribution does not depend on how many rounds a run completes (no
/// cache is attached to direct calls).
std::vector<Query> PortfolioSmallRound(uint64_t seed, int round) {
  std::vector<std::pair<QueryGraphType, int>> cells;
  for (QueryGraphType shape : kShapes) {
    for (int n : {4, 5, 6, 6, 6, 6, 7, 8}) cells.emplace_back(shape, n);
  }
  return MakeRound(cells, StreamSeed(kFixedWorkQueries, 1),
                   StreamSeed(seed, 1, round));
}

/// Two 20-relation queries of each shape and one 50-relation chain, star
/// and cycle: the 50-relation requests are the fastest, and doubling the
/// 20-relation ones puts the median inside their cluster.
std::vector<Query> DeadlineLargeRound(uint64_t seed, int round) {
  std::vector<std::pair<QueryGraphType, int>> cells;
  for (int copy = 0; copy < 2; ++copy) {
    for (QueryGraphType shape : kShapes) cells.emplace_back(shape, 20);
  }
  for (QueryGraphType shape : kShapes) {
    if (shape != QueryGraphType::kClique) cells.emplace_back(shape, 50);
  }
  return MakeRound(cells, StreamSeed(seed, 2, round),
                   StreamSeed(seed, 5, round));
}

/// Fixed-work portfolio configuration: sweep-budget race, no deadline, no
/// adaptive records.
qjo::QjoConfig FixedWorkConfig() {
  qjo::QjoConfig config;
  config.backend = qjo::QjoBackend::kPortfolio;
  config.seed = 7;
  config.run.deadline_ms = -1.0;
  config.portfolio.run.deadline_ms = -1.0;
  config.portfolio.sweep_budget = 4096;
  return config;
}

DirectSpec MakeDirectSpec(const std::string& workload) {
  DirectSpec spec;
  SplitMix warm_rng(99);
  if (workload == "portfolio_small") {
    spec.fixed_work = true;
    spec.config = FixedWorkConfig();
    spec.make_round = PortfolioSmallRound;
    spec.warmup = MakeQuery(QueryGraphType::kChain, 4, warm_rng);
  } else {
    spec.fail_above_ms = kDeadlineMs + kDeadlineSlackMs;
    spec.clock_bound_ms = kDeadlineMs;
    spec.config.backend = qjo::QjoBackend::kPortfolio;
    spec.config.seed = 7;
    spec.config.run.deadline_ms = kDeadlineMs;
    spec.config.portfolio.sweep_budget = 0;  // bounded by the deadline alone
    spec.make_round = DeadlineLargeRound;
    spec.warmup = MakeQuery(QueryGraphType::kChain, 12, warm_rng);
  }
  spec.config.run.parallelism = kThreadBudget;
  return spec;
}

RunOutcome RunDirect(const RunOptions& options) {
  RunOutcome out;
  DirectSpec spec = MakeDirectSpec(options.workload);
  qjo::ThreadPool pool(kThreadBudget);
  spec.config.run.pool = &pool;
  {
    auto warm = qjo::OptimizeJoinOrder(spec.warmup, spec.config);
    if (!warm.ok()) out.Fail("warm-up request: " + warm.status().ToString());
  }
  const double setup_ms = MsSince(options.process_start);

  // One strand (SQA) sets a direct request's latency.
  HostSpeed host(1);
  SpanRecorder spans;
  LayerSamples layers;
  std::vector<std::vector<Query>> rounds;
  std::vector<Response> responses;
  std::vector<double> latencies;  // raw; rescaled when reported
  int request = 0;
  host.Probe();

  // One timed call, followed by a host-speed probe while the program is
  // idle; returns the report, or nothing after a failure.
  auto call = [&](const Query& query, const qjo::QjoConfig& config,
                  double* latency_ms) -> std::optional<qjo::QjoReport> {
    const auto t0 = Clock::now();
    auto report = qjo::OptimizeJoinOrder(query, config);
    *latency_ms = MsSince(t0);
    host.Probe();
    ++out.attempted;
    if (!report.ok()) {
      ++out.failed;
      out.Fail("OptimizeJoinOrder: " + report.status().ToString());
      return std::nullopt;
    }
    if (*latency_ms > spec.fail_above_ms) ++out.failed;
    if (*latency_ms < report->stage_timings.total_ms) {
      out.Fail("wall time " + std::to_string(*latency_ms) +
               " ms below the reported stage_timings.total_ms " +
               std::to_string(report->stage_timings.total_ms));
    }
    return std::move(*report);
  };

  const auto phase_start = Clock::now();
  for (int round = 0; round == 0 || MsSince(phase_start) < options.seconds * 1e3;
       ++round) {
    rounds.push_back(spec.make_round(options.seed, round));
    const std::vector<Query>& queries = rounds.back();
    for (size_t i = 0; i < queries.size(); ++i, ++request) {
      const Query& query = queries[i];
      double latency = 0.0;
      const auto report = call(query, spec.config, &latency);
      latencies.push_back(latency);
      if (report) {
        responses.push_back({&query, request, ClaimOf(*report), round == 0});
      }
      if (!options.trace || !report) continue;

      // Traced run: the same request again with the program's trace
      // recorder attached and the benchmark's span around it, then each
      // layer's public function on the same query.
      layers.untraced_latency_ms.push_back(latency);
      qjo::TraceRecorder recorder;
      qjo::QjoConfig traced_config = spec.config;
      traced_config.run.trace = &recorder;
      std::optional<qjo::QjoReport> traced;
      {
        ScopedSpan span(&spans, "request", -1, request);
        traced = call(query, traced_config, &latency);
      }
      if (!traced) continue;
      layers.traced_latency_ms.push_back(latency);
      AddStageTimings(*traced, layers);
      responses.push_back({&query, request, ClaimOf(*traced), round == 0});
      if (spec.fixed_work && !SamePlan(ClaimOf(*report), ClaimOf(*traced))) {
        out.Fail("traced and untraced runs returned different plans");
      }
      if (spec.fixed_work && round == 0 && i < 4) {
        // Fixed-work plans must not depend on parallelism.
        qjo::QjoConfig serial = spec.config;
        serial.run.parallelism = 1;
        serial.run.pool = nullptr;
        auto again = qjo::OptimizeJoinOrder(query, serial);
        if (!again.ok() || !SamePlan(ClaimOf(*report), ClaimOf(*again))) {
          out.Fail("a re-solve at parallelism 1 returned a different plan");
        }
      }
      ProbeLayers(query, spec.config, spans, request, layers, out);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double plan_cost_ratio = VerifyResponses(responses, out);

  const double factor = host.Factor();
  auto rescale = [&](std::vector<double> raw_ms) {
    for (double& ms : raw_ms) ms = Rescale(ms, factor, spec.clock_bound_ms);
    return raw_ms;
  };
  if (options.trace) {
    layers.traced_latency_ms = rescale(layers.traced_latency_ms);
    layers.untraced_latency_ms = rescale(layers.untraced_latency_ms);
    AddLayerMetrics(layers, ServeLayer{}, host.MedianMs(), out);
    WriteSpans(spans, options, out);
  } else {
    const std::vector<double> rescaled = rescale(latencies);
    out.Add("latency_p50_ms", Median(rescaled), "ms");
    out.Add("throughput_rps", 1e3 * rescaled.size() / Sum(rescaled), "rps");
    out.Add("plan_cost_ratio", plan_cost_ratio, "x");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("setup_s", Rescale(setup_ms, factor, spec.clock_bound_ms) / 1e3,
            "s");
    out.notes.push_back(LatencyNote(latencies, Sum(latencies) / 1e3,
                                    host.MedianMs(), rounds.size()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve_zipf: OptimizerService under a closed loop.

/// Distinct keys per round and requests per round: each key appears at
/// least once and the extra requests follow Zipf(1.1) weights over the key
/// ranks, so every round solves exactly kServeKeys keys and answers the
/// rest from the plan cache or by coalescing.
constexpr int kServeKeys = 32;
constexpr int kServeRequests = 36;
constexpr int kServeClients = 3;
constexpr int kServeWorkers = 3;
constexpr int kServeTenants = 4;
/// An admitted request not resolved within this long is a lost future.
constexpr double kResolveTimeoutMs = 60e3;

/// The round's keys: two of each (shape, size) cell at 4 and 6 relations
/// and four at 5, so that with the few hits below it the median latency
/// lies inside the 5-relation cluster of solves.
std::vector<Query> ServeRoundKeys(uint64_t seed, int round) {
  std::vector<std::pair<QueryGraphType, int>> cells;
  for (int copy = 0; copy < 2; ++copy) {
    for (QueryGraphType shape : kShapes) {
      for (int n : {4, 5, 5, 6}) cells.emplace_back(shape, n);
    }
  }
  return MakeRound(cells, StreamSeed(kFixedWorkQueries, 3, round),
                   StreamSeed(seed, 3, round));
}

/// The round's request stream: key indices in a seeded order, with a
/// fixed Zipf-shaped multiplicity profile (independent of the seed).
std::vector<int> ServeRoundStream(uint64_t seed, int round) {
  std::vector<double> weight(kServeKeys);
  double total = 0.0;
  for (int r = 0; r < kServeKeys; ++r) {
    weight[r] = 1.0 / std::pow(r + 1.0, 1.1);
    total += weight[r];
  }
  // Largest-remainder apportionment of the extra requests.
  const int extra = kServeRequests - kServeKeys;
  std::vector<int> count(kServeKeys, 1);
  std::vector<std::pair<double, int>> remainder;
  int given = 0;
  for (int r = 0; r < kServeKeys; ++r) {
    const double share = extra * weight[r] / total;
    count[r] += static_cast<int>(share);
    given += static_cast<int>(share);
    remainder.emplace_back(-(share - std::floor(share)), r);
  }
  std::sort(remainder.begin(), remainder.end());
  for (int i = 0; given < extra; ++i, ++given) ++count[remainder[i].second];
  std::vector<int> stream;
  for (int r = 0; r < kServeKeys; ++r) stream.insert(stream.end(), count[r], r);
  SplitMix rng(StreamSeed(seed, 4, static_cast<uint64_t>(round)));
  rng.Shuffle(stream);
  return stream;
}

RunOutcome RunServe(const RunOptions& options) {
  RunOutcome out;
  qjo::ThreadPool pool(1);  // workers solve serially on their own threads
  qjo::ServeOptions serve_options;
  serve_options.workers = kServeWorkers;
  serve_options.pool = &pool;
  serve_options.enable_plan_cache = true;
  serve_options.enable_coalescing = true;
  serve_options.share_build_cache = true;
  serve_options.cache.ttl_ms = -1.0;
  // Every round's keys fit the caches many times over, and keys never
  // recur across rounds, so eviction only drops finished rounds' entries:
  // the solve count stays one per key, and memory stops growing with the
  // number of rounds a run completes.
  serve_options.cache.num_shards = 8;
  serve_options.cache.capacity_per_shard = 16;
  serve_options.build_cache_entries = 128;
  // Attached to every request of a traced round; declared before the
  // service so that it outlives the service's workers.
  qjo::TraceRecorder recorder;
  qjo::OptimizerService service(serve_options);
  qjo::QjoConfig config = FixedWorkConfig();
  config.run.parallelism = 1;
  {
    // Warm-up: one request per shape, under another solver seed so that
    // no warm-up plan key can coincide with a timed one.
    SplitMix warm_rng(99);
    std::vector<std::future<qjo::ServeResult>> warm;
    for (QueryGraphType shape : kShapes) {
      qjo::ServeRequest request;
      request.query = MakeQuery(shape, 4, warm_rng);
      request.config = config;
      request.config.seed = config.seed + 1;
      auto future = service.Submit(std::move(request));
      if (future.ok()) {
        warm.push_back(std::move(*future));
      } else {
        out.Fail("warm-up request rejected");
      }
    }
    for (auto& future : warm) {
      if (!future.get().status.ok()) out.Fail("warm-up request failed");
    }
  }
  const double setup_ms = MsSince(options.process_start);
  const qjo::OptimizerService::Stats stats_before = service.stats();
  const qjo::QuboBuildCache::Stats build_before = service.build_cache()->stats();

  HostSpeed host(kServeWorkers);
  SpanRecorder spans;
  LayerSamples layers;
  ServeLayer serve;
  std::vector<std::vector<Query>> rounds;
  std::vector<Response> responses;
  std::vector<double> latencies, round_ms;  // raw; rescaled when reported
  std::map<int, PlanClaim> first_plan;  // per global key
  host.Probe();
  int distinct_keys = 0;
  bool lost = false;

  const auto phase_start = Clock::now();
  // A traced run alternates untraced and traced rounds, so it runs two
  // rounds at least.
  const int min_rounds = options.trace ? 2 : 1;
  for (int round = 0; !lost && (round < min_rounds ||
                                MsSince(phase_start) < options.seconds * 1e3);
       ++round) {
    rounds.push_back(ServeRoundKeys(options.seed, round));
    const std::vector<Query>& keys = rounds.back();
    const std::vector<int> stream = ServeRoundStream(options.seed, round);
    const int key_base = distinct_keys;
    distinct_keys += kServeKeys;
    // A traced round attaches the program's trace recorder to every
    // request.
    const bool traced = options.trace && round % 2 == 1;

    struct Client {
      int index = -1;  ///< stream position in flight; -1 = idle
      Clock::time_point sent;
      std::future<qjo::ServeResult> future;
    };
    std::vector<Client> clients(kServeClients);
    struct Resolved {
      int index;
      Clock::time_point sent;
      double latency_ms;
      qjo::ServeResult result;
    };
    std::vector<Resolved> results;
    int next = 0;
    size_t done = 0;
    const auto round_start = Clock::now();
    // One load-generator thread runs every client's closed loop: a client submits
    // its next request as soon as its previous one resolves.
    while (done < stream.size() && !lost) {
      bool progressed = false;
      for (Client& c : clients) {
        if (c.index < 0 && next < static_cast<int>(stream.size())) {
          qjo::ServeRequest request;
          request.query = keys[stream[next]];
          request.config = config;
          if (traced) request.config.run.trace = &recorder;
          request.tenant = "tenant-" + std::to_string(next % kServeTenants);
          c.sent = Clock::now();
          auto future = service.Submit(std::move(request));
          ++out.attempted;
          if (!future.ok()) {
            ++out.failed;
            ++done;
            out.Fail("Submit rejected: " + future.status().ToString());
            ++next;
            continue;
          }
          c.future = std::move(*future);
          c.index = next++;
          progressed = true;
        }
        if (c.index < 0) continue;
        if (c.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const double latency_ms = MsSince(c.sent);
          results.push_back({c.index, c.sent, latency_ms, c.future.get()});
          c.index = -1;
          ++done;
          progressed = true;
        } else if (MsSince(c.sent) > kResolveTimeoutMs) {
          out.Fail("an admitted request did not resolve");
          lost = true;
        }
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    round_ms.push_back(MsSince(round_start));
    // Two probes per round boundary while the service is idle.
    host.Probe();
    host.Probe();
    for (const Resolved& r : results) {
      const int key = key_base + stream[r.index];
      latencies.push_back(r.latency_ms);
      if (!r.result.status.ok()) {
        ++out.failed;
        out.Fail("served request: " + r.result.status.ToString());
        continue;
      }
      const PlanClaim claim = ClaimOf(r.result.report);
      responses.push_back({&keys[stream[r.index]], key, claim, round == 0});
      const auto [first, inserted] = first_plan.emplace(key, claim);
      if (!inserted && !SamePlan(first->second, claim)) {
        out.Fail("two responses for one key carry different plans");
      }
      if (!options.trace) continue;
      (traced ? layers.traced_latency_ms : layers.untraced_latency_ms)
          .push_back(r.latency_ms);
      // The request's path as the service reports it: queue, then solve.
      const int span = spans.Add("serve.request", r.sent, r.latency_ms, -1, key);
      spans.Add("serve.queue", r.sent, r.result.queue_ms, span, key);
      spans.Add("serve.solve",
                r.sent + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 r.result.queue_ms)),
                r.result.solve_ms, span, key);
      serve.queue_ms.push_back(r.result.queue_ms);
      if (r.result.cache_hit) {
        serve.hit_ms.push_back(r.result.queue_ms + r.result.solve_ms);
      } else if (!r.result.coalesced) {
        serve.solve_ms.push_back(r.result.solve_ms);
        AddStageTimings(r.result.report, layers);
      }
    }
    if (!options.trace) continue;

    // With the service idle: each key's layers from outside, and a few
    // keys re-solved directly at parallelism 1, which must return the
    // plan the service returned.
    for (int k = 0; k < kServeKeys; ++k) {
      qjo::QjoConfig probe_config = config;
      probe_config.run.pool = &pool;
      ProbeLayers(keys[k], probe_config, spans, key_base + k, layers, out);
      if (round == 0 && k < 3) {
        auto again = qjo::OptimizeJoinOrder(keys[k], config);
        const auto it = first_plan.find(key_base + k);
        if (!again.ok() || it == first_plan.end() ||
            !SamePlan(it->second, ClaimOf(*again))) {
          out.Fail("a direct re-solve returned a different plan than the service");
        }
      }
    }
  }
  // A lost request would never let Drain return.
  if (!lost) service.Drain();
  const double peak_rss_mb = PeakRssMb();
  const qjo::OptimizerService::Stats stats = service.stats();
  const qjo::QuboBuildCache::Stats build = service.build_cache()->stats();
  if (stats.solves - stats_before.solves > static_cast<uint64_t>(distinct_keys)) {
    out.Fail("the service solved " + std::to_string(stats.solves - stats_before.solves) +
             " times for " + std::to_string(distinct_keys) + " distinct keys");
  }
  const double plan_cost_ratio = VerifyResponses(responses, out);

  const double factor = host.Factor();
  if (options.trace) {
    const double n = static_cast<double>(rounds.size());
    serve.solves = (stats.solves - stats_before.solves) / n;
    serve.cache_hits = (stats.cache_hits - stats_before.cache_hits) / n;
    serve.coalesced = (stats.coalesced - stats_before.coalesced) / n;
    serve.build_cache_hits = (build.hits - build_before.hits) / n;
    serve.build_cache_misses = (build.misses - build_before.misses) / n;
    for (double& ms : layers.traced_latency_ms) ms *= factor;
    for (double& ms : layers.untraced_latency_ms) ms *= factor;
    AddLayerMetrics(layers, serve, host.MedianMs(), out);
    WriteSpans(spans, options, out);
  } else {
    out.Add("latency_p50_ms", Median(latencies) * factor, "ms");
    out.Add("throughput_rps", 1e3 * latencies.size() / Sum(round_ms) / factor,
            "rps");
    out.Add("plan_cost_ratio", plan_cost_ratio, "x");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("setup_s", setup_ms / 1e3 * factor, "s");
    out.notes.push_back(LatencyNote(latencies, Sum(round_ms) / 1e3,
                                    host.MedianMs(), rounds.size()));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "portfolio_small", "deadline_large", "serve_zipf"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out = options.workload == "serve_zipf" ? RunServe(options)
                                                    : RunDirect(options);
  for (const std::string& failure : SelfTestChecks()) {
    out.Fail("output checks: " + failure);
  }
  return out;
}

}  // namespace perfbench
