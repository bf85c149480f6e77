// Pipeline benchmark driver: runs one workload of the gMark pipeline in
// this process, times every call into a layer's public entry points from
// the outside, checks the outputs, and prints one JSON result line.
//
//   pipeline_bench --workload generate|relational|selectivity
//                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Workloads (see perfbench/README.md for why each was chosen):
//   generate    WD instance built (ParallelGenerateGraph) and streamed as
//               N-triples (ParallelGenerateToSink), four preset query
//               workloads generated and translated into all languages.
//   relational  Bib + Con preset (constant and linear classes) on the
//               P, S and D engines (Fig. 12), serial evaluation, planner on.
//   selectivity Bib + Len/Rec presets counted on ladders of three instance
//               sizes with the serial reference evaluator and the planner,
//               and alpha fitted per query (§6.2, Table 2).
//
// One run = set-up (repeated at least kMinSetupRepeats times and for at
// least kMinSetupSeconds, median reported), one warm-up pass, then at
// least two measured passes over identical inputs, more until --seconds
// have elapsed since the warm-up began.
// Every pass must reproduce the warm-up's results digest. With --trace 1 the
// run alternates untraced and traced passes, writes the Chrome trace to
// --trace-out and reports per-layer metrics; with --trace 0 it reports
// the end-to-end metrics. Every metric is a median over the untraced
// passes. The exit code is non-zero on any failed output check or
// budget-discipline check.
//
// unit_cost_ns, the end-to-end cost metric, is wall time per unit of
// work. Raw times of random query workloads swing several-fold between
// seeds, set by the few heaviest queries. The units are fixed by the
// inputs for any correct program:
//   generate     pass wall time per edge of the instance
//   relational   geometric mean of the wall time of one evaluation (the
//                unit is one query on one engine), as TPC-H's power
//                metric averages query times; no query dominates it
//   selectivity  geometric mean, over the strata preset x instance size,
//                of evaluation wall time per counted result pair

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/alpha_lab.h"
#include "analysis/regression.h"
#include "core/consistency.h"
#include "core/use_cases.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "obs/eval_profile.h"
#include "obs/trace.h"
#include "parallel/parallel_generator.h"
#include "plan/planner.h"
#include "translate/translator.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/parallel_workload.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

namespace {

// Set-up repeats until both floors are met; setup_s is the median.
constexpr int kMinSetupRepeats = 3;
constexpr double kMinSetupSeconds = 1.0;

/// Worker threads for the parallel generation layers: one fewer than the
/// machine's hardware threads, at most 3. Occupying every hardware thread
/// let any other activity on the machine stall one worker and with it the
/// whole parallel section.
int Threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 1, 1, 3);
}

// ------------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// 64-bit digest over 8-byte words (FNV-style multiply with a final
/// avalanche). Fed in deterministic chunks, so equal byte streams give
/// equal digests.
class Digest {
 public:
  void Bytes(const char* data, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, data + i, 8);
      Word(w);
    }
    uint64_t tail = n - i;
    for (; i < n; ++i) {
      tail = (tail << 8) | static_cast<unsigned char>(data[i]);
    }
    Word(tail);
  }
  void Word(uint64_t w) { h_ = (h_ ^ w) * 0x100000001b3ULL; h_ ^= h_ >> 29; }
  void Text(const std::string& s) { Bytes(s.data(), s.size()); }
  uint64_t value() const { return SplitMix64(h_); }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Output stream buffer that counts and digests bytes without touching
/// disk. Full buffers are digested as they overflow, so chunk
/// boundaries depend only on the byte stream.
class DigestBuf : public std::streambuf {
 public:
  DigestBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  uint64_t bytes() const { return bytes_; }
  uint64_t digest() {
    Flush();
    return digest_.value();
  }

 protected:
  int sync() override {
    Flush();
    return 0;
  }
  int_type overflow(int_type c) override {
    Flush();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void Flush() {
    const size_t n = static_cast<size_t>(pptr() - pbase());
    if (n == 0) return;
    digest_.Bytes(pbase(), n);
    bytes_ += n;
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  std::array<char, 1 << 16> buf_{};
  uint64_t bytes_ = 0;
  Digest digest_;
};

/// Driver-side span around one layer call; a no-op when untraced.
Span LayerSpan(Tracer* tracer, const char* layer) {
  if (tracer == nullptr) return Span();
  return tracer->StartSpan(std::string("bench.") + layer, "bench");
}

/// Everything one measured pass produced.
struct Pass {
  double wall_s = 0.0;
  double unit_cost_ns = 0.0;             ///< See the file comment.
  std::map<std::string, double> values;  ///< Per-layer values.
  std::vector<double> latencies;         ///< Per-evaluation seconds.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  std::vector<std::string> errors;  ///< Failed output/budget checks.
};

/// Set-up starts from a built-in use-case configuration and runs the
/// consistency check on it, as `gmark_cli` does before generating.
Result<GraphConfiguration> CheckedConfig(GraphConfiguration config) {
  GMARK_RETURN_NOT_OK(CheckConsistency(config).status());
  return config;
}

/// One workload: set-up builds the inputs, Run executes one pass over
/// them. Passes are independent and must reproduce the same digest.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  virtual void Run(Tracer* tracer, Pass* pass) = 0;
};

/// Every per-layer metric and its unit. All workloads report the full
/// set; a layer that a workload never calls reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"pass_s", "s"},
    {"graph_s", "s"},
    {"export_s", "s"},
    {"workload_s", "s"},
    {"eval_s", "s"},
    {"query_p50_s", "s"},
    {"query_p90_s", "s"},
    {"query.samples", "count"},
    {"failed_frac", "frac"},
    {"alpha_in_class_frac", "frac"},
    {"graph.layout_s", "s"},
    {"graph.generate_s", "s"},
    {"graph.index_s", "s"},
    {"graph.edges", "count"},
    {"graph.edges_per_s", "1/s"},
    {"graph.peak_resident_edge_bytes", "bytes"},
    {"parallel.drain_s", "s"},
    {"graph_io.serialize_s", "s"},
    {"graph_io.bytes", "bytes"},
    {"graph_io.triples", "count"},
    {"workload.generate_s", "s"},
    {"workload.queries", "count"},
    {"workload.skipped", "count"},
    {"translate.s", "s"},
    {"translate.unsupported", "count"},
    {"plan.s", "s"},
    {"plan.qerror_p50", "ratio"},
    {"plan.qerror_max", "ratio"},
    {"engine.P.eval_s", "s"},
    {"engine.P.conjunct_s", "s"},
    {"engine.P.rule_s", "s"},
    {"engine.P.rows_per_result", "ratio"},
    {"engine.S.eval_s", "s"},
    {"engine.S.conjunct_s", "s"},
    {"engine.S.rule_s", "s"},
    {"engine.S.rows_per_result", "ratio"},
    {"engine.D.eval_s", "s"},
    {"engine.D.conjunct_s", "s"},
    {"engine.D.rule_s", "s"},
    {"engine.D.rows_per_result", "ratio"},
    {"engine.peak_tuples_max", "count"},
    {"engine.tuples_scanned", "count"},
    {"engine.tuple_kills", "count"},
    {"engine.time_kills", "count"},
    {"engine.R.bfs_pops", "count"},
    {"engine.R.pops_per_s", "1/s"},
    {"engine.R.bfs_peak_frontier", "count"},
    {"engine.R.pops_per_pair", "ratio"},
    {"obs.trace_overhead_frac", "frac"},
};

using WorkloadFactory =
    std::function<Result<std::unique_ptr<BenchWorkload>>(uint64_t seed)>;

// --------------------------------------------------------- generate

/// WD instance: ~14 edges per node, n = 1M gives ~14M edges.
constexpr int64_t kGenerateNodes = 1000000;
constexpr size_t kGenerateQueriesPerPreset = 1000;

class GenerateWorkload : public BenchWorkload {
 public:
  static Result<std::unique_ptr<BenchWorkload>> Create(uint64_t seed) {
    GMARK_ASSIGN_OR_RETURN(GraphConfiguration config,
                           CheckedConfig(MakeWdConfig(kGenerateNodes, seed)));
    return std::unique_ptr<BenchWorkload>(
        new GenerateWorkload(std::move(config), seed));
  }

  void Run(Tracer* tracer, Pass* pass) override {
    WallTimer pass_timer;
    Digest digest;
    GenerateStats stats;
    size_t num_edges = 0;
    {
      Span span = LayerSpan(tracer, "graph");
      WallTimer timer;
      auto graph = ParallelGenerateGraph(config_, options_, &stats);
      pass->values["graph_s"] = timer.ElapsedSeconds();
      if (!graph.ok()) {
        pass->errors.push_back("graph: " + graph.status().ToString());
        return;
      }
      num_edges = graph->num_edges();
      span.SetAttribute("edges", static_cast<int64_t>(num_edges));
    }
    pass->values["graph.layout_s"] = stats.layout_seconds;
    pass->values["graph.generate_s"] = stats.generate_seconds;
    pass->values["graph.index_s"] = stats.index_seconds;
    pass->values["graph.edges"] = static_cast<double>(num_edges);
    pass->values["graph.edges_per_s"] =
        static_cast<double>(num_edges) / pass->values["graph_s"];
    pass->values["graph.peak_resident_edge_bytes"] =
        static_cast<double>(stats.peak_resident_edge_bytes);

    {
      Span span = LayerSpan(tracer, "export");
      DigestBuf buf;
      std::ostream out(&buf);
      NTriplesSink sink(&out, &config_.schema);
      WallTimer timer;
      Status st = ParallelGenerateToSink(config_, &sink, options_);
      out.flush();
      pass->values["export_s"] = timer.ElapsedSeconds();
      if (!st.ok() || !out) {
        pass->errors.push_back("export: " + st.ToString());
        return;
      }
      pass->values["graph_io.bytes"] = static_cast<double>(buf.bytes());
      pass->values["graph_io.triples"] = static_cast<double>(sink.count());
      if (sink.count() != num_edges) {
        pass->errors.push_back(
            "export: " + std::to_string(sink.count()) +
            " triples, indexed graph has " + std::to_string(num_edges) +
            " edges");
      }
      digest.Word(buf.digest());
    }
    {
      Span span = LayerSpan(tracer, "drain");
      CountingSink sink;
      WallTimer timer;
      Status st = ParallelGenerateToSink(config_, &sink, options_);
      pass->values["parallel.drain_s"] = timer.ElapsedSeconds();
      if (!st.ok() || sink.count() != num_edges) {
        pass->errors.push_back("drain: " + st.ToString() + ", " +
                               std::to_string(sink.count()) + " edges");
      }
    }
    pass->values["graph_io.serialize_s"] =
        pass->values["export_s"] - pass->values["parallel.drain_s"];

    double generate_s = 0.0, translate_s = 0.0;
    uint64_t queries = 0, skipped = 0, unsupported = 0;
    ParallelWorkloadOptions wopts;
    wopts.num_threads = Threads();
    TranslateOptions topts;
    topts.count_distinct = true;
    for (const WorkloadConfiguration& wconfig : presets_) {
      std::optional<gmark::Workload> workload;
      {
        Span span = LayerSpan(tracer, "workload");
        WallTimer timer;
        auto generated = ParallelGenerateWorkload(generator_, wconfig, wopts);
        generate_s += timer.ElapsedSeconds();
        if (!generated.ok()) {
          pass->errors.push_back("workload: " +
                                 generated.status().ToString());
          return;
        }
        workload = std::move(generated).ValueOrDie();
      }
      queries += workload->queries.size();
      skipped += workload->skipped.size();
      pass->attempted += wconfig.num_queries;
      pass->failed += workload->skipped.size();
      digest.Text(workload->ToXml(config_.schema));

      Span span = LayerSpan(tracer, "translate");
      WallTimer timer;
      for (QueryLanguage lang : AllQueryLanguages()) {
        auto translator = MakeTranslator(lang);
        for (const GeneratedQuery& gq : workload->queries) {
          auto text = translator->Translate(gq.query, config_.schema, topts);
          if (text.ok()) {
            digest.Text(*text);
          } else if (text.status().IsUnsupported()) {
            ++unsupported;
          } else {
            pass->errors.push_back("translate: " +
                                   text.status().ToString());
          }
        }
      }
      translate_s += timer.ElapsedSeconds();
    }
    pass->values["workload.generate_s"] = generate_s;
    pass->values["workload.queries"] = static_cast<double>(queries);
    pass->values["workload.skipped"] = static_cast<double>(skipped);
    pass->values["translate.s"] = translate_s;
    pass->values["translate.unsupported"] = static_cast<double>(unsupported);
    pass->values["workload_s"] = generate_s + translate_s;
    pass->unit_cost_ns =
        pass_timer.ElapsedSeconds() * 1e9 / static_cast<double>(num_edges);
    pass->digest = digest.value();
  }

 private:
  GenerateWorkload(GraphConfiguration config, uint64_t seed)
      : config_(std::move(config)), generator_(&config_.schema) {
    options_.num_threads = Threads();
    for (WorkloadPreset preset : AllWorkloadPresets()) {
      presets_.push_back(MakePresetWorkload(
          preset, kGenerateQueriesPerPreset,
          DeriveSeed(seed, 1, static_cast<uint64_t>(preset))));
    }
  }

  GraphConfiguration config_;
  QueryGenerator generator_;
  GeneratorOptions options_;
  std::vector<WorkloadConfiguration> presets_;
};

// -------------------------------------------------------- evaluation

/// Budget discipline shared by the evaluating workloads: a kill whose
/// profile peaked at the tuple ceiling is a tuple kill, anything else
/// ran out of wall clock (as bench/fig12_engines classifies them).
struct KillCounts {
  uint64_t tuple = 0;
  uint64_t time = 0;

  void Classify(const EvalProfile& profile, const ResourceBudget& budget) {
    if (profile.peak_tuples >= budget.max_tuples) {
      ++tuple;
    } else {
      ++time;
    }
  }
};

const char* ClassName(const GeneratedQuery& gq) {
  return gq.target_class.has_value() ? QuerySelectivityName(*gq.target_class)
                                     : "none";
}

/// q-error of one plan step: max(est/actual, actual/est), both clamped
/// to at least one row.
double QError(const PlanStepProfile& step) {
  const double est = std::max(step.est_rows, 1.0);
  const double act = std::max(static_cast<double>(step.actual_rows), 1.0);
  return std::max(est / act, act / est);
}

// ------------------------------------------------------- relational

// Per-query costs are heavy-tailed and depend on the realized instance,
// so the queries are spread over many independent instances.
constexpr int64_t kRelationalNodes = 500;
constexpr int kRelationalInstances = 16;
constexpr size_t kRelationalQueries = 100;  ///< Per instance.

/// The Con preset restricted to the constant and linear classes.
/// Quadratic Con queries join relations of ~n^2 pairs into ~n^3
/// intermediates: on Bib, some exceed 20M charged tuples at any n from
/// 500 to 2000, so a ceiling low enough to bound memory kills them. Over
/// 40 seeds (640 instances) at n = 500, no constant or linear query
/// peaked above 2.3M charged tuples or ran longer than 0.4 s.
WorkloadConfiguration RelationalQueries(uint64_t seed) {
  WorkloadConfiguration config =
      MakePresetWorkload(WorkloadPreset::kCon, kRelationalQueries, seed);
  config.selectivities = {QuerySelectivity::kConstant,
                          QuerySelectivity::kLinear};
  return config;
}

class RelationalWorkload : public BenchWorkload {
 public:
  static Result<std::unique_ptr<BenchWorkload>> Create(uint64_t seed) {
    GMARK_ASSIGN_OR_RETURN(GraphConfiguration config,
                           CheckedConfig(MakeBibConfig(kRelationalNodes, seed)));
    auto w = std::unique_ptr<RelationalWorkload>(
        new RelationalWorkload(std::move(config)));
    QueryGenerator generator(&w->config_.schema);
    for (int i = 0; i < kRelationalInstances; ++i) {
      GraphConfiguration instance = w->config_;
      instance.seed = DeriveSeed(seed, 5, static_cast<uint64_t>(i));
      Instance& in = w->instances_.emplace_back();
      GMARK_ASSIGN_OR_RETURN(in.graph, GenerateGraph(instance));
      GMARK_ASSIGN_OR_RETURN(
          in.workload,
          generator.Generate(
              RelationalQueries(DeriveSeed(seed, 2, static_cast<uint64_t>(i)))));
    }
    return std::unique_ptr<BenchWorkload>(std::move(w));
  }

  void Run(Tracer* tracer, Pass* pass) override {
    static constexpr EngineKind kEngines[] = {
        EngineKind::kRelational, EngineKind::kSparql, EngineKind::kDatalog};
    EvalOptions opts;
    opts.planner = &planner_;
    std::vector<std::unique_ptr<QueryEngine>> engines;
    for (EngineKind kind : kEngines) engines.push_back(MakeEngine(kind, opts));

    Digest digest;
    KillCounts kills;
    double plan_s = 0.0, eval_total = 0.0, log_seconds = 0.0;
    double peak_tuples = 0.0, tuples_scanned = 0.0, pairs = 0.0;
    std::vector<double> qerrors;
    std::map<std::string, double> eval_s, conjunct_s, rows, results;
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Instance& in = instances_[i];
      for (const GeneratedQuery& gq : in.workload->queries) {
        const std::string name = std::to_string(i) + "/" + gq.query.name;
        {
          Span span = LayerSpan(tracer, "plan");
          WallTimer timer;
          QueryPlan plan = planner_.PlanQuery(gq.query, in.graph->layout());
          plan_s += timer.ElapsedSeconds();
        }
        std::vector<std::optional<uint64_t>> counts;
        for (const auto& engine : engines) {
          const std::string code = EngineKindCode(engine->kind());
          EvalProfile profile;
          EvalContext ctx;
          ctx.profile = &profile;
          Span span = LayerSpan(tracer, "eval");
          WallTimer timer;
          auto count = engine->Evaluate(*in.graph, gq.query, budget_, &ctx);
          const double seconds = timer.ElapsedSeconds();
          span.SetAttribute("engine", code);
          span.SetAttribute("query", name);
          span.SetAttribute("class", ClassName(gq));
          span.SetAttribute("size",
                            static_cast<int64_t>(in.graph->num_nodes()));
          span.SetAttribute("status", count.ok() ? "ok" : "killed");
          span.SetAttribute("peak_tuples",
                            static_cast<int64_t>(profile.peak_tuples));
          if (count.ok()) {
            span.SetAttribute("count", static_cast<int64_t>(*count));
          }
          span.End();

          ++pass->attempted;
          pass->latencies.push_back(seconds);
          eval_total += seconds;
          log_seconds += std::log(std::max(seconds, 1e-9));
          eval_s[code] += seconds;
          for (const ConjunctProfile& c : profile.conjuncts) {
            conjunct_s[code] += c.seconds;
            rows[code] += static_cast<double>(c.rows);
          }
          for (const PlanStepProfile& step : profile.plan_steps) {
            if (step.est_rows >= 0.0) qerrors.push_back(QError(step));
          }
          peak_tuples = std::max(peak_tuples,
                                 static_cast<double>(profile.peak_tuples));
          tuples_scanned += static_cast<double>(profile.tuples_scanned);
          if (count.ok()) {
            counts.emplace_back(*count);
            results[code] += static_cast<double>(*count);
            pairs += static_cast<double>(*count);
            digest.Word(*count);
          } else {
            counts.emplace_back();
            ++pass->failed;
            kills.Classify(profile, budget_);
            digest.Word(~0ULL);
          }
        }
        // The engines must agree on every query all of them completed.
        if (std::all_of(counts.begin(), counts.end(),
                        [](const auto& c) { return c.has_value(); }) &&
            !std::all_of(counts.begin(), counts.end(),
                         [&](const auto& c) { return *c == *counts[0]; })) {
          pass->errors.push_back("relational: P/S/D counts differ on " +
                                 name);
        }
      }
    }
    // The queries are chosen so that nothing is killed: a kill means the
    // program regressed.
    if (kills.tuple + kills.time > 0) {
      pass->errors.push_back(
          "relational: " + std::to_string(kills.tuple) + " tuple kill(s), " +
          std::to_string(kills.time) + " time kill(s)");
    }
    if (pairs == 0.0) {
      pass->errors.push_back("relational: no evaluation counted a result");
    }
    pass->values["eval_s"] = eval_total;
    pass->unit_cost_ns =
        std::exp(log_seconds / static_cast<double>(pass->latencies.size())) *
        1e9;
    pass->values["plan.s"] = plan_s;
    pass->values["plan.qerror_p50"] = Quantile(qerrors, 0.5);
    pass->values["plan.qerror_max"] = Quantile(qerrors, 1.0);
    for (EngineKind kind : kEngines) {
      const std::string code = EngineKindCode(kind);
      const std::string prefix = "engine." + code + ".";
      pass->values[prefix + "eval_s"] = eval_s[code];
      pass->values[prefix + "conjunct_s"] = conjunct_s[code];
      pass->values[prefix + "rule_s"] = eval_s[code] - conjunct_s[code];
      pass->values[prefix + "rows_per_result"] =
          rows[code] / std::max(results[code], 1.0);
    }
    pass->values["engine.peak_tuples_max"] = peak_tuples;
    pass->values["engine.tuples_scanned"] = tuples_scanned;
    pass->values["engine.tuple_kills"] = static_cast<double>(kills.tuple);
    pass->values["engine.time_kills"] = static_cast<double>(kills.time);
    pass->digest = digest.value();
  }

 private:
  struct Instance {
    std::optional<Graph> graph;
    std::optional<gmark::Workload> workload;
  };

  explicit RelationalWorkload(GraphConfiguration config)
      : config_(std::move(config)), planner_(&config_.schema) {}

  GraphConfiguration config_;
  Planner planner_;
  std::vector<Instance> instances_;
  /// The §7 budget, set far above every query of the workload so that it
  /// only bounds the damage of a regression.
  const ResourceBudget budget_ = ResourceBudget::Limited(30.0, 20000000);
};

// ------------------------------------------------------ selectivity

// Cost per result shifts by tens of percent with the realized
// instances, so the workload spreads its queries over many independent
// instance ladders to average that out. Evaluation is serial: on a
// shared 4-thread VM, the same pass on a 2- or 3-worker pool varied by
// 10-20% from pass to pass, serially by 1%.
constexpr int kSelectivityLabs = 24;
constexpr size_t kSelectivityQueries = 15;  ///< Per preset and ladder.
constexpr size_t kSelectivityRungs = 3;     ///< Instance sizes per ladder.

/// One preset measured on its own ladder of instance sizes.
struct AlphaSeries {
  WorkloadPreset preset = WorkloadPreset::kLen;
  int ladder = 0;
  std::vector<int64_t> sizes;
  std::optional<AlphaLab> lab;
  std::optional<gmark::Workload> workload;
};

/// Target alpha band of a selectivity class: constant ~0, linear ~1,
/// quadratic ~2 (paper §6.2); the bands split at the midpoints.
bool AlphaInClass(QuerySelectivity cls, double alpha) {
  switch (cls) {
    case QuerySelectivity::kConstant:
      return alpha < 0.5;
    case QuerySelectivity::kLinear:
      return alpha >= 0.5 && alpha < 1.5;
    case QuerySelectivity::kQuadratic:
      return alpha >= 1.5;
  }
  return false;
}

class SelectivityWorkload : public BenchWorkload {
 public:
  static Result<std::unique_ptr<BenchWorkload>> Create(uint64_t seed) {
    GMARK_ASSIGN_OR_RETURN(GraphConfiguration config,
                           CheckedConfig(MakeBibConfig(kLenSizes[0], seed)));
    auto w = std::unique_ptr<SelectivityWorkload>(
        new SelectivityWorkload(std::move(config)));
    QueryGenerator generator(&w->config_.schema);
    for (int lab = 0; lab < kSelectivityLabs; ++lab) {
      GraphConfiguration base = w->config_;
      base.seed = DeriveSeed(seed, 4, static_cast<uint64_t>(lab));
      for (WorkloadPreset preset :
           {WorkloadPreset::kLen, WorkloadPreset::kRec}) {
        AlphaSeries series;
        series.preset = preset;
        series.ladder = lab;
        if (preset == WorkloadPreset::kLen) {
          series.sizes.assign(kLenSizes.begin(), kLenSizes.end());
        } else {
          series.sizes.assign(kRecSizes.begin(), kRecSizes.end());
        }
        GMARK_ASSIGN_OR_RETURN(series.lab,
                               AlphaLab::Create(base, series.sizes));
        GMARK_ASSIGN_OR_RETURN(
            series.workload,
            generator.Generate(MakePresetWorkload(
                preset, kSelectivityQueries,
                DeriveSeed(seed, 3,
                           static_cast<uint64_t>(lab) * 4 +
                               static_cast<uint64_t>(preset)))));
        w->series_.push_back(std::move(series));
      }
    }
    return std::unique_ptr<BenchWorkload>(std::move(w));
  }

  void Run(Tracer* tracer, Pass* pass) override {
    EvalOptions opts;
    opts.planner = &planner_;
    Digest digest;
    KillCounts kills;
    double eval_total = 0.0, pops = 0.0, pairs = 0.0, peak_frontier = 0.0;
    uint64_t fitted = 0, in_class = 0;
    // Seconds and counted pairs per stratum: preset x rung of the ladder.
    std::map<std::pair<WorkloadPreset, size_t>, std::pair<double, double>>
        strata;
    for (const AlphaSeries& series : series_) {
      const std::vector<Graph>& graphs = series.lab->graphs();
      for (const GeneratedQuery& gq : series.workload->queries) {
        std::vector<uint64_t> counts;
        for (size_t rung = 0; rung < graphs.size(); ++rung) {
          const Graph& graph = graphs[rung];
          ReferenceEvaluator evaluator(&graph, opts);
          EvalProfile profile;
          EvalContext ctx;
          ctx.profile = &profile;
          Span span = LayerSpan(tracer, "eval");
          WallTimer timer;
          auto count = evaluator.CountDistinct(gq.query, budget_, &ctx);
          const double seconds = timer.ElapsedSeconds();
          span.SetAttribute("engine", "R");
          span.SetAttribute("query", std::string(WorkloadPresetName(
                                         series.preset)) + "/" +
                                         std::to_string(series.ladder) +
                                         "/" + gq.query.name);
          span.SetAttribute("class", ClassName(gq));
          span.SetAttribute("size", static_cast<int64_t>(graph.num_nodes()));
          span.SetAttribute("status", count.ok() ? "ok" : "killed");
          span.SetAttribute("bfs_pops", static_cast<int64_t>(profile.bfs_pops));
          if (count.ok()) {
            span.SetAttribute("count", static_cast<int64_t>(*count));
          }
          span.End();

          ++pass->attempted;
          pass->latencies.push_back(seconds);
          eval_total += seconds;
          pops += static_cast<double>(profile.bfs_pops);
          peak_frontier = std::max(
              peak_frontier, static_cast<double>(profile.bfs_peak_frontier));
          if (!count.ok()) {
            ++pass->failed;
            kills.Classify(profile, budget_);
            break;
          }
          counts.push_back(*count);
          pairs += static_cast<double>(*count);
          auto& stratum = strata[{series.preset, rung}];
          stratum.first += seconds;
          stratum.second += static_cast<double>(*count);
          digest.Word(*count);
        }
        if (counts.size() != graphs.size() || !gq.target_class.has_value()) {
          continue;
        }
        auto fit = FitPowerLaw(series.lab->realized_sizes(), counts);
        if (!fit.ok()) {
          pass->errors.push_back("selectivity: " + fit.status().ToString());
          continue;
        }
        ++fitted;
        if (AlphaInClass(*gq.target_class, fit->slope)) ++in_class;
      }
    }
    // Every kill makes the alpha table depend on scheduling.
    if (kills.tuple + kills.time > 0) {
      pass->errors.push_back(
          "selectivity: " + std::to_string(kills.tuple) + " tuple kill(s), " +
          std::to_string(kills.time) + " time kill(s)");
    }
    pass->values["eval_s"] = eval_total;
    // Geometric mean over the strata, so that each preset and instance
    // size weighs the same however many pairs its queries count.
    double log_ns_per_pair = 0.0;
    for (const auto& [key, stratum] : strata) {
      if (stratum.second == 0.0) {
        pass->errors.push_back("selectivity: a preset counted no result on "
                               "one instance size");
        continue;
      }
      log_ns_per_pair += std::log(stratum.first * 1e9 / stratum.second);
    }
    if (strata.size() != 2 * kSelectivityRungs) {
      pass->errors.push_back("selectivity: evaluations missing for a preset "
                             "or instance size");
    } else {
      pass->unit_cost_ns =
          std::exp(log_ns_per_pair / static_cast<double>(strata.size()));
    }
    pass->values["alpha_in_class_frac"] =
        static_cast<double>(in_class) /
        static_cast<double>(std::max<uint64_t>(fitted, 1));
    pass->values["engine.R.bfs_pops"] = pops;
    pass->values["engine.R.pops_per_s"] = pops / std::max(eval_total, 1e-9);
    pass->values["engine.R.bfs_peak_frontier"] = peak_frontier;
    pass->values["engine.R.pops_per_pair"] = pops / std::max(pairs, 1.0);
    pass->values["engine.tuple_kills"] = static_cast<double>(kills.tuple);
    pass->values["engine.time_kills"] = static_cast<double>(kills.time);
    pass->digest = digest.value();
  }

 private:
  explicit SelectivityWorkload(GraphConfiguration config)
      : config_(std::move(config)), planner_(&config_.schema) {}

  static constexpr std::array<int64_t, kSelectivityRungs> kLenSizes = {
      3125, 6250, 12500};
  static constexpr std::array<int64_t, kSelectivityRungs> kRecSizes = {
      800, 1600, 3200};

  GraphConfiguration config_;
  Planner planner_;
  std::vector<AlphaSeries> series_;
  /// A 1e9-tuple ceiling is never reached here, so any kill means the
  /// program regressed.
  const ResourceBudget budget_ = ResourceBudget::Limited(60.0, 1000000000);
};

// ------------------------------------------------------------- driver

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "pipeline_trace.json";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      auto v = ParseInt(value);
      if (!v.ok() || *v < 0) return std::nullopt;
      args.seed = static_cast<uint64_t>(*v);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;
  return args;
}

std::optional<WorkloadFactory> FactoryFor(const std::string& name) {
  if (name == "generate") return WorkloadFactory(GenerateWorkload::Create);
  if (name == "relational") return WorkloadFactory(RelationalWorkload::Create);
  if (name == "selectivity") {
    return WorkloadFactory(SelectivityWorkload::Create);
  }
  return std::nullopt;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  std::optional<WorkloadFactory> factory;
  if (args) factory = FactoryFor(args->workload);
  if (!args || !factory) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload generate|relational|"
                 "selectivity --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }

  // Set-up, repeated so its median is steady; the last copy is measured.
  // Traced runs set up once more under the tracer, untimed.
  std::unique_ptr<BenchWorkload> workload;
  Tracer tracer;
  std::vector<double> setup_times;
  auto set_up = [&](Tracer* trace_to) {
    workload.reset();
    std::optional<ScopedGlobalTracer> scoped;
    if (trace_to != nullptr) scoped.emplace(trace_to);
    Span span = LayerSpan(trace_to, "setup");
    WallTimer timer;
    auto created = (*factory)(args->seed);
    if (trace_to == nullptr) setup_times.push_back(timer.ElapsedSeconds());
    if (!created.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   created.status().ToString().c_str());
      return false;
    }
    workload = std::move(created).ValueOrDie();
    return true;
  };
  WallTimer setup_timer;
  while (static_cast<int>(setup_times.size()) < kMinSetupRepeats ||
         setup_timer.ElapsedSeconds() < kMinSetupSeconds) {
    if (!set_up(nullptr)) return 1;
  }
  if (args->trace && !set_up(&tracer)) return 1;

  // One warm-up pass (checked, not measured; first passes ran up to 30%
  // slower), then measured passes. Traced runs alternate untraced and
  // traced passes so both see the same machine state.
  std::vector<Pass> passes;
  auto is_traced = [&](size_t i) { return args->trace && i > 0 && i % 2 == 0; };
  std::vector<double> untraced_walls, traced_walls;
  WallTimer run_timer;
  while (untraced_walls.size() < 2 ||
         run_timer.ElapsedSeconds() < args->seconds ||
         (args->trace && traced_walls.empty())) {
    const bool traced = is_traced(passes.size());
    Pass pass;
    {
      std::optional<ScopedGlobalTracer> scoped;
      if (traced) scoped.emplace(&tracer);
      Span span = LayerSpan(traced ? &tracer : nullptr, "pass");
      WallTimer timer;
      workload->Run(traced ? &tracer : nullptr, &pass);
      pass.wall_s = timer.ElapsedSeconds();
    }
    if (!passes.empty()) {
      (traced ? traced_walls : untraced_walls).push_back(pass.wall_s);
    }
    std::fprintf(stderr,
                 "pass %zu%s: %.3f s, unit cost %.3f ns, digest %016llx\n",
                 passes.size(),
                 passes.empty() ? " (warm-up)" : traced ? " (traced)" : "",
                 pass.wall_s, pass.unit_cost_ns,
                 static_cast<unsigned long long>(pass.digest));
    passes.push_back(std::move(pass));
  }

  // Output checks: every pass clean and reproducing the warm-up's digest.
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (Pass& pass : passes) {
    for (const std::string& error : pass.errors) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
      correct = false;
    }
    if (pass.digest != passes[0].digest) {
      std::fprintf(stderr, "CHECK FAILED: results digest differs between "
                           "passes over the same inputs\n");
      correct = false;
    }
    attempted += pass.attempted;
    failed += pass.failed;
    pass.values["pass_s"] = pass.wall_s;
    pass.values["query_p50_s"] = Quantile(pass.latencies, 0.5);
    pass.values["query_p90_s"] = Quantile(pass.latencies, 0.9);
    pass.values["query.samples"] = static_cast<double>(pass.latencies.size());
    pass.values["failed_frac"] =
        static_cast<double>(pass.failed) /
        static_cast<double>(std::max<uint64_t>(pass.attempted, 1));
  }

  // Every metric is the median over the measured untraced passes.
  std::vector<const Pass*> untraced;
  for (size_t i = 1; i < passes.size(); ++i) {
    if (!is_traced(i)) untraced.push_back(&passes[i]);
  }
  auto median_of = [&](auto&& get) {
    std::vector<double> values;
    for (const Pass* pass : untraced) values.push_back(get(*pass));
    return Median(values);
  };
  std::map<std::string, std::pair<double, std::string>> metrics;
  if (!args->trace) {
    metrics["setup_s"] = {Median(setup_times), "s"};
    metrics["unit_cost_ns"] = {
        median_of([](const Pass& p) { return p.unit_cost_ns; }), "ns"};
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics[name] = {median_of([&](const Pass& p) {
                         auto it = p.values.find(name);
                         return it == p.values.end() ? 0.0 : it->second;
                       }),
                       unit};
    }
    metrics["obs.trace_overhead_frac"].first =
        Median(traced_walls) / Median(untraced_walls) - 1.0;
    // On relational the peak is set by the seed's heaviest query, so it
    // spreads too much across seeds to bound as an end-to-end metric.
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    std::ofstream out(args->trace_out);
    Status st = tracer.WriteChromeTrace(out);
    out.close();
    if (!st.ok() || !out) {
      std::fprintf(stderr, "cannot write trace %s\n", args->trace_out.c_str());
      correct = false;
    }
  }

  std::printf("digest %016llx seed %llu workload %s passes %zu\n",
              static_cast<unsigned long long>(passes[0].digest),
              static_cast<unsigned long long>(args->seed),
              args->workload.c_str(), passes.size());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.first) +
            ", \"unit\": \"" + metric.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
