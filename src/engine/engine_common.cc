#include "engine/engine_common.h"

#include <span>

#include "engine/relation.h"
#include "obs/eval_profile.h"
#include "plan/planner.h"

namespace gmark {

namespace {

/// The base relation of a closure indexed by source, by counting sort:
/// the targets of source s are targets[offsets[s] .. offsets[s + 1]),
/// in the base's order.
struct SourceIndex {
  std::vector<size_t> offsets;
  std::vector<NodeId> targets;

  std::span<const NodeId> TargetsOf(NodeId source) const {
    return {targets.data() + offsets[source],
            targets.data() + offsets[source + 1]};
  }
};

Result<SourceIndex> IndexBySource(const NodePairs& base, NodeId n) {
  SourceIndex index;
  index.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& [s, t] : base) {
    if (s >= n || t >= n) {
      return Status::InvalidArgument("closure base pair outside the graph");
    }
    ++index.offsets[s + 1];
  }
  for (size_t v = 0; v < n; ++v) index.offsets[v + 1] += index.offsets[v];
  index.targets.resize(base.size());
  std::vector<size_t> fill(index.offsets.begin(), index.offsets.end() - 1);
  for (const auto& [s, t] : base) index.targets[fill[s]++] = t;
  return index;
}

/// The closures' shared start: the reflexive pairs (v, v) for every
/// node, charged in one piece and entered in `known`.
Status SeedReflexive(NodeId n, PairSet* known, NodePairs* result,
                     TupleCharge* charge) {
  for (NodeId v = 0; v < n; ++v) {
    known->Insert(PackPair(v, v));
    result->emplace_back(v, v);
  }
  return charge->Charge(result->size());
}

}  // namespace

Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget) {
  if (path.empty()) {
    return Status::InvalidArgument("cannot compose an empty path");
  }
  if (set_semantics) {
    GMARK_RETURN_NOT_OK(CheckPairKeysFit(graph.num_nodes()));
  }
  PeriodicTimeCheck clock(budget);
  // The first symbol's edges, scanned over the forward CSR in place.
  const Symbol& first = path[0];
  NodePairs current;
  current.reserve(graph.EdgeCount(first.predicate));
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t : graph.OutNeighbors(first.predicate, s)) {
      GMARK_RETURN_NOT_OK(clock.Check());
      if (first.inverse) {
        current.emplace_back(t, s);
      } else {
        current.emplace_back(s, t);
      }
    }
  }
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(current.size()));
  PairSet seen;
  for (size_t i = 1; i < path.size(); ++i) {
    const Symbol& sym = path[i];
    NodePairs next;
    TupleCharge next_charge(budget);
    if (set_semantics) seen.Reset(current.size());
    for (const auto& [x, mid] : current) {
      GMARK_RETURN_NOT_OK(clock.Check());
      auto neighbors = sym.inverse ? graph.InNeighbors(sym.predicate, mid)
                                   : graph.OutNeighbors(sym.predicate, mid);
      for (NodeId w : neighbors) {
        GMARK_RETURN_NOT_OK(clock.Check());
        if (set_semantics && !seen.Insert(PackPair(x, w))) continue;
        GMARK_RETURN_NOT_OK(next_charge.Charge(1));
        next.emplace_back(x, w);
      }
    }
    // Both step relations are live until here; the move-assign below
    // releases the step we just consumed only after its successor was
    // fully charged (the PR 5 lifetime rule).
    current = std::move(next);
    charge = std::move(next_charge);
  }
  return ChargedPairs(std::move(current), std::move(charge));
}

Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget) {
  NodePairs base;
  for (const PathExpr& path : expr.disjuncts) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedPairs part,
        ComposePathPairs(graph, path, set_semantics, budget));
    if (base.empty()) {
      base = std::move(part.value);
    } else {
      base.insert(base.end(), part.value.begin(), part.value.end());
    }
    // part's guard releases its charge here; the accumulating union is
    // charged once below, after deduplication.
  }
  // UNION (not UNION ALL): disjunction is set-oriented in every dialect.
  DedupPairs(&base);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(base.size()));
  return ChargedPairs(std::move(base), std::move(charge));
}

Result<ChargedPairs> ClosureNaive(const Graph& graph, const NodePairs& base,
                                  BudgetTracker* budget, uint64_t* rounds) {
  GMARK_RETURN_NOT_OK(CheckPairKeysFit(graph.num_nodes()));
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  GMARK_ASSIGN_OR_RETURN(SourceIndex index, IndexBySource(base, n));
  PairSet known(static_cast<size_t>(n) + base.size());
  NodePairs result;
  TupleCharge charge(budget);
  result.reserve(static_cast<size_t>(n) + base.size());
  GMARK_RETURN_NOT_OK(SeedReflexive(n, &known, &result, &charge));

  // One clock read per ~4096 scanned rows, counted across rounds: a
  // round rescans the whole relation, so a per-round check alone would
  // let one round overshoot the deadline by its full length.
  PeriodicTimeCheck time_check(budget);
  bool grew = true;
  while (grew) {
    grew = false;
    if (rounds != nullptr) ++*rounds;
    // Naive: rescan the ENTIRE accumulated relation every round.
    budget->ChargeScan(result.size());
    NodePairs additions;
    for (const auto& [x, mid] : result) {
      GMARK_RETURN_NOT_OK(time_check.Check());
      for (NodeId t : index.TargetsOf(mid)) {
        if (known.Insert(PackPair(x, t))) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          additions.emplace_back(x, t);
        }
      }
    }
    if (!additions.empty()) {
      grew = true;
      result.insert(result.end(), additions.begin(), additions.end());
    }
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Result<ChargedPairs> ClosureSemiNaive(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget,
                                      uint64_t* rounds) {
  GMARK_RETURN_NOT_OK(CheckPairKeysFit(graph.num_nodes()));
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  GMARK_ASSIGN_OR_RETURN(SourceIndex index, IndexBySource(base, n));
  PairSet known(static_cast<size_t>(n) + base.size());
  NodePairs result;
  TupleCharge charge(budget);
  result.reserve(static_cast<size_t>(n) + base.size());
  GMARK_RETURN_NOT_OK(SeedReflexive(n, &known, &result, &charge));

  // Seed the delta with the base (paths of length exactly 1).
  NodePairs delta;
  for (const auto& [s, t] : base) {
    if (known.Insert(PackPair(s, t))) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      delta.emplace_back(s, t);
      result.emplace_back(s, t);
    }
  }
  PeriodicTimeCheck time_check(budget);  // As in ClosureNaive.
  while (!delta.empty()) {
    if (rounds != nullptr) ++*rounds;
    NodePairs next_delta;
    // Semi-naive: only the delta is extended.
    budget->ChargeScan(delta.size());
    for (const auto& [x, mid] : delta) {
      GMARK_RETURN_NOT_OK(time_check.Check());
      for (NodeId t : index.TargetsOf(mid)) {
        if (known.Insert(PackPair(x, t))) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          next_delta.emplace_back(x, t);
          result.emplace_back(x, t);
        }
      }
    }
    delta = std::move(next_delta);
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Result<ChargedPairs> EvaluateConjunctPairs(const Graph& graph,
                                           const Conjunct& conjunct,
                                           bool set_semantics,
                                           ClosureKind closure,
                                           BudgetTracker* budget,
                                           EvalProfile* profile,
                                           size_t conjunct_index) {
  GMARK_ASSIGN_OR_RETURN(
      ChargedPairs base,
      RegexBasePairs(graph, conjunct.expr, set_semantics, budget));
  if (!conjunct.expr.star) return base;
  // The base relation stays charged until the closure exists, then
  // releases with `base` on return (hand-paired code used to leak it).
  uint64_t rounds = 0;
  Result<ChargedPairs> closed =
      closure == ClosureKind::kSemiNaive
          ? ClosureSemiNaive(graph, base.value, budget, &rounds)
          : ClosureNaive(graph, base.value, budget, &rounds);
  if (profile != nullptr) {
    profile->Conjunct(conjunct_index).fixpoint_rounds += rounds;
    profile->fixpoint_rounds += rounds;
  }
  return closed;
}

QueryPlan PlanOrIdentity(const EvalOptions& opts, const Graph& graph,
                         const Query& query) {
  if (opts.planner != nullptr) {
    return opts.planner->PlanQuery(query, graph.layout());
  }
  return QueryPlan::Identity(query);
}

Status CheckPairKeysFit(int64_t num_nodes) {
  if (num_nodes >= (int64_t{1} << 32)) {
    return Status::InvalidArgument(
        "node ids exceed the 32 bits of a packed pair key");
  }
  return Status::OK();
}

Status CheckEdgeKeysFit(size_t predicate_count, int64_t num_nodes) {
  if (predicate_count == 0 || num_nodes <= 0) return Status::OK();
  const uint64_t n = static_cast<uint64_t>(num_nodes);
  // The largest key: (last predicate * n + last node) * n + last node.
  uint64_t key = predicate_count - 1;
  if (__builtin_mul_overflow(key, n, &key) ||
      __builtin_add_overflow(key, n - 1, &key) ||
      __builtin_mul_overflow(key, n, &key) ||
      __builtin_add_overflow(key, n - 1, &key)) {
    return Status::InvalidArgument(
        "predicate and node counts overflow a 64-bit edge key");
  }
  return Status::OK();
}

}  // namespace gmark
