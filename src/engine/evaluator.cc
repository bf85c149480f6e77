#include "engine/evaluator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "engine/engine_common.h"
#include "engine/eval_scratch.h"
#include "obs/metrics.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"
#include "selectivity/estimator.h"  // AsChain

namespace gmark {

namespace {

/// Sources one product-graph search walks at once: one bit of a
/// ProductMasks word each.
constexpr size_t kBatchSources = 64;

/// Population count. std::popcount becomes a library call on baseline
/// x86-64 builds (no popcnt instruction), once per set of fresh bits.
inline uint64_t BitCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

/// Flushes chunk-local search statistics into the chunk's stats shard
/// (merged into the profile later, in chunk order) on every exit path —
/// a query killed by its budget mid-traversal is exactly the one whose
/// statistics must survive to explain the kill.
struct BfsShardFlush {
  BfsStatsShard* shard;
  const uint64_t* pops;
  const uint64_t* peak_frontier;

  ~BfsShardFlush() {
    shard->pops += *pops;
    if (*peak_frontier > shard->peak_frontier) {
      shard->peak_frontier = *peak_frontier;
    }
  }
};

/// The batch partition of one evaluation, fixed by the input alone: the
/// starting sources (nodes with an edge matching a transition out of
/// the NFA's start state) in id order, cut into consecutive runs of
/// kBatchSources. Batch b also owns the node-id range from its first
/// source up to the next batch's first source (batch 0 from id 0, the
/// last batch up to n), so the batches' id ranges tile [0, n) and the
/// non-starting sources an epsilon NFA accepts are charged in place.
struct SourceBatches {
  std::vector<NodeId> starts;
  size_t n = 0;

  /// One batch per kBatchSources starting sources; a graph with nodes
  /// but no starting source still has one (search-free) batch, whose
  /// range carries the epsilon pairs.
  size_t count() const {
    if (n == 0) return 0;
    return std::max<size_t>(1, (starts.size() + kBatchSources - 1) /
                                   kBatchSources);
  }
  size_t first_source(size_t b) const { return b * kBatchSources; }
  size_t width(size_t b) const {
    const size_t first = first_source(b);
    return first >= starts.size()
               ? 0
               : std::min(kBatchSources, starts.size() - first);
  }
  size_t id_begin(size_t b) const {
    return b == 0 ? 0 : static_cast<size_t>(starts[first_source(b)]);
  }
  size_t id_end(size_t b) const {
    return b + 1 < count() ? id_begin(b + 1) : n;
  }
};

SourceBatches ListStartingSources(const Graph& graph, const Nfa& nfa) {
  SourceBatches batches;
  batches.n = static_cast<size_t>(graph.num_nodes());
  const auto start_transitions = nfa.TransitionsFrom(nfa.start());
  for (size_t v = 0; v < batches.n; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    for (const NfaTransition& t : start_transitions) {
      const auto neighbors =
          t.symbol.inverse ? graph.InNeighbors(t.symbol.predicate, node)
                           : graph.OutNeighbors(t.symbol.predicate, node);
      if (!neighbors.empty()) {
        batches.starts.push_back(node);
        break;
      }
    }
  }
  return batches;
}

/// One chunk's private output: its sources' accepted-pair count (and
/// the pairs themselves when materializing), its search statistics, and
/// the tuple charge it left parked on its worker tracker. Written by
/// exactly one task; read by the merging thread after Executor::Wait().
struct SourceChunk {
  uint64_t count = 0;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  BfsStatsShard stats;
  size_t charged = 0;
};

/// Multi-source search of one batch (MS-BFS, Then et al., VLDB 2014):
/// the batch's sources start as bits of their seed states' masks, and a
/// popped state sends its pending bits along every NFA transition,
/// keeping only the bits each successor has not seen. On return every
/// (source, product state) pair the per-source search would visit is a
/// set bit of `seen`, and scratch.accepted lists the nodes whose accept
/// state any source reached. `pops` grows by one per set bit, so it
/// counts (source, product state) visits.
Status SearchBatch(const Graph& graph, const Nfa& nfa, const NodeId* sources,
                   size_t width, EvalScratch& scratch,
                   PeriodicTimeCheck& time_check, uint64_t* pops,
                   uint64_t* peak_frontier) {
  const uint64_t k = nfa.state_count();
  const uint32_t accept = nfa.accept();
  std::vector<ProductMasks>& masks = scratch.masks;
  for (size_t b = 0; b < width; ++b) {
    const uint64_t seed = sources[b] * k + nfa.start();
    masks[seed] = ProductMasks{uint64_t{1} << b, uint64_t{1} << b};
    scratch.touched.push_back(seed);
    scratch.level.push_back(seed);
    if (nfa.start() == accept) scratch.accepted.push_back(sources[b]);
  }
  *pops += width;
  while (!scratch.level.empty()) {
    *peak_frontier = std::max<uint64_t>(*peak_frontier, scratch.level.size());
    for (const uint64_t packed : scratch.level) {
      GMARK_RETURN_NOT_OK(time_check.Check());
      const uint64_t m = masks[packed].pending;
      masks[packed].pending = 0;
      const NodeId u = packed / k;
      const uint32_t q = static_cast<uint32_t>(packed - u * k);
      for (const NfaTransition& t : nfa.TransitionsFrom(q)) {
        auto neighbors = t.symbol.inverse
                             ? graph.InNeighbors(t.symbol.predicate, u)
                             : graph.OutNeighbors(t.symbol.predicate, u);
        for (NodeId w : neighbors) {
          const uint64_t next = w * k + t.to;
          ProductMasks& target = masks[next];
          const uint64_t fresh = m & ~target.seen;
          if (fresh == 0) continue;
          if (target.seen == 0) {
            scratch.touched.push_back(next);
            if (t.to == accept) scratch.accepted.push_back(w);
          }
          target.seen |= fresh;
          *pops += BitCount(fresh);
          if (target.pending == 0) scratch.next_level.push_back(next);
          target.pending |= fresh;
        }
      }
    }
    scratch.level.swap(scratch.next_level);
    scratch.next_level.clear();
  }
  return Status::OK();
}

/// Evaluates batches [batch_begin, batch_end) against `nfa`, charging
/// each source's accepted targets on `budget` (the chunk's tracker) in
/// source-id order once its batch's search is done: a starting source
/// its target count, a non-starting source the one epsilon pair when
/// the NFA accepts the empty word. That is the per-source search's
/// exact Charge sequence. On success the accumulated charge is disarmed
/// into out->charged — it stays on the tracker so the cross-chunk peak
/// reproduces the serial evaluator's — and the caller re-guards it
/// after the budget fold. On failure the chunk's own guard releases its
/// charge before returning; statistics reach out->stats on every exit
/// path.
Status RunBatches(const Graph& graph, const Nfa& nfa,
                  const SourceBatches& batches, size_t batch_begin,
                  size_t batch_end, bool materialize, EvalScratch& scratch,
                  BudgetTracker* budget, SourceChunk* out) {
  const uint64_t k = nfa.state_count();
  const uint32_t accept = nfa.accept();
  const bool epsilon = nfa.AcceptsEpsilon();
  if (!batches.starts.empty()) scratch.Prepare(batches.n, k);

  TupleCharge charge(budget);
  // Amortized wall-clock enforcement inside the search: one clock read
  // per ~4096 worklist pops, plus one per batch. One checker per chunk —
  // time checkers are single-owner like the trackers they wrap.
  PeriodicTimeCheck time_check(budget);
  // Profile statistics accumulate in locals and flush once on scope
  // exit, so a null or live profile costs the search loop nothing.
  uint64_t pops = 0;
  uint64_t peak_frontier = 0;
  BfsShardFlush flush{&out->stats, &pops, &peak_frontier};

  uint64_t counts[kBatchSources];
  size_t offsets[kBatchSources];
  for (size_t bi = batch_begin; bi < batch_end; ++bi) {
    const size_t width = batches.width(bi);
    const NodeId* sources = batches.starts.data() + batches.first_source(bi);
    GMARK_RETURN_NOT_OK(SearchBatch(graph, nfa, sources, width, scratch,
                                    time_check, &pops, &peak_frontier));
    GMARK_RETURN_NOT_OK(budget->CheckTime());

    std::fill(counts, counts + width, 0);
    for (NodeId u : scratch.accepted) {
      for (uint64_t m = scratch.masks[u * k + accept].seen; m != 0;
           m &= m - 1) {
        ++counts[std::countr_zero(m)];
      }
    }
    // Charge every source of the batch's id range in id order, and lay
    // out its pairs: a non-starting source's one slot already holds its
    // epsilon pair, a starting source's slots are filled below.
    size_t bit = 0;
    for (size_t id = batches.id_begin(bi); id < batches.id_end(bi); ++id) {
      uint64_t targets = 1;
      if (bit < width && sources[bit] == id) {
        offsets[bit] = out->pairs.size();
        targets = counts[bit++];
      } else if (!epsilon) {
        continue;
      }
      out->count += targets;
      GMARK_RETURN_NOT_OK(charge.Charge(targets));
      if (materialize) {
        out->pairs.resize(out->pairs.size() + targets, {id, id});
      }
    }
    if (materialize) {
      // Within a source, targets come out in ascending node id: the
      // accepted nodes are marked in a bitset and read back in word
      // order, over the marked words only — linear, where a per-batch
      // sort made small-output calls ~30% slower.
      std::vector<uint64_t>& marks = scratch.accepted_marks;
      size_t lo = SIZE_MAX, hi = 0;  // Empty until a node is marked.
      for (NodeId u : scratch.accepted) {
        marks[u >> 6] |= uint64_t{1} << (u & 63);
        lo = std::min<size_t>(lo, u >> 6);
        hi = std::max<size_t>(hi, u >> 6);
      }
      for (size_t w = lo; w <= hi; ++w) {
        for (uint64_t word = std::exchange(marks[w], 0); word != 0;
             word &= word - 1) {
          const NodeId u = w * 64 + std::countr_zero(word);
          for (uint64_t m = scratch.masks[u * k + accept].seen; m != 0;
               m &= m - 1) {
            const int b = std::countr_zero(m);
            out->pairs[offsets[b]++] = {sources[b], u};
          }
        }
      }
    }
    scratch.Reset();
  }
  out->charged = charge.Disarm();
  return Status::OK();
}

/// Post-merge metric update, main thread only — the hot loops touch no
/// registry; one registration lookup per query is noise.
void RecordEvalMetrics(uint64_t sources, size_t chunks,
                       const BfsStatsShard& stats) {
  MetricRegistry* metrics = GlobalMetrics();
  if (metrics == nullptr) return;
  metrics->Add(metrics->Counter("eval.sources"), sources);
  metrics->Add(metrics->Counter("eval.chunks"), chunks);
  metrics->Add(metrics->Counter("eval.bfs_pops"), stats.pops);
  metrics->GaugeMax(metrics->Gauge("eval.peak_frontier"),
                    stats.peak_frontier);
}

/// Merged result of ForEachSource: the total accepted-pair
/// count, the pairs in source order (when materializing), and the guard
/// over every tuple still charged on the caller's tracker.
struct MergedSources {
  uint64_t count = 0;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  TupleCharge charge;
};

/// Shared body of CountPairs/MaterializePairs: runs every batch
/// of sources through the multi-source search, serially or chunked over
/// opts.executor. Chunks cover whole batches, so batch contents — and
/// with them every count, pair, charge and statistic — do not depend on
/// the chunking. Chunk results merge in source order and per-worker
/// budget charges fold deterministically, so the returned value — and
/// the tracker/profile accounting on the success path — is identical at
/// any thread or chunk count.
Result<MergedSources> ForEachSource(const Graph& graph, const Nfa& nfa,
                                    const EvalOptions& opts, bool materialize,
                                    BudgetTracker* budget,
                                    EvalProfile* profile) {
  const SourceBatches batches = ListStartingSources(graph, nfa);
  const size_t num_batches = batches.count();

  const int workers = opts.executor != nullptr ? opts.executor->workers() : 1;
  size_t chunk_batches =
      (opts.chunk_sources + kBatchSources - 1) / kBatchSources;
  if (chunk_batches == 0) {
    // Several chunks per worker so one dense chunk cannot serialize the
    // tail. Chunking never affects results, only load balance.
    chunk_batches = std::max<size_t>(
        1, num_batches / (8 * static_cast<size_t>(workers)));
  }
  const size_t num_chunks = (num_batches + chunk_batches - 1) / chunk_batches;

  MergedSources merged;
  if (workers <= 1 || num_chunks <= 1) {
    EvalScratch scratch;
    SourceChunk out;
    Status st = RunBatches(graph, nfa, batches, 0, num_batches, materialize,
                           scratch, budget, &out);
    if (profile != nullptr) profile->AddBfs(out.stats);
    RecordEvalMetrics(batches.n, num_chunks, out.stats);
    GMARK_RETURN_NOT_OK(st);
    merged.count = out.count;
    merged.pairs = std::move(out.pairs);
    merged.charge = TupleCharge::Assume(budget, out.charged);
    return merged;
  }

  // Parallel: one task per chunk; each task charges the tracker of the
  // worker it lands on (ThreadPool::CurrentWorkerId(): pool workers are
  // 1..workers, so the scope holds workers+1 trackers) and reuses that
  // worker's scratch. Chunks are independent, so results depend only on
  // the batch partition — never on scheduling.
  ConcurrentBudgetScope scope(budget, workers + 1);
  std::vector<SourceChunk> chunks(num_chunks);
  std::vector<EvalScratch> scratch(static_cast<size_t>(workers) + 1);
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    opts.executor->Submit([&, ci, chunk_batches] {
      const int wid = ThreadPool::CurrentWorkerId();
      const size_t begin = ci * chunk_batches;
      const size_t end = std::min(num_batches, begin + chunk_batches);
      Status st = RunBatches(graph, nfa, batches, begin, end, materialize,
                             scratch[static_cast<size_t>(wid)],
                             &scope.worker(wid), &chunks[ci]);
      if (!st.ok()) scope.ReportFailure(ci, std::move(st));
    });
  }
  opts.executor->Wait();

  // Fold the per-worker accounting into the base tracker and re-guard
  // the surviving charges there; if the section failed, destroying the
  // guard on return releases them, restoring the pre-call balance
  // exactly as the serial unwind does.
  const size_t outstanding = scope.Fold();
  merged.charge = TupleCharge::Assume(budget, outstanding);

  BfsStatsShard stats;
  for (const SourceChunk& c : chunks) stats.Merge(c.stats);
  if (profile != nullptr) profile->AddBfs(stats);
  RecordEvalMetrics(batches.n, num_chunks, stats);
  GMARK_RETURN_NOT_OK(scope.first_failure());

  if (materialize) {
    size_t total = 0;
    for (const SourceChunk& c : chunks) total += c.pairs.size();
    merged.pairs.reserve(total);
  }
  for (SourceChunk& c : chunks) {
    merged.count += c.count;
    if (materialize) {
      merged.pairs.insert(merged.pairs.end(), c.pairs.begin(), c.pairs.end());
      // Free each chunk's copy as it merges: the charged tuple count
      // covers one live copy, and bounding the transient duplication to
      // a single chunk keeps the physical footprint honest to it.
      std::vector<std::pair<NodeId, NodeId>>().swap(c.pairs);
    }
  }
  return merged;
}

}  // namespace

Result<uint64_t> RpqEvaluator::CountPairs(const Nfa& nfa,
                                          BudgetTracker* budget,
                                          EvalProfile* profile) const {
  // Counting still holds every accepted pair against the budget (the
  // paper's engines would); only the count survives the function, so
  // the merged guard releases the whole charge on return.
  GMARK_ASSIGN_OR_RETURN(
      MergedSources merged,
      ForEachSource(*graph_, nfa, opts_, /*materialize=*/false, budget,
                    profile));
  return merged.count;
}

Result<Charged<std::vector<std::pair<NodeId, NodeId>>>>
RpqEvaluator::MaterializePairs(const Nfa& nfa, BudgetTracker* budget,
                               EvalProfile* profile) const {
  GMARK_ASSIGN_OR_RETURN(
      MergedSources merged,
      ForEachSource(*graph_, nfa, opts_, /*materialize=*/true, budget,
                    profile));
  return Charged<std::vector<std::pair<NodeId, NodeId>>>(
      std::move(merged.pairs), std::move(merged.charge));
}

Result<ChargedRelation> ReferenceEvaluator::EvaluateRuleJoin(
    const QueryRule& rule, BudgetTracker* budget, EvalContext* ctx,
    const RulePlan* plan, size_t conjunct_offset, size_t step_offset) const {
  EvalProfile* profile = ctx != nullptr ? ctx->profile : nullptr;
  // Callers without a plan (tests using this as an oracle) execute the
  // identity plan — the same code path, written order, forward.
  RulePlan identity;
  if (plan == nullptr) {
    identity.steps.resize(rule.body.size());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      identity.steps[i].conjunct = static_cast<uint32_t>(i);
    }
    plan = &identity;
  }
  ChargedRelation acc;
  bool first = true;
  for (size_t pos = 0; pos < plan->steps.size(); ++pos) {
    const PlanStep& step = plan->steps[pos];
    // The shared direction resolution: backward steps arrive endpoint-
    // swapped and regex-reversed, so the NFA below IS the plan's
    // traversal direction and the join logic never branches on it.
    const Conjunct c = EffectiveConjunct(rule.body[step.conjunct], step);
    const size_t ci = conjunct_offset + step.conjunct;
    WallTimer conjunct_timer;
    GMARK_ASSIGN_OR_RETURN(Nfa nfa, Nfa::FromRegex(c.expr));
    ChargedRelation rel;
    {
      GMARK_ASSIGN_OR_RETURN(auto pairs,
                             rpq_.MaterializePairs(nfa, budget, profile));
      // The relation copy lives alongside the pair vector until the
      // scope closes: ChargeRelation charges it for its lifetime, and
      // the pair vector's share releases only when `pairs` dies at the
      // end of this scope. Releasing before the copy was charged
      // under-counted the live peak ~2x (the PR 5 bug).
      GMARK_ASSIGN_OR_RETURN(
          rel, ChargeRelation(
                   VarRelation::FromPairs(c.source, c.target, pairs.value),
                   budget));
    }
    // The conjunct's time ends here: the join below is rule time.
    const double conjunct_seconds =
        profile != nullptr ? conjunct_timer.ElapsedSeconds() : 0.0;
    const size_t conjunct_rows = rel.value.row_count();
    if (first) {
      acc = std::move(rel);
      first = false;
    } else {
      // Both join inputs stay charged until the join output exists;
      // the move-assign releases the replaced acc, and rel releases at
      // the end of the iteration.
      GMARK_ASSIGN_OR_RETURN(ChargedRelation joined,
                             HashJoin(acc.value, rel.value, budget));
      acc = std::move(joined);
    }
    if (profile != nullptr) {
      ConjunctProfile& cp = profile->Conjunct(ci);
      cp.rows += conjunct_rows;
      cp.seconds += conjunct_seconds;
      profile->RecordPlanStepRows(step_offset + pos, conjunct_rows);
    }
  }
  GMARK_ASSIGN_OR_RETURN(ChargedRelation projected,
                         ProjectDistinct(acc.value, rule.head, budget));
  return projected;  // acc releases after `projected` moves out.
}

Result<uint64_t> ReferenceEvaluator::CountDistinct(
    const Query& query, const ResourceBudget& budget_spec,
    EvalContext* ctx) const {
  BudgetTracker budget(budget_spec);
  EvalProfile* profile = ctx != nullptr ? ctx->profile : nullptr;
  BudgetProfileScope budget_scope(profile, &budget);
  const QueryPlan plan = PlanOrIdentity(rpq_.options(), rpq_.graph(), query);
  RecordPlan(plan, profile);

  // Fast path: a single rule whose body is a chain and whose head is the
  // chain's endpoints — exactly the binary queries of the paper's
  // selectivity experiments. The chain composes into one RPQ. The
  // single automaton fixes conjunct order, but the whole chain can run
  // right-to-left when the plan estimates the reversed seed/frontier
  // side cheaper; the reversed chain accepts exactly the transposed
  // pair set, so distinct counts are unchanged.
  if (query.rules.size() == 1) {
    const QueryRule& rule = query.rules[0];
    auto chain = AsChain(rule);
    if (chain.ok()) {
      std::vector<Conjunct> conjuncts = chain.ValueOrDie();
      if (plan.rules[0].chain_backward) {
        // Reversed order, each conjunct endpoint-swapped and
        // regex-reversed: the backward-step resolution every engine uses.
        PlanStep backward;
        backward.backward = true;
        std::vector<Conjunct> reversed;
        reversed.reserve(conjuncts.size());
        for (auto it = conjuncts.rbegin(); it != conjuncts.rend(); ++it) {
          reversed.push_back(EffectiveConjunct(*it, backward));
        }
        conjuncts = std::move(reversed);
      }
      VarId first_var = conjuncts.front().source;
      VarId last_var = conjuncts.back().target;
      const auto& head = rule.head;
      const bool endpoints_pair =
          head.size() == 2 &&
          ((head[0] == first_var && head[1] == last_var) ||
           (head[0] == last_var && head[1] == first_var)) &&
          first_var != last_var;
      if (endpoints_pair) {
        GMARK_ASSIGN_OR_RETURN(Nfa nfa, Nfa::FromConjunctChain(conjuncts));
        return rpq_.CountPairs(nfa, &budget, profile);
      }
      if (head.empty()) {
        // Boolean chain: any accepted pair suffices.
        GMARK_ASSIGN_OR_RETURN(Nfa nfa, Nfa::FromConjunctChain(conjuncts));
        GMARK_ASSIGN_OR_RETURN(uint64_t pairs,
                               rpq_.CountPairs(nfa, &budget, profile));
        return static_cast<uint64_t>(pairs > 0 ? 1 : 0);
      }
    }
  }

  // General path: join per rule, distinct union across rules. The
  // relations and their charges live in parallel vectors until the
  // union is counted; the guards release on function exit.
  std::vector<VarRelation> per_rule;
  std::vector<TupleCharge> per_rule_charges;
  size_t conjunct_offset = 0;
  size_t step_offset = 0;
  for (size_t ri = 0; ri < query.rules.size(); ++ri) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedRelation rel,
        EvaluateRuleJoin(query.rules[ri], &budget, ctx, &plan.rules[ri],
                         conjunct_offset, step_offset));
    per_rule.push_back(std::move(rel.value));
    per_rule_charges.push_back(std::move(rel.charge));
    conjunct_offset += query.rules[ri].body.size();
    step_offset += plan.rules[ri].steps.size();
  }
  return CountRuleUnion(per_rule, &budget);
}

}  // namespace gmark
