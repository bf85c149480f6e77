// Reusable working state for the RPQ evaluator's batched product-graph
// search (evaluator.cc).
//
// One search walks a batch of up to 64 sources at once. Every product
// state (node, nfa_state) carries two 64-bit source masks: `seen`, the
// batch sources that reached it, and `pending`, those of them not yet
// propagated along its outgoing transitions. Both cover all n*k product
// states — 2*n*k words (16 bytes per product state) per worker, against
// the n*k bits of the one-source-at-a-time search this replaced — plus
// worklists bounded by the states one batch touches. The masks are
// allocated once per scratch and reset in O(touched states) between
// batches and chunks, never in O(n*k).

#ifndef GMARK_ENGINE_EVAL_SCRATCH_H_
#define GMARK_ENGINE_EVAL_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gmark {

/// \brief The two source masks of one product state, kept side by side
/// so a transition's test-and-set touches one cache line.
struct ProductMasks {
  uint64_t seen = 0;     ///< Batch sources that reached this state.
  uint64_t pending = 0;  ///< Of those, the ones not yet propagated.
};

/// \brief One search worker's private working state. Owned by one
/// thread at a time — the serial evaluator keeps one, the
/// frontier-parallel evaluator keeps one per pool worker (indexed by
/// ThreadPool::CurrentWorkerId()).
struct EvalScratch {
  /// Masks of product state u*k + q; all zero between batches.
  std::vector<ProductMasks> masks;
  /// Flat indexes of the states whose `seen` is non-zero: what Reset()
  /// clears.
  std::vector<uint64_t> touched;
  /// The current and the next level of the batch worklist (flat
  /// indexes of states with non-zero `pending`).
  std::vector<uint64_t> level;
  std::vector<uint64_t> next_level;
  /// Nodes whose accept state the batch reached, in discovery order.
  std::vector<NodeId> accepted;
  /// One bit per node: `accepted` in id order while a materializing
  /// batch lays out its pairs; all zero otherwise.
  std::vector<uint64_t> accepted_marks;

  /// \brief Size for a graph of `n` nodes and an NFA of `k` states and
  /// clear all previous marks. Idempotent and cheap when already sized.
  void Prepare(size_t n, size_t k) {
    if (masks.size() < n * k) masks.resize(n * k);
    if (accepted_marks.size() < (n + 63) / 64) {
      accepted_marks.resize((n + 63) / 64);
    }
    Reset();
  }

  /// \brief Zero every mask the last batch set, in O(touched) — also
  /// after a batch that stopped part-way on its budget.
  void Reset() {
    for (uint64_t i : touched) masks[i] = ProductMasks{};
    touched.clear();
    level.clear();
    next_level.clear();
    accepted.clear();
  }
};

}  // namespace gmark

#endif  // GMARK_ENGINE_EVAL_SCRATCH_H_
