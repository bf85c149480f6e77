#include "engine/relation.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

namespace gmark {

namespace {

/// Row indexes are 32-bit; the all-ones value marks an empty slot or
/// the end of a chain.
constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

Status CheckRowIndexable(size_t rows) {
  if (rows >= kNoRow) {
    return Status::ResourceExhausted(
        "relation operator input exceeds 2^32 - 2 rows");
  }
  return Status::OK();
}

/// Hash of the columns `cols` of `row`: a multiply-xorshift step per
/// column, folded to 32 bits. Only bucket placement depends on it;
/// emission order never does.
uint32_t HashColumns(std::span<const NodeId> row,
                     const std::vector<int>& cols) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : cols) {
    h = (h ^ row[static_cast<size_t>(c)]) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

/// Whether the columns `a_cols` of `a` equal the columns `b_cols` of
/// `b`, pairwise.
bool ColumnsEqual(std::span<const NodeId> a, const std::vector<int>& a_cols,
                  std::span<const NodeId> b, const std::vector<int>& b_cols) {
  for (size_t k = 0; k < a_cols.size(); ++k) {
    if (a[static_cast<size_t>(a_cols[k])] !=
        b[static_cast<size_t>(b_cols[k])]) {
      return false;
    }
  }
  return true;
}

/// The distinct rows of `out` (width >= 1), as an open-addressing set
/// of row indexes: slots hold indexes into `out`, and a lookup hashes
/// the candidate row's columns and compares them against `out`'s flat
/// buffer in place, so no key is ever materialized. Linear probing,
/// doubled at half load; each row's hash is kept, so growth never
/// rehashes a row and a probe compares columns only on a hash match.
class DistinctRows {
 public:
  explicit DistinctRows(VarRelation* out)
      : out_(out), identity_(out->width()), slots_(16, kNoRow) {
    std::iota(identity_.begin(), identity_.end(), 0);
  }

  /// Appends the columns `cols` of `row` to `out` unless an equal row
  /// is already there; returns whether it was appended.
  bool Insert(std::span<const NodeId> row, const std::vector<int>& cols) {
    const uint32_t h = HashColumns(row, cols);
    const size_t mask = slots_.size() - 1;
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      const uint32_t k = slots_[s];
      if (k == kNoRow) {
        slots_[s] = static_cast<uint32_t>(hashes_.size());
        hashes_.push_back(h);
        out_->AppendColumns(row, cols);
        if (2 * hashes_.size() > slots_.size()) Grow();
        return true;
      }
      if (hashes_[k] == h && ColumnsEqual(row, cols, out_->row(k), identity_)) {
        return false;
      }
    }
  }

 private:
  void Grow() {
    slots_.assign(2 * slots_.size(), kNoRow);
    const size_t mask = slots_.size() - 1;
    for (uint32_t k = 0; k < hashes_.size(); ++k) {
      size_t s = hashes_[k] & mask;
      while (slots_[s] != kNoRow) s = (s + 1) & mask;
      slots_[s] = k;
    }
  }

  VarRelation* out_;
  std::vector<int> identity_;  // out_'s own columns, 0..width-1.
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> hashes_;  // Per row of out_.
};

}  // namespace

VarRelation VarRelation::FromPairs(
    VarId x, VarId y, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  if (x == y) {
    VarRelation rel({x});
    for (const auto& [s, t] : pairs) {
      if (s == t) {
        NodeId v = s;
        rel.AppendRow({&v, 1});
      }
    }
    return rel;
  }
  VarRelation rel({x, y});
  for (const auto& [s, t] : pairs) {
    NodeId row[2] = {s, t};
    rel.AppendRow({row, 2});
  }
  return rel;
}

int VarRelation::IndexOf(VarId var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Result<ChargedRelation> ChargeRelation(VarRelation rel,
                                       BudgetTracker* budget) {
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(rel.row_count()));
  return ChargedRelation(std::move(rel), std::move(charge));
}

Result<ChargedRelation> HashJoin(const VarRelation& a, const VarRelation& b,
                                 BudgetTracker* budget) {
  // Shared variables and their positions in both relations.
  std::vector<int> a_pos, b_pos;
  for (size_t i = 0; i < a.vars().size(); ++i) {
    int j = b.IndexOf(a.vars()[i]);
    if (j >= 0) {
      a_pos.push_back(static_cast<int>(i));
      b_pos.push_back(j);
    }
  }
  // Output schema: all of a, then b's non-shared variables.
  std::vector<VarId> out_vars = a.vars();
  std::vector<int> b_extra;
  for (size_t j = 0; j < b.vars().size(); ++j) {
    if (a.IndexOf(b.vars()[j]) < 0) {
      out_vars.push_back(b.vars()[j]);
      b_extra.push_back(static_cast<int>(j));
    }
  }
  VarRelation out(out_vars);
  TupleCharge charge(budget);
  PeriodicTimeCheck clock(budget);

  // Build on b: bucket heads plus a per-row `next` chain. Rows thread in
  // descending order, so every chain lists its rows ascending.
  const size_t nb = b.row_count();
  GMARK_RETURN_NOT_OK(CheckRowIndexable(nb));
  const size_t mask = std::bit_ceil(nb) - 1;  // bit_ceil(0) == 1.
  std::vector<uint32_t> head(mask + 1, kNoRow);
  std::vector<uint32_t> next(nb);
  std::vector<uint32_t> hash(nb);
  for (size_t j = nb; j-- > 0;) {
    GMARK_RETURN_NOT_OK(clock.Check());
    hash[j] = HashColumns(b.row(j), b_pos);
    next[j] = head[hash[j] & mask];
    head[hash[j] & mask] = static_cast<uint32_t>(j);
  }
  // Probe with a, comparing key columns in place.
  for (size_t i = 0; i < a.row_count(); ++i) {
    GMARK_RETURN_NOT_OK(clock.Check());
    const std::span<const NodeId> row = a.row(i);
    const uint32_t h = HashColumns(row, a_pos);
    for (uint32_t j = head[h & mask]; j != kNoRow; j = next[j]) {
      if (hash[j] != h || !ColumnsEqual(row, a_pos, b.row(j), b_pos)) {
        continue;
      }
      GMARK_RETURN_NOT_OK(clock.Check());
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      out.AppendRow(row);
      out.AppendColumns(b.row(j), b_extra);
    }
  }
  return ChargedRelation(std::move(out), std::move(charge));
}

Result<ChargedRelation> ProjectDistinct(const VarRelation& rel,
                                        const std::vector<VarId>& onto,
                                        BudgetTracker* budget) {
  std::vector<int> positions;
  for (VarId v : onto) {
    int p = rel.IndexOf(v);
    if (p < 0) {
      return Status::InvalidArgument("projection variable not in relation");
    }
    positions.push_back(p);
  }
  VarRelation out(onto);
  TupleCharge charge(budget);
  if (onto.empty()) {
    if (rel.row_count() > 0) out.SetNonEmpty();
    return ChargedRelation(std::move(out), std::move(charge));
  }
  GMARK_RETURN_NOT_OK(CheckRowIndexable(rel.row_count()));
  DistinctRows distinct(&out);
  PeriodicTimeCheck clock(budget);
  for (size_t i = 0; i < rel.row_count(); ++i) {
    GMARK_RETURN_NOT_OK(clock.Check());
    if (distinct.Insert(rel.row(i), positions)) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
    }
  }
  return ChargedRelation(std::move(out), std::move(charge));
}

Result<uint64_t> CountDistinctUnion(const std::vector<VarRelation>& rels,
                                    BudgetTracker* budget) {
  if (rels.empty()) return static_cast<uint64_t>(0);
  size_t total_rows = 0;
  for (const auto& r : rels) {
    if (r.width() != rels[0].width()) {
      return Status::InvalidArgument("union of relations of unequal width");
    }
    total_rows += r.row_count();
  }
  if (rels[0].width() == 0) {
    return static_cast<uint64_t>(total_rows > 0 ? 1 : 0);
  }
  GMARK_RETURN_NOT_OK(CheckRowIndexable(total_rows));
  VarRelation seen(rels[0].vars());
  DistinctRows distinct(&seen);
  std::vector<int> all_columns(rels[0].width());
  std::iota(all_columns.begin(), all_columns.end(), 0);
  // The distinct set's charge lives exactly as long as the set: it
  // releases when this guard unwinds, on success and failure alike.
  TupleCharge charge(budget);
  PeriodicTimeCheck clock(budget);
  for (const auto& r : rels) {
    for (size_t i = 0; i < r.row_count(); ++i) {
      GMARK_RETURN_NOT_OK(clock.Check());
      if (distinct.Insert(r.row(i), all_columns)) {
        GMARK_RETURN_NOT_OK(charge.Charge(1));
      }
    }
  }
  return static_cast<uint64_t>(seen.row_count());
}

Result<uint64_t> CountRuleUnion(const std::vector<VarRelation>& rules,
                                BudgetTracker* budget) {
  if (rules.size() != 1) return CountDistinctUnion(rules, budget);
  const VarRelation& rel = rules[0];
  const size_t rows = rel.row_count();
  if (rel.width() == 0) return static_cast<uint64_t>(rows);  // 0 or 1
  GMARK_RETURN_NOT_OK(CheckRowIndexable(rows));
  // The charge releases on return, as CountDistinctUnion's set does.
  TupleCharge charge(budget);
  PeriodicTimeCheck clock(budget);
  for (size_t i = 0; i < rows; ++i) {
    GMARK_RETURN_NOT_OK(clock.Check());
    GMARK_RETURN_NOT_OK(charge.Charge(1));
  }
  return static_cast<uint64_t>(rows);
}

void DedupPairs(std::vector<std::pair<NodeId, NodeId>>* pairs) {
  using Pair = std::pair<NodeId, NodeId>;
  std::vector<Pair>& v = *pairs;
  // One scan: the significant bits of both fields, and sortedness.
  NodeId source_bits = 0, target_bits = 0;
  bool sorted = true;
  for (size_t i = 0; i < v.size(); ++i) {
    source_bits |= v[i].first;
    target_bits |= v[i].second;
    if (i > 0 && v[i] < v[i - 1]) sorted = false;
  }
  if (!sorted) {
    // LSD radix passes, least significant first: the target's digits,
    // then the source's. A field of `bits` bits is split into the digit
    // count d, each of at most kMaxDigitBits, that minimises the sort's
    // work d * (kScatterCost * n + 2^ceil(bits/d)): per pass, one
    // scatter of the n pairs plus one scan of the buckets. A large input
    // takes the fewest passes; a small one with wide ids takes narrow
    // digits rather than zeroing and scanning 2^11 buckets for a few
    // dozen pairs. Moving a pair costs about four bucket steps (timed
    // over 30 to 3,000 pairs of 9- to 16-bit ids on x86-64).
    constexpr int kMaxDigitBits = 11;
    constexpr size_t kScatterCost = 4;
    auto digit_count = [n = v.size()](int bits) {
      if (bits == 0) return 0;
      int best = 0;
      size_t best_work = std::numeric_limits<size_t>::max();
      for (int d = (bits + kMaxDigitBits - 1) / kMaxDigitBits; d <= bits;
           ++d) {
        const int width = (bits + d - 1) / d;
        const size_t work =
            static_cast<size_t>(d) * (kScatterCost * n + (size_t{1} << width));
        if (work < best_work) {
          best = d;
          best_work = work;
        }
      }
      return best;
    };
    struct Pass {
      bool source;
      int shift;
      NodeId mask;
    };
    std::vector<Pass> passes;
    size_t stride = 1;  // Buckets of the widest digit.
    for (bool source : {false, true}) {
      const int bits = std::bit_width(source ? source_bits : target_bits);
      const int count = digit_count(bits);
      const int width = count == 0 ? 0 : (bits + count - 1) / count;
      for (int d = 0; d < count; ++d) {
        passes.push_back({source, d * width, (NodeId{1} << width) - 1});
      }
      stride = std::max(stride, size_t{1} << width);
    }
    auto digit = [](const Pair& p, const Pass& pass) {
      return ((pass.source ? p.first : p.second) >> pass.shift) & pass.mask;
    };
    // Every pass's histogram in one scan.
    std::vector<size_t> counts(passes.size() * stride, 0);
    for (const Pair& p : v) {
      for (size_t k = 0; k < passes.size(); ++k) {
        ++counts[k * stride + digit(p, passes[k])];
      }
    }
    std::vector<Pair> scratch(v.size());
    for (size_t k = 0; k < passes.size(); ++k) {
      const Pass pass = passes[k];
      size_t* offsets = counts.data() + k * stride;
      // A digit every pair shares leaves the order as it is.
      if (offsets[digit(v[0], pass)] == v.size()) continue;
      size_t sum = 0;
      for (size_t b = 0; b <= pass.mask; ++b) {
        const size_t c = offsets[b];
        offsets[b] = sum;
        sum += c;
      }
      for (const Pair& p : v) scratch[offsets[digit(p, pass)]++] = p;
      v.swap(scratch);
    }
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace gmark
