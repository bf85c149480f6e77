// PostgreSQL translation: the standard encoding of UCRPQs into
// SQL:1999 recursive views (paper §7.1, footnote 4: linear recursion).
// Expected relations: edge(src BIGINT, label TEXT, trg BIGINT) and
// node(id BIGINT).

#include <map>
#include <sstream>
#include <vector>

#include "translate/translator_impl.h"

namespace gmark {

namespace {

/// SELECT producing one disjunct path as a (src, trg) relation.
Result<std::string> PathSelect(const PathExpr& path,
                               const GraphSchema& schema) {
  if (path.empty()) {
    return Status::Unsupported("epsilon path in SQL translation");
  }
  std::ostringstream from, where;
  std::string first_col, last_col;
  for (size_t i = 0; i < path.size(); ++i) {
    std::string alias = IndexedName("e", i);
    if (i > 0) from << ", ";
    from << "edge " << alias;
    std::string start = path[i].inverse ? alias + ".trg" : alias + ".src";
    std::string end = path[i].inverse ? alias + ".src" : alias + ".trg";
    if (i > 0) where << " AND ";
    where << alias << ".label = '"
          << schema.PredicateName(path[i].predicate) << "'";
    if (i > 0) where << " AND " << last_col << " = " << start;
    if (i == 0) first_col = start;
    last_col = end;
  }
  std::ostringstream os;
  os << "SELECT " << first_col << " AS src, " << last_col
     << " AS trg FROM " << from.str() << " WHERE " << where.str();
  return os.str();
}

}  // namespace

Result<std::string> SqlTranslator::Translate(
    const Query& query, const GraphSchema& schema,
    const TranslateOptions& options) const {
  std::ostringstream ctes;
  bool any_cte = false;
  auto cte_name = [&](size_t rule, size_t conj, const char* kind) {
    return "q_r" + std::to_string(rule) + "_c" + std::to_string(conj) + "_" +
           kind;
  };

  // One base CTE (disjunct union) per conjunct; a closure CTE on top of
  // it when the conjunct is starred.
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      std::ostringstream base;
      for (size_t d = 0; d < c.expr.disjuncts.size(); ++d) {
        if (d > 0) base << "\n    UNION\n    ";
        GMARK_ASSIGN_OR_RETURN(std::string sel,
                               PathSelect(c.expr.disjuncts[d], schema));
        base << sel;
      }
      if (any_cte) ctes << ",\n";
      any_cte = true;
      ctes << "  " << cte_name(r, ci, "base") << "(src, trg) AS (\n    "
           << base.str() << "\n  )";
      if (c.expr.star) {
        // Linear recursion: the closure references itself exactly once.
        ctes << ",\n  " << cte_name(r, ci, "path") << "(src, trg) AS (\n"
             << "    SELECT id AS src, id AS trg FROM node\n"
             << "    UNION\n"
             << "    SELECT p.src, b.trg FROM " << cte_name(r, ci, "path")
             << " p JOIN " << cte_name(r, ci, "base")
             << " b ON p.trg = b.src\n  )";
      }
    }
  }

  // Rule bodies: join the conjunct relations on shared variables.
  std::vector<std::string> rule_selects;
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    std::ostringstream from, where;
    std::map<VarId, std::string> var_col;
    bool first_cond = true;
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      std::string alias = IndexedName("j", ci);
      if (ci > 0) from << ", ";
      from << cte_name(r, ci, c.expr.star ? "path" : "base") << " " << alias;
      for (auto [var, col] : {std::pair<VarId, std::string>{
                                  c.source, alias + ".src"},
                              {c.target, alias + ".trg"}}) {
        auto it = var_col.find(var);
        if (it == var_col.end()) {
          var_col.emplace(var, col);
        } else {
          where << (first_cond ? "" : " AND ") << it->second << " = " << col;
          first_cond = false;
        }
      }
    }
    std::ostringstream select;
    if (rule.head.empty()) {
      select << "SELECT DISTINCT 1 AS nonempty";
    } else {
      select << "SELECT DISTINCT ";
      for (size_t i = 0; i < rule.head.size(); ++i) {
        if (i > 0) select << ", ";
        select << var_col[rule.head[i]] << " AS h" << i;
      }
    }
    select << " FROM " << from.str();
    if (!first_cond) select << " WHERE " << where.str();
    rule_selects.push_back(select.str());
  }

  std::ostringstream body;
  for (size_t i = 0; i < rule_selects.size(); ++i) {
    if (i > 0) body << "\nUNION\n";
    body << rule_selects[i];
  }

  std::ostringstream os;
  if (any_cte) os << "WITH RECURSIVE\n" << ctes.str() << "\n";
  if (options.count_distinct && query.arity() > 0) {
    os << "SELECT COUNT(*) AS cnt FROM (\n" << body.str() << "\n) q;\n";
  } else {
    os << body.str() << ";\n";
  }
  return os.str();
}

}  // namespace gmark
