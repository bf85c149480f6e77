// Datalog translation: UCRPQs are expressible as (linear) Datalog
// programs (paper §2). Base relations: one binary predicate per edge
// label, plus node(X) for the reflexive base of Kleene stars.

#include <sstream>

#include "translate/translator_impl.h"

namespace gmark {

namespace {

std::string DatalogVar(const QueryRule& rule, size_t rule_index, VarId v) {
  // Datalog variables must start with an uppercase letter.
  for (size_t i = 0; i < rule.head.size(); ++i) {
    if (rule.head[i] == v) return IndexedName("H", i);
  }
  return IndexedName("R", rule_index).append(IndexedName("X", v));
}

/// Body atoms for one disjunct path from X to Y.
Result<std::string> PathBody(const PathExpr& path, const GraphSchema& schema,
                             const std::string& x, const std::string& y,
                             const std::string& tmp_prefix) {
  if (path.empty()) {
    return Status::Unsupported("epsilon path in Datalog translation");
  }
  std::ostringstream os;
  std::string prev = x;
  for (size_t i = 0; i < path.size(); ++i) {
    std::string next =
        (i + 1 == path.size()) ? y : tmp_prefix + std::to_string(i);
    if (i > 0) os << ", ";
    const std::string& label = schema.PredicateName(path[i].predicate);
    if (path[i].inverse) {
      os << label << "(" << next << ", " << prev << ")";
    } else {
      os << label << "(" << prev << ", " << next << ")";
    }
    prev = next;
  }
  return os.str();
}

}  // namespace

Result<std::string> DatalogTranslator::Translate(
    const Query& query, const GraphSchema& schema,
    const TranslateOptions& options) const {
  std::ostringstream os;
  const std::string q = query.name.empty() ? "q" : query.name;
  std::ostringstream program;

  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    // Helper predicates, one per conjunct.
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      std::string base = q + "_r" + std::to_string(r) + "_c" +
                         std::to_string(ci) + "_base";
      std::string pred = q + "_r" + std::to_string(r) + "_c" +
                         std::to_string(ci);
      for (size_t d = 0; d < c.expr.disjuncts.size(); ++d) {
        GMARK_ASSIGN_OR_RETURN(
            std::string body,
            PathBody(c.expr.disjuncts[d], schema, "X", "Y",
                     IndexedName("T", d).append("_")));
        program << base << "(X, Y) :- " << body << ".\n";
      }
      if (c.expr.star) {
        program << pred << "(X, X) :- node(X).\n";
        program << pred << "(X, Y) :- " << pred << "(X, Z), " << base
                << "(Z, Y).\n";
      } else {
        program << pred << "(X, Y) :- " << base << "(X, Y).\n";
      }
    }
    // The rule itself.
    program << q << "(";
    for (size_t i = 0; i < rule.head.size(); ++i) {
      if (i > 0) program << ", ";
      program << DatalogVar(rule, r, rule.head[i]);
    }
    program << ") :- ";
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      if (ci > 0) program << ", ";
      program << q << "_r" << r << "_c" << ci << "("
              << DatalogVar(rule, r, c.source) << ", "
              << DatalogVar(rule, r, c.target) << ")";
    }
    program << ".\n";
  }

  os << "% gMark Datalog program for " << q << "\n" << program.str();
  if (options.count_distinct && query.arity() > 0) {
    os << "% measurement aggregate\n"
       << q << "_count(count<";
    for (size_t i = 0; i < query.arity(); ++i) {
      if (i > 0) os << ", ";
      os << "H" << i;
    }
    os << ">) :- " << q << "(";
    for (size_t i = 0; i < query.arity(); ++i) {
      if (i > 0) os << ", ";
      os << "H" << i;
    }
    os << ").\n";
  }
  return os.str();
}

}  // namespace gmark
