// Internal: the four translator implementations plus shared helpers.
// Users go through MakeTranslator()/TranslateQuery() in translator.h.

#ifndef GMARK_TRANSLATE_TRANSLATOR_IMPL_H_
#define GMARK_TRANSLATE_TRANSLATOR_IMPL_H_

#include <string>

#include "translate/translator.h"
#include "util/string_util.h"  // IndexedName

namespace gmark {

/// \brief Canonical variable naming shared by all translators: head
/// variables become h0, h1, ... (identical across the rules of a union,
/// as required for well-formed UNION blocks); body-only variables get
/// rule-scoped names.
std::string TranslateVarName(const QueryRule& rule, size_t rule_index,
                             VarId v);

class SparqlTranslator : public QueryTranslator {
 public:
  QueryLanguage language() const override { return QueryLanguage::kSparql; }
  Result<std::string> Translate(const Query& query, const GraphSchema& schema,
                                const TranslateOptions& options)
      const override;
};

class CypherTranslator : public QueryTranslator {
 public:
  QueryLanguage language() const override {
    return QueryLanguage::kOpenCypher;
  }
  Result<std::string> Translate(const Query& query, const GraphSchema& schema,
                                const TranslateOptions& options)
      const override;
};

class SqlTranslator : public QueryTranslator {
 public:
  QueryLanguage language() const override { return QueryLanguage::kSql; }
  Result<std::string> Translate(const Query& query, const GraphSchema& schema,
                                const TranslateOptions& options)
      const override;
};

class DatalogTranslator : public QueryTranslator {
 public:
  QueryLanguage language() const override { return QueryLanguage::kDatalog; }
  Result<std::string> Translate(const Query& query, const GraphSchema& schema,
                                const TranslateOptions& options)
      const override;
};

}  // namespace gmark

#endif  // GMARK_TRANSLATE_TRANSLATOR_IMPL_H_
