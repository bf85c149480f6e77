#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace gmark {

namespace {
constexpr char kNodePrefix[] = "<http://gmark/n";
constexpr char kPredPrefix[] = "<http://gmark/p/";
constexpr char kTypePredicate[] = "<http://gmark/type>";
constexpr char kCsvHeader[] = "source,predicate,target\n";
/// Decimal digits of the largest NodeId (UINT64_MAX).
constexpr size_t kMaxIdDigits = std::numeric_limits<NodeId>::digits10 + 1;

char* Put(char* p, std::string_view piece) {
  std::memcpy(p, piece.data(), piece.size());
  return p + piece.size();
}

char* PutId(char* p, NodeId id) {
  return std::to_chars(p, p + kMaxIdDigits, id).ptr;
}

size_t LongestPiece(const std::vector<std::string>& pieces) {
  size_t longest = 0;
  for (const std::string& piece : pieces) {
    longest = std::max(longest, piece.size());
  }
  return longest;
}

std::vector<std::string> NTriplesPredicatePieces(const GraphSchema& schema) {
  std::vector<std::string> mids;
  for (PredicateId p = 0; p < schema.predicate_count(); ++p) {
    mids.push_back(std::string("> ") + kPredPrefix + schema.PredicateName(p) +
                   "> " + kNodePrefix);
  }
  return mids;
}

std::vector<std::string> CsvPredicatePieces(const GraphSchema& schema) {
  std::vector<std::string> mids;
  for (PredicateId p = 0; p < schema.predicate_count(); ++p) {
    mids.push_back("," + schema.PredicateName(p) + ",");
  }
  return mids;
}

/// Feed every edge of `graph` to `sink`, predicate by predicate, in
/// blocks of a bounded size.
void AppendGraphEdges(const Graph& graph, EdgeSink* sink) {
  constexpr size_t kBlockEdges = 4096;
  std::vector<Edge> block;
  block.reserve(kBlockEdges);
  for (PredicateId p = 0; p < graph.predicate_count(); ++p) {
    graph.ForEachEdge(p, [&](NodeId src, NodeId trg) {
      block.push_back(Edge{src, p, trg});
      if (block.size() == kBlockEdges) {
        sink->AppendBlock(block);
        block.clear();
      }
    });
  }
  sink->AppendBlock(block);
}

}  // namespace

namespace internal {

void LineBuffer::Flush() {
  if (size_ == 0) return;
  out_->write(data_.data(), static_cast<std::streamsize>(size_));
  size_ = 0;
}

}  // namespace internal

TextEdgeSink::TextEdgeSink(std::ostream* out, std::string head,
                           std::vector<std::string> mids, std::string tail)
    : buffer_(out),
      head_(std::move(head)),
      mids_(std::move(mids)),
      tail_(std::move(tail)) {
  max_line_ = head_.size() + 2 * kMaxIdDigits + LongestPiece(mids_) +
              tail_.size();
}

char* TextEdgeSink::FormatLine(char* p, const Edge& e) const {
  p = Put(p, head_);
  p = PutId(p, e.source);
  p = Put(p, mids_[e.predicate]);
  p = PutId(p, e.target);
  return Put(p, tail_);
}

void TextEdgeSink::Append(NodeId source, PredicateId predicate,
                          NodeId target) {
  buffer_.Commit(FormatLine(buffer_.Reserve(max_line_),
                            Edge{source, predicate, target}));
  buffer_.Flush();
  ++count_;
}

void TextEdgeSink::AppendBlock(std::span<const Edge> block) {
  for (const Edge& e : block) {
    buffer_.Commit(FormatLine(buffer_.Reserve(max_line_), e));
  }
  buffer_.Flush();
  count_ += block.size();
}

void TextEdgeSink::FormatBlock(std::span<const Edge> block,
                               std::vector<char>* out) const {
  // Grow in steps of one flush size past the longest line, so resize
  // zero-fills (and faults in) about the text itself: a bound of
  // max_line_ per edge could be far more when one predicate name is
  // long.
  size_t size = out->size();
  for (const Edge& e : block) {
    if (out->size() - size < max_line_) {
      out->resize(size + max_line_ + internal::LineBuffer::kFlushBytes);
    }
    size = static_cast<size_t>(FormatLine(out->data() + size, e) -
                               out->data());
  }
  out->resize(size);
}

void TextEdgeSink::WriteFormatted(std::span<const char> text, size_t edges) {
  if (!text.empty()) {
    buffer_.stream()->write(text.data(),
                            static_cast<std::streamsize>(text.size()));
  }
  count_ += edges;
}

NTriplesSink::NTriplesSink(std::ostream* out, const GraphSchema* schema)
    : TextEdgeSink(out, kNodePrefix, NTriplesPredicatePieces(*schema),
                   "> .\n") {}

CsvSink::CsvSink(std::ostream* out, const GraphSchema* schema)
    : TextEdgeSink(out, "", CsvPredicatePieces(*schema), "\n") {
  out->write(kCsvHeader, sizeof(kCsvHeader) - 1);
}

Status WriteNTriples(const Graph& graph, const GraphSchema& schema,
                     std::ostream* out, bool include_node_types) {
  NTriplesSink sink(out, &schema);
  AppendGraphEdges(graph, &sink);
  if (include_node_types) {
    // `<node> <http://gmark/type> "<typename>" .`: the node IRI's head
    // and id as in NTriplesSink, then one piece per type.
    std::vector<std::string> type_pieces;
    for (TypeId t = 0; t < schema.type_count(); ++t) {
      type_pieces.push_back(std::string("> ") + kTypePredicate + " \"" +
                            schema.TypeName(t) + "\" .\n");
    }
    const size_t max_line = sizeof(kNodePrefix) - 1 + kMaxIdDigits +
                            LongestPiece(type_pieces);
    internal::LineBuffer buffer(out);
    for (NodeId v = 0; v < static_cast<NodeId>(graph.num_nodes()); ++v) {
      char* p = Put(buffer.Reserve(max_line), kNodePrefix);
      p = PutId(p, v);
      buffer.Commit(Put(p, type_pieces[graph.TypeOf(v)]));
    }
    buffer.Flush();
  }
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteCsv(const Graph& graph, const GraphSchema& schema,
                std::ostream* out) {
  CsvSink sink(out, &schema);
  AppendGraphEdges(graph, &sink);
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

namespace {

/// Extract the numeric id from "<http://gmark/n123>": decimal digits
/// only (no sign, no whitespace), in the NodeId range.
Result<NodeId> ParseNodeIri(const std::string& token) {
  if (!StartsWith(token, kNodePrefix) || token.back() != '>') {
    return Status::InvalidArgument("not a gMark node IRI: " + token);
  }
  const char* first = token.data() + sizeof(kNodePrefix) - 1;
  const char* last = token.data() + token.size() - 1;
  NodeId id = 0;
  // from_chars accepts no '+' and, for an unsigned type, no '-'.
  auto [end, ec] = std::from_chars(first, last, id);
  if (first == last || ec != std::errc() || end != last) {
    return Status::InvalidArgument("bad node id in IRI: " + token);
  }
  return id;
}

}  // namespace

Result<std::vector<Edge>> ReadNTriples(std::istream* in,
                                       const GraphSchema& schema) {
  std::vector<Edge> edges;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> tokens = Split(trimmed, ' ');
    // Type triples carry a quoted type name, which may itself contain
    // spaces and split into extra tokens — so they must be recognized
    // before the 4-token shape check. Only well-terminated ones are
    // skipped; a truncated type line is still a malformed file.
    if (tokens.size() >= 2 && tokens[1] == kTypePredicate) {
      if (tokens.size() >= 4 && tokens.back() == ".") continue;
      return Status::InvalidArgument("malformed type triple on line " +
                                     std::to_string(line_no));
    }
    if (tokens.size() < 4 || tokens[3] != ".") {
      return Status::InvalidArgument("malformed N-triples line " +
                                     std::to_string(line_no));
    }
    if (!StartsWith(tokens[1], kPredPrefix) || tokens[1].back() != '>') {
      return Status::InvalidArgument("unknown predicate IRI on line " +
                                     std::to_string(line_no));
    }
    std::string pred_name =
        tokens[1].substr(sizeof(kPredPrefix) - 1,
                         tokens[1].size() - sizeof(kPredPrefix));
    GMARK_ASSIGN_OR_RETURN(PredicateId pred,
                           schema.PredicateIdOf(pred_name));
    GMARK_ASSIGN_OR_RETURN(NodeId src, ParseNodeIri(tokens[0]));
    GMARK_ASSIGN_OR_RETURN(NodeId trg, ParseNodeIri(tokens[2]));
    edges.push_back(Edge{src, pred, trg});
  }
  return edges;
}

}  // namespace gmark
