// Graph instance serialization (Fig. 1: "Graph instance file").
// Supported formats: N-triples (the paper's data format for SPARQL
// systems) and a plain CSV edge list. Every writer formats whole lines
// with std::to_chars into a byte buffer and hands it to the stream with
// ostream::write, so the stream's format flags never touch the output.
// The parallel generator (ParallelGenerateToSink) formats its shards on
// its workers through TextEdgeSink::FormatBlock and writes them in
// canonical shard order, one ostream::write per shard
// (TextEdgeSink::WriteFormatted).

#ifndef GMARK_GRAPH_GRAPH_IO_H_
#define GMARK_GRAPH_GRAPH_IO_H_

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/graph_config.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "util/result.h"

namespace gmark {

namespace internal {

/// \brief Reusable byte buffer behind the text writers. Lines are
/// formatted into it in place and reach the stream through
/// ostream::write: one call per kFlushBytes buffered, plus one per
/// Flush().
class LineBuffer {
 public:
  static constexpr size_t kFlushBytes = size_t{64} << 10;

  explicit LineBuffer(std::ostream* out) : out_(out) {}

  /// \brief Room for `max_line` more bytes past the buffered ones:
  /// writes the buffer out first once it holds kFlushBytes, and grows
  /// the storage (to kFlushBytes + max_line) when the line does not fit.
  char* Reserve(size_t max_line) {
    if (size_ >= kFlushBytes) Flush();
    if (data_.size() - size_ < max_line) data_.resize(kFlushBytes + max_line);
    return data_.data() + size_;
  }
  /// \brief Keep the bytes up to `end` (formatted from Reserve()).
  void Commit(const char* end) {
    size_ = static_cast<size_t>(end - data_.data());
  }
  /// \brief Write the buffered bytes to the stream, if any.
  void Flush();

  /// \brief The stream Flush writes to.
  std::ostream* stream() const { return out_; }

 private:
  std::ostream* out_;
  std::vector<char> data_;  ///< Storage; only [0, size_) is content.
  size_t size_ = 0;
};

}  // namespace internal

/// \brief Base of the text sinks: each edge becomes one line
/// `head source mid[predicate] target tail`, ids in plain decimal.
///
/// The sinks ignore the stream's format flags (width, base, showpos,
/// locale) and write whole lines per ostream::write call. Append writes
/// its one line at once; AppendBlock formats the block into a reusable
/// buffer, writing every 64 KiB and at block end. The parallel
/// generator splits the two steps: its workers format whole shards
/// with the const FormatBlock, and the calling thread hands each shard
/// to the stream with one WriteFormatted, in canonical shard order.
/// Nothing stays buffered in the sink between calls, so the stream
/// state after any call tells whether its lines reached the stream.
/// Stream errors are the caller's to check (e.g. via WriteCsv, or by
/// testing the stream after a drain); the sink itself only counts what
/// it formatted.
class TextEdgeSink : public EdgeSink {
 public:
  void Append(NodeId source, PredicateId predicate, NodeId target) override;
  void AppendBlock(std::span<const Edge> block) override;
  size_t count() const override { return count_; }

  /// \brief Append the lines of `block` to `*out`, exactly the bytes
  /// AppendBlock would write. Touches no sink state, so concurrent
  /// calls on one sink are safe (each with its own `out`).
  void FormatBlock(std::span<const Edge> block, std::vector<char>* out) const;

  /// \brief Write `text`, the FormatBlock output of `edges` edges, to
  /// the stream in one ostream::write (none when empty) and count the
  /// edges, whether or not the stream accepts the bytes.
  void WriteFormatted(std::span<const char> text, size_t edges);

 protected:
  /// `mids` holds one piece per predicate id.
  TextEdgeSink(std::ostream* out, std::string head,
               std::vector<std::string> mids, std::string tail);

 private:
  char* FormatLine(char* p, const Edge& e) const;

  internal::LineBuffer buffer_;
  std::string head_;
  std::vector<std::string> mids_;
  std::string tail_;
  size_t max_line_ = 0;  ///< Longest line any edge can format to.
  size_t count_ = 0;
};

/// \brief Sink that streams edges as N-triples, e.g.
/// `<http://gmark/n12> <http://gmark/p/authors> <http://gmark/n7> .`
/// Predicate IRIs are built from `schema` once, at construction.
class NTriplesSink : public TextEdgeSink {
 public:
  NTriplesSink(std::ostream* out, const GraphSchema* schema);
};

/// \brief Sink that streams edges as `source,predicate,target` CSV rows
/// with a header (written by the constructor), using predicate names.
class CsvSink : public TextEdgeSink {
 public:
  CsvSink(std::ostream* out, const GraphSchema* schema);
};

/// \brief Write an indexed graph as N-triples (through NTriplesSink),
/// plus one `<node> <http://gmark/type> "<typename>" .` triple per node
/// when `include_node_types`, failing with IOError if the stream goes
/// bad.
Status WriteNTriples(const Graph& graph, const GraphSchema& schema,
                     std::ostream* out, bool include_node_types = false);

/// \brief Write an indexed graph as a CSV edge list (header row plus one
/// `source,predicate,target` row per edge), failing with IOError if the
/// stream goes bad.
Status WriteCsv(const Graph& graph, const GraphSchema& schema,
                std::ostream* out);

/// \brief Parse the N-triples dialect produced by NTriplesSink back into
/// an edge list (type triples are skipped).
Result<std::vector<Edge>> ReadNTriples(std::istream* in,
                                       const GraphSchema& schema);

}  // namespace gmark

#endif  // GMARK_GRAPH_GRAPH_IO_H_
