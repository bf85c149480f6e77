#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/use_cases.h"
#include "graph/generator.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

TEST(GraphIoTest, NTriplesSinkFormat) {
  GraphConfiguration config = MakeBibConfig(1000);
  std::ostringstream out;
  NTriplesSink sink(&out, &config.schema);
  sink.Append(3, 0, 7);
  EXPECT_EQ(out.str(),
            "<http://gmark/n3> <http://gmark/p/authors> <http://gmark/n7> "
            ".\n");
  EXPECT_EQ(sink.count(), 1u);
}

TEST(GraphIoTest, CsvSinkFormat) {
  GraphConfiguration config = MakeBibConfig(1000);
  std::ostringstream out;
  CsvSink sink(&out, &config.schema);
  sink.Append(1, 1, 2);
  EXPECT_EQ(out.str(), "source,predicate,target\n1,publishedIn,2\n");
  EXPECT_EQ(sink.count(), 1u);
}

// ---------------------------------------------------------------------
// Reference formatters: the historical operator<< path, kept here only
// to pin the sinks' bytes.

std::string ReferenceNTriples(const GraphSchema& schema,
                              const std::vector<Edge>& edges) {
  std::ostringstream out;
  for (const Edge& e : edges) {
    out << "<http://gmark/n" << e.source << "> <http://gmark/p/"
        << schema.PredicateName(e.predicate) << "> <http://gmark/n"
        << e.target << "> .\n";
  }
  return out.str();
}

std::string ReferenceCsv(const GraphSchema& schema,
                         const std::vector<Edge>& edges) {
  std::ostringstream out;
  out << "source,predicate,target\n";
  for (const Edge& e : edges) {
    out << e.source << ',' << schema.PredicateName(e.predicate) << ','
        << e.target << '\n';
  }
  return out.str();
}

/// Stream buffer that records the size of every write it receives and,
/// past `limit` bytes, refuses the rest (so the stream goes bad).
class RecordingBuf : public std::streambuf {
 public:
  explicit RecordingBuf(
      size_t limit = std::numeric_limits<size_t>::max())
      : limit_(limit) {}
  const std::vector<size_t>& writes() const { return writes_; }
  size_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    writes_.push_back(static_cast<size_t>(n));
    const size_t take =
        std::min(static_cast<size_t>(n), limit_ - std::min(limit_, bytes_));
    bytes_ += take;
    return static_cast<std::streamsize>(take);
  }
  int_type overflow(int_type ch) override {
    return xsputn(nullptr, 1) == 1 ? ch : traits_type::eof();
  }

 private:
  size_t limit_;
  size_t bytes_ = 0;
  std::vector<size_t> writes_;
};

/// Schema with a short predicate and one whose name alone is more than
/// twice the sinks' 64 KiB flush size.
GraphSchema LongNameSchema() {
  GraphSchema schema;
  EXPECT_TRUE(schema.AddPredicate("p").ok());
  EXPECT_TRUE(schema
                  .AddPredicate(std::string(
                      2 * internal::LineBuffer::kFlushBytes + 77, 'x'))
                  .ok());
  return schema;
}

/// Feed `edges` through AppendBlock and through per-edge Append (one
/// fresh sink each) and compare both streams with the reference.
template <typename Sink>
void ExpectMatchesReference(const GraphSchema& schema,
                            const std::vector<Edge>& edges,
                            const std::string& expected) {
  std::ostringstream block_out;
  Sink block_sink(&block_out, &schema);
  block_sink.AppendBlock(edges);
  EXPECT_EQ(block_out.str(), expected);
  EXPECT_EQ(block_sink.count(), edges.size());

  std::ostringstream edge_out;
  Sink edge_sink(&edge_out, &schema);
  for (const Edge& e : edges) edge_sink.Append(e.source, e.predicate, e.target);
  EXPECT_EQ(edge_out.str(), expected);
  EXPECT_EQ(edge_sink.count(), edges.size());
}

void ExpectBothFormatsMatch(const GraphSchema& schema,
                            const std::vector<Edge>& edges) {
  ExpectMatchesReference<NTriplesSink>(schema, edges,
                                       ReferenceNTriples(schema, edges));
  ExpectMatchesReference<CsvSink>(schema, edges, ReferenceCsv(schema, edges));
}

TEST(GraphIoFormatTest, IdBoundariesMatchReference) {
  const GraphSchema schema = LongNameSchema();
  const NodeId kMax = std::numeric_limits<NodeId>::max();
  ExpectBothFormatsMatch(schema, {{0, 0, 9},
                                  {9, 0, 10},
                                  {10, 0, 0},
                                  {kMax, 0, kMax},
                                  {0, 0, kMax},
                                  {kMax, 0, 10}});
}

TEST(GraphIoFormatTest, PredicateLongerThanFlushSizeMatchesReference) {
  const GraphSchema schema = LongNameSchema();
  ExpectBothFormatsMatch(schema, {{1, 1, 2},
                                  {3, 0, 4},
                                  {std::numeric_limits<NodeId>::max(), 1, 5},
                                  {6, 1, 7}});
}

TEST(GraphIoFormatTest, BlockStraddlingFlushSizeMatchesReference) {
  const GraphSchema schema = LongNameSchema();
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 4000; ++i) edges.push_back(Edge{i, 0, i * 7919});
  ASSERT_GT(ReferenceNTriples(schema, edges).size(),
            2 * internal::LineBuffer::kFlushBytes);
  ExpectBothFormatsMatch(schema, edges);
}

TEST(GraphIoFormatTest, EmptyBlockWritesNothing) {
  const GraphSchema schema = LongNameSchema();
  ExpectBothFormatsMatch(schema, {});
  RecordingBuf buf;
  std::ostream out(&buf);
  NTriplesSink sink(&out, &schema);
  sink.AppendBlock({});
  EXPECT_TRUE(buf.writes().empty());
}

TEST(GraphIoFormatTest, BlockIsWrittenInFlushSizedPiecesAndNothingLingers) {
  const GraphSchema schema = LongNameSchema();
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 4000; ++i) edges.push_back(Edge{i, 0, i + 1});
  const std::string expected = ReferenceNTriples(schema, edges);
  RecordingBuf buf;
  std::ostream out(&buf);
  NTriplesSink sink(&out, &schema);
  sink.AppendBlock(edges);
  // Everything reached the stream by the end of the call...
  EXPECT_EQ(buf.bytes(), expected.size());
  // ...in writes of at least the flush size (all but the last), each
  // overshooting it by less than one line.
  const size_t flush = internal::LineBuffer::kFlushBytes;
  ASSERT_GE(buf.writes().size(), 2u);
  for (size_t i = 0; i + 1 < buf.writes().size(); ++i) {
    EXPECT_GE(buf.writes()[i], flush);
    EXPECT_LT(buf.writes()[i], flush + 128);
  }
  EXPECT_EQ(buf.writes().size(), (expected.size() + flush - 1) / flush);
  // A single Append is a single write.
  sink.Append(1, 0, 2);
  EXPECT_EQ(buf.writes().back(),
            ReferenceNTriples(schema, {{1, 0, 2}}).size());
}

TEST(GraphIoFormatTest, WriteNTriplesWithTypesMatchesReference) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = GenerateGraph(config).ValueOrDie();
  std::vector<Edge> edges;
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    g.ForEachEdge(p, [&](NodeId s, NodeId t) { edges.push_back({s, p, t}); });
  }
  std::ostringstream expected;
  expected << ReferenceNTriples(config.schema, edges);
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    expected << "<http://gmark/n" << v << "> <http://gmark/type> \""
             << config.schema.TypeName(g.TypeOf(v)) << "\" .\n";
  }
  std::ostringstream out;
  ASSERT_TRUE(
      WriteNTriples(g, config.schema, &out, /*include_node_types=*/true)
          .ok());
  EXPECT_EQ(out.str(), expected.str());

  std::ostringstream csv;
  ASSERT_TRUE(WriteCsv(g, config.schema, &csv).ok());
  EXPECT_EQ(csv.str(), ReferenceCsv(config.schema, edges));
}

// ---------------------------------------------------------------------
// Stream state.

TEST(GraphIoStreamTest, FormatFlagsDoNotChangeIds) {
  // Behaviour change: ids used to follow the stream's flags (hex,
  // showpos, width); IRIs and rows are now always plain decimal.
  GraphConfiguration config = MakeBibConfig(1000);
  std::ostringstream nt;
  nt << std::hex << std::showpos << std::uppercase << std::setw(30);
  NTriplesSink nt_sink(&nt, &config.schema);
  nt_sink.Append(10, 0, 255);
  nt_sink.AppendBlock(std::vector<Edge>{{26, 0, 3}});
  EXPECT_EQ(nt.str(),
            "<http://gmark/n10> <http://gmark/p/authors> <http://gmark/n255> "
            ".\n"
            "<http://gmark/n26> <http://gmark/p/authors> <http://gmark/n3> "
            ".\n");

  std::ostringstream csv;
  csv << std::hex << std::showpos << std::setw(30);
  CsvSink csv_sink(&csv, &config.schema);
  csv_sink.Append(10, 1, 255);
  EXPECT_EQ(csv.str(), "source,predicate,target\n10,publishedIn,255\n");

  Graph g = GenerateGraph(MakeBibConfig(200, 3)).ValueOrDie();
  std::ostringstream plain, flagged;
  flagged << std::hex << std::showpos;
  ASSERT_TRUE(WriteNTriples(g, config.schema, &plain, true).ok());
  ASSERT_TRUE(WriteNTriples(g, config.schema, &flagged, true).ok());
  EXPECT_EQ(plain.str(), flagged.str());
}

TEST(GraphIoStreamTest, WriteNTriplesReportsStreamFailure) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = GenerateGraph(config).ValueOrDie();
  for (bool types : {false, true}) {
    std::ostringstream out;
    out.setstate(std::ios::badbit);
    Status st = WriteNTriples(g, config.schema, &out, types);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIOError()) << st;
  }
}

TEST(GraphIoStreamTest, DrainIntoFailingStreamLeavesStreamBad) {
  // The stream refuses bytes part-way through the drain; the caller's
  // `if (!out)` check after ParallelGenerateToSink must see it, through
  // both the in-memory and the spilled block replay.
  const GraphConfiguration config = MakeBibConfig(5000, 42);
  for (bool spill : {false, true}) {
    GeneratorOptions options;
    options.num_threads = 2;
    options.chunk_size = 512;
    if (spill) {
      options.spill_threshold_bytes = 0;
      options.spill_dir = ::testing::TempDir();
    }
    CountingSink counter;
    ASSERT_TRUE(ParallelGenerateToSink(config, &counter, options).ok());
    for (bool csv : {false, true}) {
      RecordingBuf buf(/*limit=*/100000);
      std::ostream out(&buf);
      std::optional<NTriplesSink> nt_sink;
      std::optional<CsvSink> csv_sink;
      EdgeSink* sink = csv ? static_cast<EdgeSink*>(
                                 &csv_sink.emplace(&out, &config.schema))
                           : &nt_sink.emplace(&out, &config.schema);
      Status st = ParallelGenerateToSink(config, sink, options);
      EXPECT_TRUE(st.ok()) << st;
      EXPECT_FALSE(out) << "spill=" << spill << " csv=" << csv;
      EXPECT_EQ(buf.bytes(), 100000u);
      // The sink counts what it formatted, reached the stream or not.
      EXPECT_EQ(sink->count(), counter.count());
    }
  }
}

TEST(GraphIoTest, WriteCsvEmitsHeaderAndEveryEdge) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = GenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(g, config.schema, &out).ok());
  size_t rows = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, g.num_edges() + 1);  // Header plus one row per edge.
  EXPECT_EQ(out.str().rfind("source,predicate,target\n", 0), 0u);
}

TEST(GraphIoTest, WriteCsvReportsStreamFailure) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = GenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  Status st = WriteCsv(g, config.schema, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST(GraphIoTest, NTriplesRoundTripPreservesEdges) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = GenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(WriteNTriples(g, config.schema, &out).ok());
  std::istringstream in(out.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->size(), g.num_edges());
  // Rebuild and compare per-predicate counts.
  Graph g2 = Graph::Build(g.layout(), config.schema.predicate_count(),
                          std::move(*edges))
                 .ValueOrDie();
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    EXPECT_EQ(g.EdgeCount(p), g2.EdgeCount(p));
  }
}

TEST(GraphIoTest, TypeTriplesAreWrittenAndSkippedOnRead) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = GenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(
      WriteNTriples(g, config.schema, &out, /*include_node_types=*/true)
          .ok());
  EXPECT_NE(out.str().find("<http://gmark/type>"), std::string::npos);
  EXPECT_NE(out.str().find("\"researcher\""), std::string::npos);
  std::istringstream in(out.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->size(), g.num_edges());
}

TEST(GraphIoTest, RoundTripSurvivesMultiWordTypeNames) {
  // A type name containing a space splits its type triple into more
  // than four tokens; the reader must skip type triples before the
  // token-count shape check or it rejects files the writer produced.
  GraphConfiguration config;
  config.num_nodes = 40;
  config.seed = 5;
  GraphSchema& s = config.schema;
  ASSERT_TRUE(s.AddType("white paper", OccurrenceConstraint::Fixed(20)).ok());
  ASSERT_TRUE(
      s.AddType("review board", OccurrenceConstraint::Fixed(20)).ok());
  ASSERT_TRUE(s.AddPredicate("cites").ok());
  ASSERT_TRUE(s.AddEdgeConstraintByName(
                   "white paper", "cites", "review board",
                   DistributionSpec::NonSpecified(),
                   DistributionSpec::Uniform(1, 3))
                  .ok());
  Graph g = GenerateGraph(config).ValueOrDie();
  ASSERT_GT(g.num_edges(), 0u);
  std::ostringstream out;
  ASSERT_TRUE(
      WriteNTriples(g, config.schema, &out, /*include_node_types=*/true)
          .ok());
  ASSERT_NE(out.str().find("\"white paper\""), std::string::npos);
  std::istringstream in(out.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->size(), g.num_edges());
}

TEST(GraphIoTest, ReadSkipsCommentsAndBlankLines) {
  GraphConfiguration config = MakeBibConfig(100);
  std::istringstream in(
      "# comment\n\n"
      "<http://gmark/n1> <http://gmark/p/authors> <http://gmark/n2> .\n");
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok());
  ASSERT_EQ(edges->size(), 1u);
  EXPECT_EQ((*edges)[0], (Edge{1, 0, 2}));
}

TEST(GraphIoTest, ReadRejectsMalformedLines) {
  GraphConfiguration config = MakeBibConfig(100);
  {
    std::istringstream in("<http://gmark/n1> <http://gmark/p/authors>\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    // Truncated type triples are corruption, not skippable noise.
    std::istringstream in("<http://gmark/n1> <http://gmark/type>\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    std::istringstream in(
        "<http://gmark/n1> <http://gmark/type> \"researcher\"\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    std::istringstream in(
        "<http://gmark/n1> <http://gmark/p/unknownPred> <http://gmark/n2> "
        ".\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    std::istringstream in(
        "<bad> <http://gmark/p/authors> <http://gmark/n2> .\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  // Node ids are decimal digits only: no sign, no padding, no overflow.
  for (const char* line :
       {"<http://gmark/n-5> <http://gmark/p/authors> <http://gmark/n2> .\n",
        "<http://gmark/n+5> <http://gmark/p/authors> <http://gmark/n2> .\n",
        "<http://gmark/n1> <http://gmark/p/authors> <http://gmark/n-5> .\n",
        "<http://gmark/n> <http://gmark/p/authors> <http://gmark/n2> .\n",
        "<http://gmark/n0x1> <http://gmark/p/authors> <http://gmark/n2> .\n",
        "<http://gmark/n18446744073709551616> <http://gmark/p/authors> "
        "<http://gmark/n2> .\n"}) {
    std::istringstream in(line);
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok()) << line;
  }
}

TEST(GraphIoTest, ReadAcceptsTheFullNodeIdRange) {
  GraphConfiguration config = MakeBibConfig(100);
  std::istringstream in(
      "<http://gmark/n18446744073709551615> <http://gmark/p/authors> "
      "<http://gmark/n0> .\n");
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  ASSERT_EQ(edges->size(), 1u);
  EXPECT_EQ((*edges)[0],
            (Edge{std::numeric_limits<NodeId>::max(), 0, 0}));
}

}  // namespace
}  // namespace gmark
