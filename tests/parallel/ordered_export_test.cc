// The ordered text export of ParallelGenerateToSink: shards formatted on
// the workers, a window of 2 x workers at a time, and written in shard
// order by the calling thread. Its output must equal, byte for byte,
// the same edges formatted serially — the generator's edge stream
// (collected through the non-text drain into a VectorSink) replayed
// through one TextEdgeSink::AppendBlock — at every thread count, chunk
// size and spill mode, with count() matching.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

GeneratorOptions ExportOptions(int threads, int64_t chunk_size, bool spill) {
  GeneratorOptions options;
  options.num_threads = threads;
  options.chunk_size = chunk_size;
  if (spill) {
    options.spill_threshold_bytes = 0;
    options.spill_dir = ::testing::TempDir();
  }
  return options;
}

/// One constraint, a -p-> b, with exactly 2 edges per `a` node: `nodes`
/// edges in all, so a chunk size fixes the shard count.
GraphConfiguration FixedEdgeCountConfig(int64_t nodes) {
  GraphConfiguration config;
  config.name = "fixed";
  config.num_nodes = nodes;
  config.seed = 11;
  GraphSchema& s = config.schema;
  EXPECT_TRUE(s.AddType("a", OccurrenceConstraint::Fixed(nodes / 2)).ok());
  EXPECT_TRUE(s.AddType("b", OccurrenceConstraint::Fixed(nodes / 2)).ok());
  EXPECT_TRUE(s.AddPredicate("p").ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("a", "p", "b",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(2, 2))
                  .ok());
  return config;
}

/// The bytes `Sink` writes for `edges` in one AppendBlock call,
/// including CsvSink's header.
template <typename Sink>
std::string FormatSerially(const GraphSchema& schema,
                           const std::vector<Edge>& edges) {
  std::ostringstream out;
  Sink sink(&out, &schema);
  sink.AppendBlock(edges);
  return out.str();
}

/// Export through ParallelGenerateToSink into a `Sink` and compare it
/// with the serial formatting of the same run's edge stream.
template <typename Sink>
void ExpectOrderedExportMatches(const GraphConfiguration& config,
                                const GeneratorOptions& options,
                                const std::vector<Edge>& edges,
                                const std::string& label) {
  std::ostringstream out;
  Sink sink(&out, &config.schema);
  Status st = ParallelGenerateToSink(config, &sink, options);
  ASSERT_TRUE(st.ok()) << st << " " << label;
  EXPECT_TRUE(out) << label;
  EXPECT_EQ(sink.count(), edges.size()) << label;
  // EXPECT_TRUE, not EXPECT_EQ: a diff of a megabyte string is noise.
  EXPECT_TRUE(out.str() == FormatSerially<Sink>(config.schema, edges))
      << label;
}

void ExpectBothFormatsMatch(const GraphConfiguration& config,
                            const GeneratorOptions& options,
                            const std::string& label) {
  VectorSink stream;
  ASSERT_TRUE(ParallelGenerateToSink(config, &stream, options).ok()) << label;
  ASSERT_FALSE(stream.edges().empty()) << label;
  ExpectOrderedExportMatches<NTriplesSink>(config, options, stream.edges(),
                                           label + " nt");
  ExpectOrderedExportMatches<CsvSink>(config, options, stream.edges(),
                                      label + " csv");
}

TEST(OrderedExportTest, MatchesSerialFormattingAcrossThreadsChunksAndSpill) {
  const GraphConfiguration config = MakeBibConfig(500, 42);
  for (int threads : {1, 2, 3, 8}) {
    for (int64_t chunk_size : {1, 7, 512, 65536}) {
      for (bool spill : {false, true}) {
        ExpectBothFormatsMatch(
            config, ExportOptions(threads, chunk_size, spill),
            "threads=" + std::to_string(threads) +
                " chunk=" + std::to_string(chunk_size) +
                " spill=" + std::to_string(spill));
      }
    }
  }
}

TEST(OrderedExportTest, ShardCountNotAMultipleOfTheWindow) {
  // 100 edges in chunks of 7: 15 shards, a partial last window at every
  // thread count (windows of 2 x workers: 4, 6, 8 and 32 shards).
  const GraphConfiguration config = FixedEdgeCountConfig(100);
  CountingSink counter;
  ASSERT_TRUE(
      ParallelGenerateToSink(config, &counter, ExportOptions(1, 7, false))
          .ok());
  ASSERT_EQ(counter.count(), 100u);
  for (int threads : {1, 2, 3, 8}) {
    for (bool spill : {false, true}) {
      ExpectBothFormatsMatch(config, ExportOptions(threads, 7, spill),
                             "threads=" + std::to_string(threads) +
                                 " spill=" + std::to_string(spill));
    }
  }
}

TEST(OrderedExportTest, SingleShard) {
  // All 100 edges fit one chunk: one shard, one window, one write.
  const GraphConfiguration config = FixedEdgeCountConfig(100);
  for (int threads : {1, 3}) {
    for (bool spill : {false, true}) {
      ExpectBothFormatsMatch(config, ExportOptions(threads, 65536, spill),
                             "threads=" + std::to_string(threads) +
                                 " spill=" + std::to_string(spill));
    }
  }
}

TEST(OrderedExportTest, SpilledTextExportKeepsPeakEdgeMemoryBounded) {
  // The workers read spilled shards through concurrent VisitRange
  // calls, at most one per worker, so the resident edge bytes stay
  // within threads x chunk_size edges.
  const GraphConfiguration config = MakeBibConfig(20000, 42);
  for (int threads : {1, 4}) {
    std::ostringstream out;
    NTriplesSink sink(&out, &config.schema);
    GenerateStats stats;
    ASSERT_TRUE(ParallelGenerateToSink(config, &sink,
                                       ExportOptions(threads, 512, true),
                                       &stats)
                    .ok());
    EXPECT_TRUE(stats.spilled);
    EXPECT_EQ(sink.count(), stats.total_edges);
    EXPECT_GT(stats.peak_resident_edge_bytes, 0u);
    EXPECT_LE(stats.peak_resident_edge_bytes,
              static_cast<size_t>(threads) * 512 * sizeof(Edge))
        << "threads=" << threads;
  }
}

TEST(OrderedExportTest, FormatBlockAppendsWhatAppendBlockWrites) {
  const GraphConfiguration config = MakeBibConfig(500, 3);
  VectorSink stream;
  ASSERT_TRUE(ParallelGenerateToSink(config, &stream).ok());
  const std::vector<Edge>& edges = stream.edges();
  std::ostringstream out;
  NTriplesSink sink(&out, &config.schema);
  // Appends after what the buffer already holds.
  std::vector<char> text = {'#'};
  const size_t half = edges.size() / 2;
  sink.FormatBlock({edges.data(), half}, &text);
  sink.FormatBlock({edges.data() + half, edges.size() - half}, &text);
  EXPECT_EQ(std::string(text.begin(), text.end()),
            "#" + FormatSerially<NTriplesSink>(config.schema, edges));
  // Formatting alone writes and counts nothing.
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OrderedExportTest, WriteFormattedCountsEvenIntoABadStream) {
  const GraphConfiguration config = MakeBibConfig(500, 3);
  std::ostringstream out;
  CsvSink sink(&out, &config.schema);
  const std::string header = out.str();
  const std::string text = "1,p,2\n3,p,4\n";
  sink.WriteFormatted(text, 2);
  EXPECT_EQ(out.str(), header + text);
  out.setstate(std::ios::badbit);
  sink.WriteFormatted(text, 2);
  EXPECT_EQ(out.str(), header + text);
  EXPECT_EQ(sink.count(), 4u);
}

}  // namespace
}  // namespace gmark
