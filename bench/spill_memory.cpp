// Spill-to-disk ablation: peak edge memory and throughput of the
// streaming generator, in-memory ShardedSink vs disk-backed SpillSink.
//
// Expected shape: the in-memory path's peak edge bytes equal the whole
// edge set (it is the store), growing linearly with n; the spill path's
// peak stays at ~ num_threads * chunk_size edges regardless of n — the
// generator is disk-bound, not memory-bound. Throughput costs one write
// + one read of the edge set, so expect a constant-factor slowdown,
// shrinking as the page cache absorbs the files.
//
// GMARK_SIZES=<a,b,c> picks graph sizes; GMARK_THREADS_SPILL=<k> picks
// the worker count; GMARK_SMOKE=1 shrinks everything for CI runs. Exits
// non-zero when a run fails (generation error or a bad output stream)
// or the two paths export different edge counts.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "parallel/parallel_generator.h"
#include "util/timer.h"

using namespace gmark;

namespace {

using bench::PeakRssBytes;
using bench::SmokeMode;

int Threads() {
  if (const char* env = std::getenv("GMARK_THREADS_SPILL")) {
    auto v = ParseInt(env);
    if (v.ok() && v.ValueOrDie() > 0) {
      return static_cast<int>(v.ValueOrDie());
    }
  }
  return 4;
}

struct Run {
  double seconds = 0.0;
  GenerateStats stats;
  bool ok = false;
};

Run TimeRun(const GraphConfiguration& config, int threads, bool spill) {
  GeneratorOptions options;
  options.num_threads = threads;
  if (spill) options.spill_threshold_bytes = 0;  // Always spill.
  std::ofstream null_out("/dev/null", std::ios::binary);
  NTriplesSink sink(&null_out, &config.schema);
  Run run;
  WallTimer timer;
  Status st = ParallelGenerateToSink(config, &sink, options, &run.stats);
  null_out.flush();
  run.seconds = timer.ElapsedSeconds();
  if (st.ok() && !null_out) st = Status::IOError("stream write failed");
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    run.stats = {};
    return run;
  }
  run.ok = true;
  return run;
}

void PrintRun(UseCase use_case, int64_t n, const char* label,
              const Run& run) {
  const double eps = run.seconds > 0.0
                         ? static_cast<double>(run.stats.total_edges) /
                               run.seconds
                         : 0.0;
  std::printf("%-4s n=%-9lld %-9s %9.3fs %8.2fM edges/s  "
              "peak edge mem %9.2f MiB  VmHWM %8.1f MiB\n",
              UseCaseName(use_case), static_cast<long long>(n), label,
              run.seconds, eps / 1e6,
              static_cast<double>(run.stats.peak_resident_edge_bytes) /
                  (1024.0 * 1024.0),
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
}

}  // namespace

int main() {
  bench::PrintHeader("Spill-to-disk streaming generation",
                     "extends paper §6 (scaling instance generation)");
  const std::vector<int64_t> sizes =
      SmokeMode() ? std::vector<int64_t>{100000}
                  : bench::Sizes({300000, 1000000}, {10000000, 100000000});
  const int threads = Threads();
  bool ok = true;

  // Spill before in-memory within each config: VmHWM is a process-wide
  // high-water mark, so the low-memory run must come first for its
  // column to mean anything.
  for (UseCase use_case : {UseCase::kBib, UseCase::kLsn}) {
    for (int64_t n : sizes) {
      GraphConfiguration config = MakeUseCase(use_case, n, 42);
      const Run spill = TimeRun(config, threads, true);
      PrintRun(use_case, n, "spill", spill);
      const Run resident = TimeRun(config, threads, false);
      PrintRun(use_case, n, "resident", resident);
      if (!spill.ok || !resident.ok ||
          spill.stats.total_edges != resident.stats.total_edges) {
        std::fprintf(stderr, "CHECK FAILED: %s n=%lld\n",
                     UseCaseName(use_case), static_cast<long long>(n));
        ok = false;
      }
    }
  }
  std::printf(
      "\n(\"peak edge mem\" is the shard store's high-water mark: the whole\n"
      "edge set for the resident path, ~threads*chunk_size edges for the\n"
      "spill path. VmHWM is process-wide and monotone, hence spill-first\n"
      "ordering; the resident rows lift it by roughly the edge-set size.)\n");
  return ok ? 0 : 1;
}
