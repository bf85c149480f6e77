// Parallel generator scalability: edges/sec at 1/2/4/8 threads vs the
// serial Fig. 5 implementation, on the Table 3 scalability schemas.
//
// Expected shape: near-linear scaling while threads <= physical cores
// (the build and emission phases are embarrassingly parallel; only the
// per-side shuffles and the final drain are serial), flattening once
// memory bandwidth saturates. The "serial" row is the original
// single-RandomEngine path; "par x1" is the parallel algorithm inline,
// so their gap is the pure cost of chunked RNG derivation.
//
// GMARK_SIZES=<n> picks graph sizes; GMARK_THREADS=a,b,c picks thread
// counts; GMARK_SMOKE=1 shrinks everything for CI smoke runs.

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "core/use_cases.h"
#include "graph/generator.h"
#include "parallel/parallel_generator.h"
#include "util/timer.h"

using namespace gmark;

namespace {

using bench::SmokeMode;
using bench::ThreadCounts;

struct Run {
  double seconds = 0.0;
  size_t edges = 0;
  double EdgesPerSec() const {
    return seconds > 0.0 ? static_cast<double>(edges) / seconds : 0.0;
  }
};

Run TimeSerial(const GraphConfiguration& config) {
  CountingSink sink;
  WallTimer timer;
  Status st = GenerateEdges(config, &sink);
  Run r{timer.ElapsedSeconds(), st.ok() ? sink.count() : 0};
  return r;
}

Run TimeParallel(const GraphConfiguration& config, int threads) {
  GeneratorOptions options;
  options.num_threads = threads;
  CountingSink sink;
  WallTimer timer;
  Status st = ParallelGenerateToSink(config, &sink, options);
  Run r{timer.ElapsedSeconds(), st.ok() ? sink.count() : 0};
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("Parallel generation speedup",
                     "extends paper Table 3 (generator scalability)");
  const std::vector<int64_t> sizes =
      SmokeMode() ? std::vector<int64_t>{100000}
                  : bench::Sizes({1000000}, {10000000});
  const std::vector<int> thread_counts = ThreadCounts();

  for (UseCase use_case :
       {UseCase::kBib, UseCase::kLsn, UseCase::kWd, UseCase::kSp}) {
    for (int64_t n : sizes) {
      GraphConfiguration config = MakeUseCase(use_case, n, 42);
      Run serial = TimeSerial(config);
      std::printf("%-4s n=%-9lld %-8s %9.3fs  %8.2fM edges/s\n",
                  UseCaseName(use_case), static_cast<long long>(n), "serial",
                  serial.seconds, serial.EdgesPerSec() / 1e6);
      Run baseline;
      for (int threads : thread_counts) {
        Run run = TimeParallel(config, threads);
        if (threads == thread_counts.front()) baseline = run;
        const double speedup =
            run.seconds > 0.0 ? baseline.seconds / run.seconds : 0.0;
        char label[32];
        std::snprintf(label, sizeof(label), "par x%d", threads);
        std::printf("%-4s n=%-9lld %-8s %9.3fs  %8.2fM edges/s  "
                    "(%.2fx vs par x%d)\n",
                    UseCaseName(use_case), static_cast<long long>(n), label,
                    run.seconds, run.EdgesPerSec() / 1e6, speedup,
                    thread_counts.front());
      }
    }
  }
  std::printf(
      "\n(speedups are relative to the parallel path at the first thread\n"
      "count; the serial row is the original generator for reference.\n"
      "Expect ~linear scaling up to physical cores, then bandwidth-bound.)\n");
  return 0;
}
