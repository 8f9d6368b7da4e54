// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints (a) the paper's expected shape for the experiment it
// regenerates and (b) the measured numbers, in aligned table form. The
// absolute values come from the calibrated simulator; EXPERIMENTS.md records
// the comparison against the paper.
#ifndef BIZA_BENCH_BENCH_UTIL_H_
#define BIZA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rss.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace biza {

// BIZA_FULL_GEOMETRY=1 swaps every bench testbed for the real ZN540 layout
// (904 zones x 1077 MiB per SSD). Sparse zone state keeps resident memory
// proportional to written data, so the figures run at true scale; expect
// longer wall-clock since workloads push proportionally more data.
inline bool FullGeometryEnabled() {
  const char* env = std::getenv("BIZA_FULL_GEOMETRY");
  return env != nullptr && env[0] == '1';
}

// The standard 4 x ZN540 testbed: scaled down to 96 zones x 8 MiB per SSD by
// default, the full ZN540 geometry under BIZA_FULL_GEOMETRY=1.
inline PlatformConfig BenchConfig(uint64_t seed = 1) {
  PlatformConfig config;
  config.zns = FullGeometryEnabled()
                   ? ZnsConfig::Zn540(ZnsConfig::kFullZn540Zones,
                                      ZnsConfig::kFullZn540ZoneBlocks)
                   : ZnsConfig::Zn540(/*num_zones=*/96,
                                      /*zone_capacity_blocks=*/2048);
  config.MatchConvCapacity();
  config.seed = seed;
  return config;
}

// A larger testbed for throughput experiments (less GC interference).
inline PlatformConfig ThroughputConfig(uint64_t seed = 1) {
  PlatformConfig config;
  config.zns = FullGeometryEnabled()
                   ? ZnsConfig::Zn540(ZnsConfig::kFullZn540Zones,
                                      ZnsConfig::kFullZn540ZoneBlocks)
                   : ZnsConfig::Zn540(/*num_zones=*/128,
                                      /*zone_capacity_blocks=*/6144);
  config.MatchConvCapacity();
  config.seed = seed;
  return config;
}

inline void PrintTitle(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline void PrintPaperNote(const char* note) {
  std::printf("paper: %s\n\n", note);
}

// Ideal RAID 5 write throughput: k devices stream data while one absorbs
// parity (§5.2: 6.4 GB/s for 4 x ZN540).
inline double IdealWriteMBps(const PlatformConfig& config) {
  return static_cast<double>(config.num_ssds - 1) *
         config.zns.timing.ctrl_write_mbps;
}

inline double IdealReadMBps(const PlatformConfig& config) {
  return static_cast<double>(config.num_ssds) * config.zns.timing.ctrl_read_mbps;
}

// ---------------------------------------------------------------------------
// Seed replication.
//
// Figure benches run every data point BenchSeeds() times (default 5,
// override with BIZA_BENCH_SEEDS=N) with shifted RNG seeds and report
// mean ± stddev, so single-seed noise can't masquerade as a paper effect.

inline int BenchSeeds() {
  if (const char* env = std::getenv("BIZA_BENCH_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 5;
}

struct SeedStat {
  double mean = 0.0;
  double stddev = 0.0;
};

inline SeedStat MeanStddev(const std::vector<double>& xs) {
  SeedStat out;
  if (xs.empty()) {
    return out;
  }
  for (double x : xs) {
    out.mean += x;
  }
  out.mean /= static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double ss = 0.0;
    for (double x : xs) {
      ss += (x - out.mean) * (x - out.mean);
    }
    out.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  }
  return out;
}

// Runs `job(seed)` for seeds 0..BenchSeeds()-1, concurrently via the
// parallel experiment runner, and returns the per-seed results in seed
// order. T is whatever the job returns.
template <typename F>
auto RunSeeded(F job) -> std::vector<decltype(job(uint64_t{0}))> {
  using T = decltype(job(uint64_t{0}));
  std::vector<std::function<T()>> jobs;
  const int n = BenchSeeds();
  jobs.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    jobs.push_back([job, s]() { return job(static_cast<uint64_t>(s)); });
  }
  return RunExperiments(std::move(jobs));
}

// Runs a write microbenchmark on a block platform. RAIZN (zoned) callers use
// ZonedSeqDriver directly.
inline DriverReport RunBlockMicro(Simulator* sim, Platform* platform,
                                  bool sequential, bool write,
                                  uint64_t request_blocks, int iodepth,
                                  uint64_t max_requests, SimTime max_duration) {
  MicroWorkload workload(sequential, write, request_blocks,
                         platform->block()->capacity_blocks(), 7);
  Driver driver(sim, platform->block(), &workload, iodepth);
  return driver.Run(max_requests, max_duration);
}

// ---------------------------------------------------------------------------
// Bench harness instrumentation.
//
// Every experiment job records the fired-event count of its Simulator before
// returning; the BenchMetricScope that wraps a bench's main() prints one
// machine-readable BENCH_METRIC line (wall-clock, total simulated events,
// events/sec, runner thread count) that tools/run_benches.sh collects into
// BENCH_sim.json. Keeping the line format stable is what lets the perf
// trajectory of the simulator be tracked across PRs.

inline std::atomic<uint64_t>& FiredEventCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

// Host bytes moved by the simulated workloads (writes + reads), summed across
// experiment jobs. Feeds the rss_mb_per_sim_gib figure of merit: peak host
// memory per simulated GiB of user I/O.
inline std::atomic<uint64_t>& SimulatedBytesCounter() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

// Call at the end of every experiment job (thread-safe).
inline void RecordSimEvents(const Simulator& sim) {
  FiredEventCounter().fetch_add(sim.fired_events(), std::memory_order_relaxed);
}

inline void RecordSimEvents(const Simulator& sim, const DriverReport& report) {
  RecordSimEvents(sim);
  SimulatedBytesCounter().fetch_add(report.bytes_written + report.bytes_read,
                                    std::memory_order_relaxed);
}

// Logical events the NVMe frontend's batching collapsed into single sim
// events: SQEs that rode an already-scheduled doorbell plus CQEs drained by
// an already-scheduled interrupt (NvmeQueueStats::absorbed_events()). Added
// to the fired-event count so BENCH_METRIC reports *logical command events*
// per second. Without this, a frontend doing strictly less heap work per
// command would report a lower events/s than the legacy path it beats on
// wall clock — the raw counter only sees the events that still fire.
inline void RecordAbsorbedEvents(uint64_t n) {
  FiredEventCounter().fetch_add(n, std::memory_order_relaxed);
}

class BenchMetricScope {
 public:
  explicit BenchMetricScope(const char* id)
      : id_(id), start_(std::chrono::steady_clock::now()) {}

  ~BenchMetricScope() {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    const uint64_t events = FiredEventCounter().load(std::memory_order_relaxed);
    const uint64_t sim_bytes =
        SimulatedBytesCounter().load(std::memory_order_relaxed);
    const double rss_mb = static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
    const double sim_gib =
        static_cast<double>(sim_bytes) / (1024.0 * 1024.0 * 1024.0);
    std::printf(
        "\nBENCH_METRIC {\"bench\":\"%s\",\"wall_s\":%.3f,\"events\":%llu,"
        "\"events_per_s\":%.0f,\"threads\":%d,"
        "\"full_geometry\":%d,"
        "\"rss_peak_mb\":%.1f,\"sim_gib\":%.3f,\"rss_mb_per_sim_gib\":%.2f}\n",
        id_, wall_s, static_cast<unsigned long long>(events),
        wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0,
        DefaultExperimentThreads(), FullGeometryEnabled() ? 1 : 0,
        rss_mb, sim_gib, sim_gib > 0 ? rss_mb / sim_gib : 0.0);
  }

 private:
  const char* id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace biza

#endif  // BIZA_BENCH_BENCH_UTIL_H_
