// NVMe queue-pair frontend: submission/completion cost of the modeled
// SQ/CQ path versus the legacy per-command dispatch it replaces.
//
// The fig10-style write series runs once on the legacy path and once per
// (queues, qd) point with the queue frontend enabled. Batched doorbells
// collapse N submissions into one ring event and coalesced interrupts drain
// whole completion batches with one host event, so the queued runs fire
// strictly fewer sim events per logical command — RecordAbsorbedEvents folds
// the collapsed SQEs/CQEs back in so BENCH_METRIC counts logical command
// events per second, comparable across both paths.
//
// Machine-readable NVME_FRONTEND lines (one per series) feed
// tools/compare_bench.py; the BENCH_METRIC events/s of this bench is the
// gate the CI QD-sweep smoke checks against the committed baseline.
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"

namespace biza {
namespace {

struct FrontendCell {
  double mbps = 0;
  double avg_us = 0;
  double p99_us = 0;
  uint64_t commands = 0;
  uint64_t doorbells = 0;
  uint64_t interrupts = 0;
  uint64_t absorbed = 0;  // coalesced SQEs + CQEs (events that never fired)
  uint64_t qd_stalls = 0;
  uint64_t max_batch = 0;
  uint64_t fired_events = 0;
  double wall_s = 0;  // this job's wall clock (parallel, so indicative only)
};

struct Series {
  const char* name;
  bool nvme;
  int queues;
  int qd;
  // 0 = keep NvmeQueueConfig defaults. The tuned row densifies coalescing
  // (higher CQE threshold, longer timer) so one doorbell/interrupt carries
  // a whole iodepth worth of commands.
  uint32_t irq_threshold;
  SimTime irq_timer_ns;
};

FrontendCell RunCase(const Series& s, uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  Simulator sim;
  PlatformConfig config = ThroughputConfig(1 + seed);
  if (s.nvme) {
    NvmeQueueConfig nq;
    nq.enabled = true;
    nq.num_queues = s.queues;
    nq.queue_depth = s.qd;
    if (s.irq_threshold > 0) {
      nq.irq_threshold = s.irq_threshold;
    }
    if (s.irq_timer_ns > 0) {
      nq.irq_timer_ns = s.irq_timer_ns;
    }
    config.zns.nvme = nq;
    config.conv.nvme = nq;
  }
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);
  const DriverReport report =
      RunBlockMicro(&sim, platform.get(), /*sequential=*/true, /*write=*/true,
                    /*request_blocks=*/1, /*iodepth=*/64,
                    /*max_requests=*/400000, 3 * kSecond);

  FrontendCell cell;
  cell.mbps = report.WriteMBps();
  cell.avg_us = report.write_latency.Mean() / 1e3;
  cell.p99_us = report.write_latency.Percentile(99.0) / 1e3;
  for (const ZnsDevice* dev : platform->zns_devices()) {
    const NvmeQueueStats& qs = dev->nvme_queue().stats();
    cell.commands += qs.commands;
    cell.doorbells += qs.doorbells;
    cell.interrupts += qs.interrupts;
    cell.absorbed += qs.absorbed_events();
    cell.qd_stalls += qs.qd_stalls;
    cell.max_batch = std::max(cell.max_batch, qs.max_batch);
  }
  cell.fired_events = sim.fired_events() + cell.absorbed;
  RecordSimEvents(sim, report);
  RecordAbsorbedEvents(cell.absorbed);
  cell.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return cell;
}

void Run() {
  PrintTitle("NVMe frontend",
             "queue-pair submission vs legacy per-command dispatch");
  PrintPaperNote(
      "doorbell batching and interrupt coalescing amortize per-command sim "
      "events; same device service model underneath, so bandwidth holds "
      "while host-side events per command drop");

  // legacy = per-command dispatch (the path the frontend replaces); the
  // qd sweep shows queue-depth backpressure; q4_qd64_coal is the headline
  // batching + coalescing row (one doorbell/irq per ~iodepth commands).
  const std::vector<Series> series = {
      {"legacy", false, 0, 0, 0, 0},
      {"q1_qd1", true, 1, 1, 0, 0},
      {"q1_qd16", true, 1, 16, 0, 0},
      {"q1_qd64", true, 1, 64, 0, 0},
      {"q4_qd64", true, 4, 64, 0, 0},
      {"q1_qd64_coal", true, 1, 64, 32, 64 * kMicrosecond},
      {"q4_qd64_coal", true, 4, 64, 32, 64 * kMicrosecond},
  };

  const int nseeds = BenchSeeds();
  std::vector<std::function<FrontendCell()>> jobs;
  for (const Series& s : series) {
    for (int seed = 0; seed < nseeds; ++seed) {
      jobs.push_back(
          [s, seed]() { return RunCase(s, static_cast<uint64_t>(seed)); });
    }
  }
  const std::vector<FrontendCell> results = RunExperiments(std::move(jobs));

  std::printf("%d seeds per row, sequential 4 KiB writes, iodepth 64\n\n",
              nseeds);
  std::printf("%-10s %10s %8s %8s %12s %12s %10s %9s\n", "series", "MB/s",
              "avg_us", "p99_us", "cmds/dbell", "cmds/irq", "qd_stalls",
              "max_batch");

  double legacy_events_per_wall = 0;
  double coal_events_per_wall = 0;
  double coal_absorbed_share = 0;
  size_t job_index = 0;
  for (const Series& s : series) {
    std::vector<double> mbps, avg, p99;
    FrontendCell sum;
    double wall = 0;
    uint64_t events = 0;
    for (int seed = 0; seed < nseeds; ++seed) {
      const FrontendCell& c = results[job_index++];
      mbps.push_back(c.mbps);
      avg.push_back(c.avg_us);
      p99.push_back(c.p99_us);
      sum.commands += c.commands;
      sum.doorbells += c.doorbells;
      sum.interrupts += c.interrupts;
      sum.absorbed += c.absorbed;
      sum.qd_stalls += c.qd_stalls;
      sum.max_batch = std::max(sum.max_batch, c.max_batch);
      wall += c.wall_s;
      events += c.fired_events;
    }
    const SeedStat m = MeanStddev(mbps);
    const SeedStat a = MeanStddev(avg);
    const SeedStat p = MeanStddev(p99);
    const double cmds_per_dbell =
        sum.doorbells > 0 ? static_cast<double>(sum.commands) /
                                static_cast<double>(sum.doorbells)
                          : 0.0;
    const double cmds_per_irq =
        sum.interrupts > 0 ? static_cast<double>(sum.commands) /
                                 static_cast<double>(sum.interrupts)
                           : 0.0;
    std::printf("%-10s %6.0f±%-3.0f %8.1f %8.1f %12.2f %12.2f %10llu %9llu\n",
                s.name, m.mean, m.stddev, a.mean, p.mean, cmds_per_dbell,
                cmds_per_irq, static_cast<unsigned long long>(sum.qd_stalls),
                static_cast<unsigned long long>(sum.max_batch));
    const double events_per_wall =
        wall > 0 ? static_cast<double>(events) / wall : 0.0;
    if (!s.nvme) {
      legacy_events_per_wall = events_per_wall;
    } else if (std::string_view(s.name) == "q4_qd64_coal") {
      coal_events_per_wall = events_per_wall;
      coal_absorbed_share =
          events > 0 ? static_cast<double>(sum.absorbed) /
                           static_cast<double>(events)
                     : 0.0;
    }
    std::printf(
        "NVME_FRONTEND {\"series\":\"%s\",\"mbps\":%.1f,\"avg_us\":%.2f,"
        "\"p99_us\":%.2f,\"cmds_per_doorbell\":%.2f,\"cmds_per_irq\":%.2f,"
        "\"logical_events_per_s\":%.0f}\n",
        s.name, m.mean, a.mean, p.mean, cmds_per_dbell, cmds_per_irq,
        events_per_wall);
  }
  std::printf(
      "\nq4_qd64_coal vs legacy, logical command events per wall-second: "
      "%.2fx (%.0f%% of its logical events were coalesced away)\n",
      legacy_events_per_wall > 0 ? coal_events_per_wall / legacy_events_per_wall
                                 : 0.0,
      100.0 * coal_absorbed_share);
}

}  // namespace
}  // namespace biza

int main() {
  biza::BenchMetricScope metrics("nvme_frontend");
  biza::Run();
  return 0;
}
