// afa_bench: run any AFA platform against any workload from the command
// line — the swiss-army knife for exploring the simulation beyond the
// fixed paper experiments.
//
//   afa_bench [--platform=BIZA] [--workload=casa|seqwrite|randread|...]
//             [--requests=N] [--iodepth=N] [--size-kb=N] [--seconds=S]
//             [--zones=N] [--zone-mb=N] [--zrwa-kb=N] [--num-parity=M]
//             [--full-geometry] [--deviation=P] [--expose-channels]
//             [--verify] [--seeds=N] [--threads=T]
//             [--bench-metric=ID]
//             [--tenants=SPEC] [--admission=fifo|drr] [--qos]
//             [--fail-device=D@T] [--fail-slow=D:X] [--rebuild]
//             [--fail-slow-ramp=D:X@S+DUR] [--fail-slow-duty=D:X@P/ON]
//             [--mitigate] [--hedge-quantile=Q] [--suspect-factor=X]
//             [--gray-factor=X] [--health-window-ios=N]
//             [--health-min-window-ms=M]
//             [--trace=FILE] [--trace-start=S] [--trace-end=S]
//             [--sample-csv=FILE] [--sample-interval-ms=M] [--stats]
//
//   afa_bench --list            # platforms and workloads
//
// --full-geometry swaps the scaled testbed for the real ZN540 layout
// (904 zones x 1077 MiB per SSD, 4 SSDs). Sparse per-zone state keeps
// resident memory proportional to written data, so the full array fits in a
// few GiB of host RAM; a peak-RSS line is printed for the CI smoke to assert
// against. Overrides --zones / --zone-mb.
//
// --seeds=N repeats the experiment with N different RNG seeds (independent
// Simulator per seed, run concurrently via the parallel runner) and reports
// a per-seed row plus the mean; --threads caps runner concurrency (default:
// BIZA_THREADS env or hardware concurrency).
//
// --bench-metric=ID wraps the whole invocation in a BenchMetricScope so one
// machine-readable "BENCH_METRIC {...}" line (wall-clock, events, events/s,
// runner threads) is printed for tools/run_benches.sh to collect.
//
// Multi-tenant serving frontend (src/serve, DESIGN.md §8):
//   --tenants=SPEC      replace the single driver with open-loop tenant
//                       classes through the admission queue. SPEC is a
//                       comma list of class[:weight[:iops]] with class in
//                       latency|throughput|batch (prefixes accepted), e.g.
//                       --tenants=lat:4:2000,batch:1:8000. --iodepth
//                       becomes the global in-flight cap; per-tenant rows
//                       are printed per seed.
//   --admission=POLICY  fifo (arrival order, head-of-line blocking) or
//                       drr (deficit round robin, the default)
//   --qos               arm per-tenant SLO hedged reads and gray-pressure
//                       shedding (pair with --mitigate for health signals)
//
// Fault injection (repeatable flags, device ids follow creation order):
//   --fail-device=D@T   device D dies T seconds into the run (kUnavailable)
//   --fail-slow=D:X     device D completes media work X times slower
//   --fail-slow-ramp=D:X@S+DUR
//                       device D degrades linearly from 1x at S seconds to
//                       Xx at S+DUR seconds, then stays at Xx (creeping
//                       gray failure)
//   --fail-slow-duty=D:X@P/ON
//                       device D is Xx slow for the first ON seconds of
//                       every P-second period, healthy otherwise
//                       (intermittent gray failure)
//   --rebuild           after the workload, hot-swap the first dead device
//                       for a fresh spare and run the online rebuild to
//                       completion (BIZA and mdraid+ConvSSD platforms)
//
// Gray-failure self-defense (src/health, DESIGN.md):
//   --mitigate          attach a DeviceHealthMonitor and arm hedged reads,
//                       reconstruct-around reads and steering-aware writes
//                       (BIZA and mdraid platforms)
//   --hedge-quantile=Q  peer latency quantile deriving the hedge delay
//                       (default 0.95)
//   --suspect-factor=X / --gray-factor=X
//                       windowed-p99-over-peer-baseline thresholds
//   --health-window-ios=N / --health-min-window-ms=M
//                       detector window close conditions
//
// Observability (src/metrics, see DESIGN.md §5):
//   --trace=FILE        export a Chrome trace_event JSON (load in Perfetto
//                       or chrome://tracing); spans cover driver, engine,
//                       scheduler, device, and NAND channel/die layers.
//                       With --seeds=N each seed becomes its own process
//                       row in the viewer. Timestamps are virtual time.
//   --trace-start=S / --trace-end=S
//                       only record spans inside [S, E) seconds of virtual
//                       time (defaults: whole run).
//   --sample-csv=FILE   periodic time-series of every registered counter
//                       (as per-interval deltas) and gauge (raw), sampled
//                       every --sample-interval-ms of virtual time
//                       (default 10 ms). Seed 0's series is written.
//   --stats             dump final counter/gauge values and print a
//                       machine-readable "BENCH_HISTOGRAMS {...}" line
//                       with per-histogram p50/p99/p99.9/max.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rss.h"
#include "src/metrics/observability.h"
#include "src/metrics/wa_report.h"
#include "src/serve/serve_frontend.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/app_workloads.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

using namespace biza;

namespace {

struct Options {
  std::string platform = "BIZA";
  std::string workload = "seqwrite";
  uint64_t requests = 50000;
  int iodepth = 32;
  uint64_t size_kb = 64;
  double seconds = 2.0;
  uint32_t zones = 96;
  uint64_t zone_mb = 8;
  uint64_t zrwa_kb = 1024;
  int num_parity = 1;
  bool full_geometry = false;
  double deviation = 0.0;
  bool expose_channels = false;
  bool verify = false;
  int seeds = 1;
  int threads = 0;  // 0 = DefaultExperimentThreads()
  std::string bench_metric;  // non-empty: print a BENCH_METRIC line

  // NVMe queue-pair frontend (src/nvme). 0 queues = the legacy jittered
  // dispatch path; any of these set switches every member device to
  // doorbell-batched submission with interrupt-coalesced completions.
  int nvme_queues = 0;
  int nvme_qd = 0;          // 0 = NvmeQueueConfig default
  int irq_threshold = 0;    // 0 = default
  double irq_timer_us = 0;  // 0 = default

  // Host-side write-buffer tier (src/nvme/host_buffer.h). 0 KiB = off.
  uint64_t hostbuf_kb = 0;
  std::string hostbuf_mode = "wb";  // wb | wt
  uint64_t hostbuf_run = 0;         // max flush-run blocks, 0 = default
  struct FailAt {
    int device;
    double seconds;
  };
  struct FailSlow {
    int device;
    double mult;
  };
  struct FailSlowRamp {
    int device;
    double mult;
    double start_s;
    double duration_s;
  };
  struct FailSlowDuty {
    int device;
    double mult;
    double period_s;
    double on_s;
  };
  std::vector<FailAt> fail_device;
  std::vector<FailSlow> fail_slow;
  std::vector<FailSlowRamp> fail_slow_ramp;
  std::vector<FailSlowDuty> fail_slow_duty;
  bool rebuild = false;

  // Multi-tenant serving frontend (src/serve). Non-empty --tenants replaces
  // the single-driver workload with open-loop tenant arrival processes fed
  // through the admission queue.
  std::string tenants;           // "class[:weight[:iops]],..."
  std::string admission = "drr"; // fifo | drr
  bool qos = false;              // SLO hedging + gray shedding

  // Gray-failure self-defense knobs (0 = keep the HealthConfig default).
  bool mitigate = false;
  double hedge_quantile = 0.0;
  double suspect_factor = 0.0;
  double gray_factor = 0.0;
  uint64_t health_window_ios = 0;
  double health_min_window_ms = 0.0;

  // Observability plane (all off by default: zero overhead).
  std::string trace_file;
  double trace_start_s = 0.0;
  double trace_end_s = -1.0;  // < 0 = open-ended
  std::string sample_csv;
  double sample_interval_ms = 10.0;
  bool stats = false;

  bool ObservabilityOn() const {
    return !trace_file.empty() || !sample_csv.empty() || stats;
  }
};

void PrintUsage() {
  std::printf(
      "afa_bench --platform=<p> --workload=<w> [options]\n\n"
      "platforms : BIZA BIZAw/oSelector BIZAw/oAvoid dmzap+RAIZN\n"
      "            mdraid+dmzap mdraid+ConvSSD ZapRAID\n"
      "            (--engine=biza|mdraid|zapraid is the three-way shorthand)\n"
      "workloads : seqwrite randwrite seqread randread\n"
      "            casa online ikki proj web DAP MSNFS lun0 lun1 tencent\n"
      "            randomwrite fileserv oltp webserver fillseq fillrandom\n"
      "            fillseekseq\n"
      "options   : --requests=N --iodepth=N --size-kb=N --seconds=S\n"
      "            --zones=N --zone-mb=N --zrwa-kb=N --num-parity=M\n"
      "            --full-geometry (904 zones x 1077 MiB, real ZN540)\n"
      "            --deviation=P --expose-channels --verify\n"
      "            --seeds=N --threads=T --bench-metric=ID\n"
      "nvme      : --queues=N --qd=N (modeled SQ/CQ pairs; 0 = legacy\n"
      "            jittered dispatch) --irq-threshold=N --irq-timer-us=U\n"
      "hostbuf   : --hostbuf-kb=N (NVRAM pool, 0 = off)\n"
      "            --hostbuf-mode=wb|wt --hostbuf-run=BLOCKS\n"
      "serving   : --tenants=class[:weight[:iops]],...  (latency|\n"
      "            throughput|batch; prefixes ok) --admission=fifo|drr\n"
      "            --qos (SLO hedging + gray shedding; --iodepth is the\n"
      "            global in-flight cap)\n"
      "faults    : --fail-device=D@T --fail-slow=D:X --rebuild\n"
      "            --fail-slow-ramp=D:X@S+DUR --fail-slow-duty=D:X@P/ON\n"
      "health    : --mitigate --hedge-quantile=Q --suspect-factor=X\n"
      "            --gray-factor=X --health-window-ios=N\n"
      "            --health-min-window-ms=M\n"
      "observe   : --trace=FILE --trace-start=S --trace-end=S\n"
      "            --sample-csv=FILE --sample-interval-ms=M --stats\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = strlen(name);
  if (strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

PlatformKind KindFromName(const std::string& name) {
  for (PlatformKind kind :
       {PlatformKind::kBiza, PlatformKind::kBizaNoSelector,
        PlatformKind::kBizaNoAvoid, PlatformKind::kDmzapRaizn,
        PlatformKind::kMdraidDmzap, PlatformKind::kMdraidConv,
        PlatformKind::kZapRaid}) {
    if (name == PlatformKindName(kind)) {
      return kind;
    }
  }
  std::fprintf(stderr, "unknown platform '%s'\n", name.c_str());
  exit(2);
}

// --engine is the three-way comparison shorthand: each engine name selects
// its canonical ZNS-backed platform (mdraid runs over per-SSD dm-zap so all
// three sit on identical ZNS members).
const char* PlatformForEngine(const std::string& engine) {
  if (engine == "biza") {
    return "BIZA";
  }
  if (engine == "mdraid") {
    return "mdraid+dmzap";
  }
  if (engine == "zapraid") {
    return "ZapRAID";
  }
  std::fprintf(stderr, "unknown engine '%s' (biza|mdraid|zapraid)\n",
               engine.c_str());
  exit(2);
}

std::unique_ptr<WorkloadGenerator> MakeWorkload(const std::string& name,
                                                uint64_t size_blocks,
                                                uint64_t footprint,
                                                uint64_t seed_offset) {
  if (name == "seqwrite" || name == "randwrite" || name == "seqread" ||
      name == "randread") {
    const bool seq = name[0] == 's';
    const bool write = name.find("write") != std::string::npos;
    return std::make_unique<MicroWorkload>(seq, write, size_blocks, footprint,
                                           7 + seed_offset);
  }
  for (const TraceProfile& profile : TraceProfile::AllTable6()) {
    if (profile.name == name) {
      TraceProfile clipped = profile;
      clipped.footprint_blocks = std::min(clipped.footprint_blocks, footprint);
      clipped.seed += seed_offset;
      return std::make_unique<SyntheticTrace>(clipped);
    }
  }
  for (const AppProfile& profile :
       {AppProfile::FilebenchRandomwrite(), AppProfile::FilebenchFileserver(),
        AppProfile::FilebenchOltp(), AppProfile::FilebenchWebserver(),
        AppProfile::DbBenchFillseq(), AppProfile::DbBenchFillrandom(),
        AppProfile::DbBenchFillseekseq()}) {
    if (profile.name == name) {
      AppProfile clipped = profile;
      clipped.footprint_blocks = std::min(clipped.footprint_blocks, footprint);
      clipped.seed += seed_offset;
      return std::make_unique<AppWorkload>(clipped);
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  exit(2);
}

// One complete experiment: its own Simulator, platform, and workload. No
// printing happens in here — results are collected and printed by main in
// seed order, so output is identical regardless of --threads.
struct RunResult {
  std::string platform_name;
  uint64_t capacity_blocks = 0;
  DriverReport report;
  WaBreakdown wa;
  std::map<std::string, SimTime> cpu;

  // Serving-frontend outcome (only with --tenants); `report` then holds the
  // merge across tenants so the summary lines still make sense.
  std::vector<TenantReport> tenant_reports;

  // Fault-plane outcome (only meaningful when fault flags were given).
  bool have_faults = false;
  FaultStats fault_stats;
  uint64_t degraded_writes = 0;
  uint64_t degraded_reads = 0;
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  bool rebuild_ran = false;
  uint64_t rebuild_blocks = 0;
  uint64_t rebuild_passes = 0;
  double rebuild_seconds = 0.0;

  // Gray-failure mitigation outcome (only meaningful with --mitigate).
  bool have_health = false;
  HealthStats health_stats;
  uint64_t hedged_reads = 0;
  uint64_t hedge_recon_wins = 0;
  uint64_t recon_around_reads = 0;
  uint64_t probe_reads = 0;
  uint64_t recon_fallbacks = 0;
  uint64_t steered_parity_stripes = 0;
  uint64_t gray_channel_skips = 0;

  // NVMe frontend / host-buffer outcome (only with --queues / --hostbuf-kb).
  bool have_nvme = false;
  NvmeQueueStats nvme_stats;  // summed across member devices
  bool have_hostbuf = false;
  HostBufferStats hostbuf_stats;

  // Observability exports, serialized per seed inside the worker thread so
  // main only stitches strings (keeps file I/O out of the parallel region).
  std::string trace_json;       // comma-separated trace_event fragment
  size_t trace_spans = 0;
  std::string sample_csv;       // full CSV including header
  std::string histograms_json;  // {"name":{count,p50,...},...}
  std::string stats_text;       // "name value" per line, final values
};

RunResult RunExperiment(const Options& opt, uint64_t seed_offset) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(opt.zones, opt.zone_mb * kMiB / kBlockSize);
  config.zns.zrwa_blocks = static_cast<uint32_t>(opt.zrwa_kb / 4);
  config.zns.wear_level_deviation = opt.deviation;
  config.zns.expose_channel_on_open = opt.expose_channels;
  config.biza.num_parity = opt.num_parity;
  config.seed += seed_offset;
  config.zns.seed += seed_offset;
  if (opt.nvme_queues > 0) {
    NvmeQueueConfig nq;
    nq.enabled = true;
    nq.num_queues = static_cast<uint32_t>(opt.nvme_queues);
    if (opt.nvme_qd > 0) {
      nq.queue_depth = static_cast<uint32_t>(opt.nvme_qd);
    }
    if (opt.irq_threshold > 0) {
      nq.irq_threshold = static_cast<uint32_t>(opt.irq_threshold);
    }
    if (opt.irq_timer_us > 0) {
      nq.irq_timer_ns = static_cast<SimTime>(opt.irq_timer_us * 1e3);
    }
    config.zns.nvme = nq;
    config.conv.nvme = nq;
  }
  if (opt.hostbuf_kb > 0) {
    config.hostbuf.enabled = true;
    config.hostbuf.capacity_blocks = std::max<uint64_t>(1, opt.hostbuf_kb / 4);
    config.hostbuf.mode = opt.hostbuf_mode == "wt"
                              ? HostBufferMode::kWriteThrough
                              : HostBufferMode::kWriteBack;
    if (opt.hostbuf_run > 0) {
      config.hostbuf.max_run_blocks = opt.hostbuf_run;
    }
  }
  config.MatchConvCapacity();

  config.faults.seed = config.seed;
  for (const Options::FailAt& f : opt.fail_device) {
    config.faults.Device(f.device).die_at =
        static_cast<SimTime>(f.seconds * 1e9);
  }
  for (const Options::FailSlow& f : opt.fail_slow) {
    config.faults.Device(f.device).latency_mult = f.mult;
  }
  for (const Options::FailSlowRamp& f : opt.fail_slow_ramp) {
    DeviceFaultSpec& spec = config.faults.Device(f.device);
    spec.latency_mult = f.mult;
    spec.ramp_start = static_cast<SimTime>(f.start_s * 1e9);
    spec.ramp_duration = static_cast<SimTime>(f.duration_s * 1e9);
  }
  for (const Options::FailSlowDuty& f : opt.fail_slow_duty) {
    DeviceFaultSpec& spec = config.faults.Device(f.device);
    spec.latency_mult = f.mult;
    spec.duty_period = static_cast<SimTime>(f.period_s * 1e9);
    spec.duty_on = static_cast<SimTime>(f.on_s * 1e9);
  }

  if (opt.mitigate) {
    config.health.enabled = true;
    if (opt.hedge_quantile > 0.0) {
      config.health.hedge_quantile = opt.hedge_quantile;
    }
    if (opt.suspect_factor > 0.0) {
      config.health.suspect_factor = opt.suspect_factor;
    }
    if (opt.gray_factor > 0.0) {
      config.health.gray_factor = opt.gray_factor;
    }
    if (opt.health_window_ios > 0) {
      config.health.window_ios = static_cast<uint32_t>(opt.health_window_ios);
    }
    if (opt.health_min_window_ms > 0.0) {
      config.health.min_window_ns =
          static_cast<SimTime>(opt.health_min_window_ms * 1e6);
    }
  }

  // Each seed gets a private Observability so the parallel runner never
  // shares mutable state across experiments; exports are merged by main.
  auto obs = opt.ObservabilityOn() ? std::make_unique<Observability>() : nullptr;
  if (obs != nullptr) {
    config.obs = obs.get();
    if (!opt.trace_file.empty()) {
      obs->tracer.Enable(1 << 16);  // 64 Ki spans per lane (overwrite-oldest)
      const SimTime start = static_cast<SimTime>(opt.trace_start_s * 1e9);
      const SimTime end = opt.trace_end_s < 0
                              ? ~SimTime{0}
                              : static_cast<SimTime>(opt.trace_end_s * 1e9);
      obs->tracer.SetWindow(start, end);
    }
  }

  auto platform = Platform::Create(&sim, KindFromName(opt.platform), config);
  BlockTarget* target = platform->block();

  RunResult result;
  if (!opt.tenants.empty()) {
    // Serving-frontend mode: tenant arrival processes through the admission
    // queue instead of the single closed-loop driver.
    ServeConfig serve;
    (void)ParseTenantList(opt.tenants, &serve.tenants);  // validated in main
    serve.policy = opt.admission == "fifo" ? AdmissionPolicy::kFifo
                                           : AdmissionPolicy::kDrr;
    serve.iodepth = static_cast<uint64_t>(opt.iodepth);
    serve.qos = opt.qos;
    serve.seed = config.seed;
    serve.duration_ns = static_cast<SimTime>(opt.seconds * 1e9);
    ServeFrontend frontend(&sim, target, serve);
    Driver::Fill(&sim, target, frontend.config().footprint_blocks, 64);
    if (platform->health() != nullptr) {
      frontend.AttachHealth(platform->health());
    }
    if (obs != nullptr) {
      frontend.AttachObservability(obs.get());
      if (!opt.sample_csv.empty()) {
        obs->sampler.Start(&sim, static_cast<SimTime>(
                                     opt.sample_interval_ms * 1e6));
      }
    }
    result.tenant_reports = frontend.Run();
    for (const TenantReport& t : result.tenant_reports) {
      result.report.write_latency.Merge(t.report.write_latency);
      result.report.read_latency.Merge(t.report.read_latency);
      result.report.queue_delay.Merge(t.report.queue_delay);
      result.report.bytes_written += t.report.bytes_written;
      result.report.bytes_read += t.report.bytes_read;
      result.report.requests_completed += t.report.requests_completed;
      result.report.arrivals_deferred += t.report.arrivals_deferred;
      result.report.elapsed_ns =
          std::max(result.report.elapsed_ns, t.report.elapsed_ns);
    }
  } else {
    const uint64_t size_blocks = std::max<uint64_t>(1, opt.size_kb / 4);
    auto workload = MakeWorkload(opt.workload, size_blocks,
                                 target->capacity_blocks() / 2, seed_offset);

    if (opt.workload.find("read") != std::string::npos) {
      Driver::Fill(&sim, target, target->capacity_blocks() / 2, 64);
    }

    Driver driver(&sim, target, workload.get(), opt.iodepth, opt.verify);
    if (obs != nullptr) {
      driver.SetTracer(&obs->tracer);
      if (!opt.sample_csv.empty()) {
        // Started after the prefill so the series covers the measured phase;
        // the sampler stops itself when the event queue drains.
        obs->sampler.Start(&sim, static_cast<SimTime>(
                                     opt.sample_interval_ms * 1e6));
      }
    }
    result.report =
        driver.Run(opt.requests, static_cast<SimTime>(opt.seconds * 1e9));
  }

  if (opt.rebuild && !opt.fail_device.empty()) {
    const int dead = opt.fail_device[0].device;
    if (platform->biza() != nullptr) {
      ZnsDevice* spare = platform->AddSpareZnsDevice(&sim);
      const SimTime start = sim.Now();
      // The array may not have witnessed the death yet (e.g. the workload
      // drained before die_at, or no I/O touched the device since): fail it
      // explicitly so the swap is always legal.
      platform->biza()->SetDeviceFailed(dead, true);
      const Status s = platform->biza()->ReplaceDevice(dead, spare);
      if (!s.ok()) {
        std::fprintf(stderr, "ReplaceDevice: %s\n", s.ToString().c_str());
      } else {
        sim.RunUntilIdle();  // rebuild self-schedules until FinishRebuild
        result.rebuild_ran = !platform->biza()->rebuild().active;
        result.rebuild_blocks = platform->biza()->rebuild().chunks_migrated;
        result.rebuild_passes = platform->biza()->rebuild().passes;
        result.rebuild_seconds =
            static_cast<double>(sim.Now() - start) / 1e9;
      }
    } else if (platform->zapraid() != nullptr) {
      ZnsDevice* spare = platform->AddSpareZnsDevice(&sim);
      const SimTime start = sim.Now();
      platform->zapraid()->SetDeviceFailed(dead, true);
      const Status s = platform->zapraid()->ReplaceDevice(dead, spare);
      if (!s.ok()) {
        std::fprintf(stderr, "ReplaceDevice: %s\n", s.ToString().c_str());
      } else {
        sim.RunUntilIdle();  // rebuild self-schedules until FinishRebuild
        result.rebuild_ran = !platform->zapraid()->rebuild().active;
        result.rebuild_blocks = platform->zapraid()->rebuild().chunks_migrated;
        result.rebuild_passes = platform->zapraid()->rebuild().passes;
        result.rebuild_seconds =
            static_cast<double>(sim.Now() - start) / 1e9;
      }
    } else if (platform->mdraid() != nullptr &&
               KindFromName(opt.platform) == PlatformKind::kMdraidConv) {
      BlockTarget* spare = platform->AddSpareConvTarget(&sim);
      const SimTime start = sim.Now();
      platform->mdraid()->SetChildFailed(dead, true);
      const Status s = platform->mdraid()->RebuildChild(dead, spare);
      if (!s.ok()) {
        std::fprintf(stderr, "RebuildChild: %s\n", s.ToString().c_str());
      } else {
        sim.RunUntilIdle();
        result.rebuild_ran = !platform->mdraid()->rebuild_active();
        result.rebuild_blocks = platform->mdraid()->stats().rebuilt_blocks;
        result.rebuild_seconds =
            static_cast<double>(sim.Now() - start) / 1e9;
      }
    } else {
      std::fprintf(stderr,
                   "--rebuild supports BIZA and mdraid+ConvSSD platforms\n");
    }
  }

  platform->Quiesce(&sim);
  result.platform_name = platform->name();
  result.capacity_blocks = target->capacity_blocks();
  RecordSimEvents(sim, result.report);
  if (opt.nvme_queues > 0) {
    result.have_nvme = true;
    auto fold = [&result](const NvmeQueueStats& s) {
      result.nvme_stats.commands += s.commands;
      result.nvme_stats.doorbells += s.doorbells;
      result.nvme_stats.interrupts += s.interrupts;
      result.nvme_stats.coalesced_commands += s.coalesced_commands;
      result.nvme_stats.coalesced_cqes += s.coalesced_cqes;
      result.nvme_stats.qd_stalls += s.qd_stalls;
      result.nvme_stats.max_batch =
          std::max(result.nvme_stats.max_batch, s.max_batch);
    };
    for (ZnsDevice* dev : platform->zns_devices()) {
      fold(dev->nvme_queue().stats());
    }
    for (ConvSsd* dev : platform->conv_devices()) {
      fold(dev->nvme_queue().stats());
    }
    // Count the collapsed logical events so BENCH_METRIC events/s compares
    // command throughput, not heap traffic (see RecordAbsorbedEvents).
    RecordAbsorbedEvents(result.nvme_stats.absorbed_events());
  }
  if (platform->hostbuf() != nullptr) {
    result.have_hostbuf = true;
    result.hostbuf_stats = platform->hostbuf()->stats();
  }
  result.wa = platform->CollectWa(result.report.bytes_written / kBlockSize);
  result.cpu = platform->CpuBreakdown();

  result.have_faults = !opt.fail_device.empty() || !opt.fail_slow.empty() ||
                       !opt.fail_slow_ramp.empty() ||
                       !opt.fail_slow_duty.empty();
  result.fault_stats = platform->faults()->stats();
  if (platform->biza() != nullptr) {
    const BizaStats& bs = platform->biza()->stats();
    result.degraded_writes = bs.degraded_writes;
    result.degraded_reads = bs.degraded_reads;
    result.read_retries = bs.read_retries;
    result.write_retries = bs.write_retries;
    result.hedged_reads = bs.hedged_reads;
    result.hedge_recon_wins = bs.hedge_recon_wins;
    result.recon_around_reads = bs.recon_around_reads;
    result.probe_reads = bs.health_probe_reads;
    result.recon_fallbacks = bs.recon_fallbacks;
    result.steered_parity_stripes = bs.steered_parity_stripes;
    result.gray_channel_skips = bs.gray_channel_skips;
  } else if (platform->mdraid() != nullptr) {
    const MdraidStats& ms = platform->mdraid()->stats();
    result.degraded_writes = ms.degraded_writes;
    result.read_retries = ms.read_retries;
    result.write_retries = ms.write_retries;
    result.hedged_reads = ms.hedged_reads;
    result.hedge_recon_wins = ms.hedge_recon_wins;
    result.recon_around_reads = ms.recon_around_reads;
    result.probe_reads = ms.health_probe_reads;
    result.recon_fallbacks = ms.recon_fallbacks;
  } else if (platform->zapraid() != nullptr) {
    const ZapRaidStats& zs = platform->zapraid()->stats();
    result.degraded_reads = zs.degraded_reads;
    result.read_retries = zs.read_retries;
    result.write_retries = zs.write_retries;
    result.hedged_reads = zs.hedged_reads;
    result.hedge_recon_wins = zs.hedge_recon_wins;
    result.recon_around_reads = zs.recon_around_reads;
    result.probe_reads = zs.health_probe_reads;
    result.recon_fallbacks = zs.recon_fallbacks;
    result.steered_parity_stripes = zs.steered_parity_rows;
  }
  if (platform->health() != nullptr) {
    result.have_health = true;
    result.health_stats = platform->health()->stats();
  }

  if (obs != nullptr) {
    if (!opt.trace_file.empty()) {
      std::ostringstream out;
      result.trace_spans = obs->tracer.ExportJson(
          out, static_cast<int>(seed_offset), /*leading_comma=*/false);
      result.trace_json = out.str();
    }
    if (!opt.sample_csv.empty()) {
      std::ostringstream out;
      obs->sampler.WriteCsv(out);
      result.sample_csv = out.str();
    }
    if (opt.stats) {
      result.histograms_json = obs->registry.HistogramSummaryJson();
      std::ostringstream out;
      for (const StatRegistry::Sample& s : obs->registry.Collect()) {
        out << (s.kind == StatKind::kCounter ? "counter " : "gauge   ")
            << *s.name << " " << s.value << "\n";
      }
      result.stats_text = out.str();
    }
  }
  return result;
}

void PrintResult(const Options& opt, const RunResult& result) {
  const DriverReport& report = result.report;
  std::printf("workload %-16s %llu requests in %.3f s virtual\n",
              result.tenant_reports.empty() ? opt.workload.c_str() : "serve",
              static_cast<unsigned long long>(report.requests_completed),
              static_cast<double>(report.elapsed_ns) / 1e9);
  for (const TenantReport& t : result.tenant_reports) {
    std::printf("  tenant %-12s arrivals=%llu done=%llu deferred=%llu "
                "capped=%llu hedged=%llu wins=%llu\n",
                t.name.c_str(), static_cast<unsigned long long>(t.arrivals),
                static_cast<unsigned long long>(t.report.requests_completed),
                static_cast<unsigned long long>(t.report.arrivals_deferred),
                static_cast<unsigned long long>(t.cap_deferrals),
                static_cast<unsigned long long>(t.hedged_reads),
                static_cast<unsigned long long>(t.hedge_wins));
    if (t.report.read_latency.count() > 0) {
      std::printf("    read : %s\n", t.report.read_latency.Summary().c_str());
    }
    if (t.report.write_latency.count() > 0) {
      std::printf("    write: %s\n", t.report.write_latency.Summary().c_str());
    }
    if (t.report.queue_delay.count() > 0) {
      std::printf("    queue: %s\n", t.report.queue_delay.Summary().c_str());
    }
  }
  std::printf("  write: %8.1f MB/s   %s\n", report.WriteMBps(),
              report.write_latency.count() > 0
                  ? report.write_latency.Summary().c_str()
                  : "-");
  std::printf("  read : %8.1f MB/s   %s\n", report.ReadMBps(),
              report.read_latency.count() > 0
                  ? report.read_latency.Summary().c_str()
                  : "-");
  if (report.bytes_written > 0) {
    std::printf("  WA   : data %.3fx + parity %.3fx = %.3fx\n",
                result.wa.DataRatio(), result.wa.ParityRatio(),
                result.wa.TotalRatio());
  }
  if (opt.verify) {
    std::printf("  verify failures: %llu\n",
                static_cast<unsigned long long>(report.verify_failures));
  }
  std::printf("  cpu  :");
  for (const auto& [component, ns] : result.cpu) {
    std::printf(" %s=%.0f%%", component.c_str(),
                static_cast<double>(ns) /
                    static_cast<double>(report.elapsed_ns) * 100.0);
  }
  std::printf("\n");
  if (result.have_nvme) {
    const NvmeQueueStats& ns = result.nvme_stats;
    std::printf("  nvme : cmds=%llu doorbells=%llu irqs=%llu "
                "coalesced_sqe=%llu coalesced_cqe=%llu qd_stalls=%llu "
                "max_batch=%llu\n",
                static_cast<unsigned long long>(ns.commands),
                static_cast<unsigned long long>(ns.doorbells),
                static_cast<unsigned long long>(ns.interrupts),
                static_cast<unsigned long long>(ns.coalesced_commands),
                static_cast<unsigned long long>(ns.coalesced_cqes),
                static_cast<unsigned long long>(ns.qd_stalls),
                static_cast<unsigned long long>(ns.max_batch));
  }
  if (result.have_hostbuf) {
    const HostBufferStats& hs = result.hostbuf_stats;
    std::printf("  hostbuf: wr_blocks=%llu absorbed=%llu flushed=%llu "
                "runs=%llu read_hits=%llu stalls=%llu bypass=%llu\n",
                static_cast<unsigned long long>(hs.write_blocks),
                static_cast<unsigned long long>(hs.absorbed_blocks),
                static_cast<unsigned long long>(hs.flushed_blocks),
                static_cast<unsigned long long>(hs.flush_runs),
                static_cast<unsigned long long>(hs.read_hit_blocks),
                static_cast<unsigned long long>(hs.admission_stalls),
                static_cast<unsigned long long>(hs.bypass_writes));
  }
  if (result.have_faults) {
    std::printf("  fault: rejected=%llu inj_rd=%llu inj_wr=%llu "
                "degraded_wr=%llu degraded_rd=%llu retries_rd=%llu "
                "retries_wr=%llu\n",
                static_cast<unsigned long long>(
                    result.fault_stats.unavailable_rejections),
                static_cast<unsigned long long>(
                    result.fault_stats.injected_read_errors),
                static_cast<unsigned long long>(
                    result.fault_stats.injected_write_errors),
                static_cast<unsigned long long>(result.degraded_writes),
                static_cast<unsigned long long>(result.degraded_reads),
                static_cast<unsigned long long>(result.read_retries),
                static_cast<unsigned long long>(result.write_retries));
  }
  if (result.rebuild_ran) {
    std::printf("  rebuild: %llu blocks in %.3f s virtual (%llu passes)\n",
                static_cast<unsigned long long>(result.rebuild_blocks),
                result.rebuild_seconds,
                static_cast<unsigned long long>(result.rebuild_passes));
  }
  if (result.have_health) {
    const HealthStats& hs = result.health_stats;
    std::printf("  health: suspect=%llu gray=%llu recovered=%llu "
                "(windows=%llu samples=%llu)\n",
                static_cast<unsigned long long>(hs.suspect_transitions),
                static_cast<unsigned long long>(hs.gray_transitions),
                static_cast<unsigned long long>(hs.recoveries),
                static_cast<unsigned long long>(hs.windows),
                static_cast<unsigned long long>(hs.samples));
    std::printf("  mitigate: hedged=%llu hedge_wins=%llu recon_around=%llu "
                "probes=%llu fallbacks=%llu steered_stripes=%llu "
                "chan_skips=%llu\n",
                static_cast<unsigned long long>(result.hedged_reads),
                static_cast<unsigned long long>(result.hedge_recon_wins),
                static_cast<unsigned long long>(result.recon_around_reads),
                static_cast<unsigned long long>(result.probe_reads),
                static_cast<unsigned long long>(result.recon_fallbacks),
                static_cast<unsigned long long>(result.steered_parity_stripes),
                static_cast<unsigned long long>(result.gray_channel_skips));
  }
}

// Parses "D@T" / "D:X" pairs for the fault flags; returns false on malformed
// input.
bool ParsePair(const std::string& value, char sep, int* device, double* num) {
  const size_t pos = value.find(sep);
  if (pos == std::string::npos || pos == 0 || pos + 1 >= value.size()) {
    return false;
  }
  *device = atoi(value.substr(0, pos).c_str());
  *num = atof(value.substr(pos + 1).c_str());
  return *device >= 0;
}

// Parses "D:X@A<sep2>B" shapes (--fail-slow-ramp, --fail-slow-duty).
bool ParseShape(const std::string& value, char sep2, int* device, double* mult,
                double* a, double* b) {
  const size_t at = value.find('@');
  if (at == std::string::npos || at + 1 >= value.size()) {
    return false;
  }
  if (!ParsePair(value.substr(0, at), ':', device, mult)) {
    return false;
  }
  const std::string tail = value.substr(at + 1);
  const size_t pos = tail.find(sep2);
  if (pos == std::string::npos || pos + 1 >= tail.size()) {
    return false;
  }
  *a = atof(tail.substr(0, pos).c_str());
  *b = atof(tail.substr(pos + 1).c_str());
  return true;
}

}  // namespace

void ApplyFullGeometry(Options* opt) {
  opt->zones = ZnsConfig::kFullZn540Zones;
  opt->zone_mb = ZnsConfig::kFullZn540ZoneBlocks * kBlockSize / kMiB;
}

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (strcmp(argv[i], "--list") == 0 || strcmp(argv[i], "--help") == 0) {
      PrintUsage();
      return 0;
    } else if (ParseFlag(argv[i], "--platform", &value)) {
      opt.platform = value;
    } else if (ParseFlag(argv[i], "--engine", &value)) {
      opt.platform = PlatformForEngine(value);
    } else if (ParseFlag(argv[i], "--workload", &value)) {
      opt.workload = value;
    } else if (ParseFlag(argv[i], "--requests", &value)) {
      opt.requests = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--iodepth", &value)) {
      opt.iodepth = atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--size-kb", &value)) {
      opt.size_kb = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      opt.seconds = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--zones", &value)) {
      opt.zones = static_cast<uint32_t>(atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--zone-mb", &value)) {
      opt.zone_mb = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--zrwa-kb", &value)) {
      opt.zrwa_kb = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--num-parity", &value)) {
      opt.num_parity = atoi(value.c_str());
    } else if (strcmp(argv[i], "--full-geometry") == 0) {
      opt.full_geometry = true;
    } else if (ParseFlag(argv[i], "--deviation", &value)) {
      opt.deviation = atof(value.c_str());
    } else if (strcmp(argv[i], "--expose-channels") == 0) {
      opt.expose_channels = true;
    } else if (strcmp(argv[i], "--verify") == 0) {
      opt.verify = true;
    } else if (ParseFlag(argv[i], "--seeds", &value)) {
      opt.seeds = std::max(1, atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      opt.threads = atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--bench-metric", &value)) {
      opt.bench_metric = value;
    } else if (ParseFlag(argv[i], "--queues", &value)) {
      opt.nvme_queues = atoi(value.c_str());
      if (opt.nvme_queues < 1) {
        std::fprintf(stderr, "--queues must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "--qd", &value)) {
      opt.nvme_qd = atoi(value.c_str());
      if (opt.nvme_qd < 1) {
        std::fprintf(stderr, "--qd must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "--irq-threshold", &value)) {
      opt.irq_threshold = atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--irq-timer-us", &value)) {
      opt.irq_timer_us = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--hostbuf-kb", &value)) {
      opt.hostbuf_kb = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--hostbuf-mode", &value)) {
      if (value != "wb" && value != "wt") {
        std::fprintf(stderr, "--hostbuf-mode expects wb or wt\n");
        return 2;
      }
      opt.hostbuf_mode = value;
    } else if (ParseFlag(argv[i], "--hostbuf-run", &value)) {
      opt.hostbuf_run = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--fail-device", &value)) {
      int device = 0;
      double seconds = 0.0;
      if (!ParsePair(value, '@', &device, &seconds)) {
        std::fprintf(stderr, "--fail-device expects D@T (seconds)\n");
        return 2;
      }
      opt.fail_device.push_back({device, seconds});
    } else if (ParseFlag(argv[i], "--fail-slow", &value)) {
      int device = 0;
      double mult = 1.0;
      if (!ParsePair(value, ':', &device, &mult) || mult < 1.0) {
        std::fprintf(stderr, "--fail-slow expects D:X with X >= 1.0\n");
        return 2;
      }
      opt.fail_slow.push_back({device, mult});
    } else if (ParseFlag(argv[i], "--fail-slow-ramp", &value)) {
      int device = 0;
      double mult = 1.0, start_s = 0.0, dur_s = 0.0;
      if (!ParseShape(value, '+', &device, &mult, &start_s, &dur_s) ||
          mult < 1.0 || dur_s <= 0.0) {
        std::fprintf(stderr,
                     "--fail-slow-ramp expects D:X@S+DUR (X >= 1, DUR > 0)\n");
        return 2;
      }
      opt.fail_slow_ramp.push_back({device, mult, start_s, dur_s});
    } else if (ParseFlag(argv[i], "--fail-slow-duty", &value)) {
      int device = 0;
      double mult = 1.0, period_s = 0.0, on_s = 0.0;
      if (!ParseShape(value, '/', &device, &mult, &period_s, &on_s) ||
          mult < 1.0 || period_s <= 0.0 || on_s <= 0.0 || on_s > period_s) {
        std::fprintf(stderr,
                     "--fail-slow-duty expects D:X@P/ON (0 < ON <= P)\n");
        return 2;
      }
      opt.fail_slow_duty.push_back({device, mult, period_s, on_s});
    } else if (ParseFlag(argv[i], "--tenants", &value)) {
      std::vector<TenantSpec> parsed;
      if (!ParseTenantList(value, &parsed)) {
        std::fprintf(stderr,
                     "--tenants expects class[:weight[:iops]],... with class "
                     "in latency|throughput|batch\n");
        return 2;
      }
      opt.tenants = value;
    } else if (ParseFlag(argv[i], "--admission", &value)) {
      if (value != "fifo" && value != "drr") {
        std::fprintf(stderr, "--admission expects fifo or drr\n");
        return 2;
      }
      opt.admission = value;
    } else if (strcmp(argv[i], "--qos") == 0) {
      opt.qos = true;
    } else if (strcmp(argv[i], "--mitigate") == 0) {
      opt.mitigate = true;
    } else if (ParseFlag(argv[i], "--hedge-quantile", &value)) {
      opt.hedge_quantile = atof(value.c_str());
      if (opt.hedge_quantile <= 0.0 || opt.hedge_quantile > 1.0) {
        std::fprintf(stderr, "--hedge-quantile expects (0, 1]\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "--suspect-factor", &value)) {
      opt.suspect_factor = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--gray-factor", &value)) {
      opt.gray_factor = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--health-window-ios", &value)) {
      opt.health_window_ios = strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--health-min-window-ms", &value)) {
      opt.health_min_window_ms = atof(value.c_str());
    } else if (strcmp(argv[i], "--rebuild") == 0) {
      opt.rebuild = true;
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      opt.trace_file = value;
    } else if (ParseFlag(argv[i], "--trace-start", &value)) {
      opt.trace_start_s = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--trace-end", &value)) {
      opt.trace_end_s = atof(value.c_str());
    } else if (ParseFlag(argv[i], "--sample-csv", &value)) {
      opt.sample_csv = value;
    } else if (ParseFlag(argv[i], "--sample-interval-ms", &value)) {
      opt.sample_interval_ms = atof(value.c_str());
      if (opt.sample_interval_ms <= 0) {
        std::fprintf(stderr, "--sample-interval-ms must be > 0\n");
        return 2;
      }
    } else if (strcmp(argv[i], "--stats") == 0) {
      opt.stats = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }

  if (opt.full_geometry) {
    ApplyFullGeometry(&opt);
    // Keep the BENCH_METRIC full_geometry field (read from the env by
    // BenchMetricScope) truthful for --bench-metric runs.
    setenv("BIZA_FULL_GEOMETRY", "1", 1);
  }
  // Scope whose destructor prints the BENCH_METRIC line after all runs.
  std::unique_ptr<BenchMetricScope> metric;
  if (!opt.bench_metric.empty()) {
    metric = std::make_unique<BenchMetricScope>(opt.bench_metric.c_str());
  }

  // One job per seed, each on its own Simulator; results come back in
  // submission order so the printed output is thread-count independent.
  std::vector<std::function<RunResult()>> jobs;
  jobs.reserve(static_cast<size_t>(opt.seeds));
  for (int s = 0; s < opt.seeds; ++s) {
    jobs.push_back(
        [&opt, s]() { return RunExperiment(opt, static_cast<uint64_t>(s)); });
  }
  const std::vector<RunResult> results =
      RunExperiments(std::move(jobs), opt.threads);

  std::printf("platform %-16s capacity %.0f MiB  (%u zones x %llu MiB, "
              "ZRWA %llu KiB, m=%d)\n",
              results[0].platform_name.c_str(),
              static_cast<double>(results[0].capacity_blocks) * 4 / 1024,
              opt.zones, static_cast<unsigned long long>(opt.zone_mb),
              static_cast<unsigned long long>(opt.zrwa_kb), opt.num_parity);

  double mean_write = 0.0, mean_read = 0.0, mean_wa = 0.0;
  for (int s = 0; s < opt.seeds; ++s) {
    if (opt.seeds > 1) {
      std::printf("-- seed %d --\n", s);
    }
    PrintResult(opt, results[static_cast<size_t>(s)]);
    mean_write += results[static_cast<size_t>(s)].report.WriteMBps();
    mean_read += results[static_cast<size_t>(s)].report.ReadMBps();
    mean_wa += results[static_cast<size_t>(s)].wa.TotalRatio();
  }
  if (opt.seeds > 1) {
    const double n = static_cast<double>(opt.seeds);
    std::printf("mean over %d seeds: write %.1f MB/s  read %.1f MB/s  "
                "WA %.3fx\n",
                opt.seeds, mean_write / n, mean_read / n, mean_wa / n);
  }

  if (!opt.trace_file.empty()) {
    std::ofstream out(opt.trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.trace_file.c_str());
      return 1;
    }
    // One JSON array over all seeds: each seed's fragment carries its own
    // pid, so Perfetto shows one process row per seed.
    out << "[";
    size_t total_spans = 0;
    bool first = true;
    for (const RunResult& r : results) {
      if (r.trace_json.empty()) {
        continue;
      }
      if (!first) {
        out << ",\n";
      }
      first = false;
      out << r.trace_json;
      total_spans += r.trace_spans;
    }
    out << "]\n";
    std::printf("trace: %zu spans -> %s (load in ui.perfetto.dev)\n",
                total_spans, opt.trace_file.c_str());
  }
  if (!opt.sample_csv.empty()) {
    std::ofstream out(opt.sample_csv);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.sample_csv.c_str());
      return 1;
    }
    out << results[0].sample_csv;
    std::printf("time-series: seed 0 -> %s\n", opt.sample_csv.c_str());
  }
  if (opt.stats) {
    std::printf("-- final stats (seed 0) --\n%s",
                results[0].stats_text.c_str());
    std::printf("BENCH_HISTOGRAMS %s\n", results[0].histograms_json.c_str());
  }
  if (opt.full_geometry) {
    // Machine-readable for the CI full-geometry smoke, which asserts a
    // peak-RSS ceiling (sparse state keeps the full array in a few GiB).
    std::printf("BENCH_RSS {\"rss_peak_mb\":%.1f}\n",
                static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  }
  return 0;
}
