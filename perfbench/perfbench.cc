// perfbench: the repository benchmark harness (see perfbench/README.md).
//
//   perfbench --workload <biza_casa|biza_proj|zapraid_tencent> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One run simulates the workload several times from the same seed
// ("passes"). Each pass builds a fresh Simulator + Platform, prefills the
// footprint, drives a timed closed loop of 32 outstanding requests through
// Platform::block(), drains, and reads the whole footprint back after
// Platform::Quiesce. Every block read in the timed phase and in the
// read-back is checked against a shadow of the writes the harness issued.
//
//   --trace 0: four untraced passes. Prints the end-to-end metrics.
//              Simulated numbers come from the first pass; the others must
//              match it exactly.
//   --trace 1: one untraced pass, then one traced pass that attaches the
//              library's Observability registry (tracer dark), times every
//              engine submit through a BlockTarget decorator and records the
//              harness's own spans. Prints the per-layer metrics.
//
// The run length is a fixed number of requests per pass, calibrated so the
// four timed phases of a --trace 0 run take about --seconds on the
// reference box. It is a count, not a deadline, so that every simulated
// number repeats exactly for a seed.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. `correct` requires a clean post-Quiesce read-back in every pass and
// identical simulated fingerprints across the passes. Reads that return
// wrong data during the timed phase are counted in `failed`.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/biza/ghost_cache.h"
#include "src/common/rss.h"
#include "src/metrics/observability.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace {

using biza::BlockTarget;
using biza::ChunkTier;
using biza::GhostCache;
using biza::Observability;
using biza::Platform;
using biza::PlatformConfig;
using biza::PlatformKind;
using biza::SimTime;
using biza::Simulator;
using biza::Status;
using biza::SyntheticTrace;
using biza::TraceProfile;
using biza::WriteTag;
using biza::ZnsDevice;

constexpr int kIoDepth = 32;
constexpr uint64_t kFillRequestBlocks = 64;
// A --trace 0 run makes kPasses identical passes of the seed; a --trace 1
// run makes two (untraced, traced). Each pass sets up once, and one extra
// set-up is measured first, so setup_s is a median of kPasses + 1.
constexpr int kPasses = 4;
// Each timed phase is split into this many segments of equal request count
// for the host-time estimate (see main).
constexpr int kSegments = 16;
constexpr size_t kMaxWrongExamples = 5;

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkloadSpec {
  const char* name;
  PlatformKind kind;
  TraceProfile (*profile)();
  // Host requests per second measured on the reference box (4 cores,
  // Release -O2). Sets the per-pass request count for --seconds.
  double nominal_req_per_s;
};

// Why each workload is here: perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"biza_casa", PlatformKind::kBiza, &TraceProfile::Casa, 250000},
    {"biza_proj", PlatformKind::kBiza, &TraceProfile::Proj, 330000},
    {"zapraid_tencent", PlatformKind::kZapRaid, &TraceProfile::Tencent, 59000},
};

// Pattern epochs of a seed: block b's k-th write carries
// PatternFor(b, EpochBase(seed) + k).
uint64_t EpochBase(uint64_t seed) { return seed << 32; }

// ---------------------------------------------------------------------------
// Shadow of the issued writes, in flat arrays sized to the footprint.
//
// Block b's k-th write carries Pattern(b, k); version 0 is the prefill. A
// read of b is correct if it returns the pattern of a write W issued before
// the read completed, unless another write W2 both started after W completed
// and completed before the read was submitted. Versions are issued in order,
// so the writes that survive the "unless" at read submission are: the highest
// completed version v*, the older versions still outstanding when v* was
// issued (a bitmask taken at v*'s issue), and every version above v* (none of
// them had completed yet).
class Shadow {
 public:
  struct Issue {
    uint32_t version;
    uint64_t older_outstanding;  // bit i: version-1-i was still outstanding
  };
  struct Snap {
    uint32_t vstar;
    uint64_t vstar_mask;
  };

  Shadow(uint64_t blocks, uint64_t seed)
      : epoch_base_(EpochBase(seed)),
        issued_(blocks, 1),
        vstar_(blocks, 0),
        vstar_mask_(blocks, 0),
        live_(blocks, 0) {}

  uint64_t Pattern(uint64_t b, uint32_t version) const {
    return biza::PatternFor(b, epoch_base_ + version);
  }

  Issue BeginWrite(uint64_t b) {
    const Issue issue{issued_[b], live_[b]};
    if ((live_[b] >> 63) != 0) {
      ++overflows_;  // a version outstanding for > 64 later writes
    }
    live_[b] = (live_[b] << 1) | 1;
    ++issued_[b];
    return issue;
  }

  // A failed write stops being outstanding but never becomes v*.
  void EndWrite(uint64_t b, const Issue& issue, bool ok) {
    const uint32_t age = issued_[b] - 1 - issue.version;
    if (age < 64) {
      live_[b] &= ~(uint64_t{1} << age);
    }
    if (ok && issue.version > vstar_[b]) {
      vstar_[b] = issue.version;
      vstar_mask_[b] = issue.older_outstanding;
    }
  }

  Snap Snapshot(uint64_t b) const { return Snap{vstar_[b], vstar_mask_[b]}; }

  // Called when the read completes: versions issued up to now count.
  bool Accept(uint64_t b, uint64_t pattern, const Snap& snap) const {
    for (uint32_t v = snap.vstar; v < issued_[b]; ++v) {
      if (pattern == Pattern(b, v)) {
        return true;
      }
    }
    for (uint64_t mask = snap.vstar_mask; mask != 0; mask &= mask - 1) {
      const uint32_t age = static_cast<uint32_t>(__builtin_ctzll(mask));
      if (pattern == Pattern(b, snap.vstar - 1 - age)) {
        return true;
      }
    }
    return false;
  }

  uint64_t overflows() const { return overflows_; }

 private:
  uint64_t epoch_base_;
  std::vector<uint32_t> issued_;
  std::vector<uint32_t> vstar_;
  std::vector<uint64_t> vstar_mask_;
  std::vector<uint64_t> live_;  // bit i: version issued-1-i outstanding
  uint64_t overflows_ = 0;
};

// ---------------------------------------------------------------------------
// Host-time decorator around the engine's BlockTarget (traced pass only).
class TimedTarget : public BlockTarget {
 public:
  explicit TimedTarget(BlockTarget* inner) : inner_(inner) {}

  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag) override {
    const int64_t t0 = HostNs();
    inner_->SubmitWrite(lbn, std::move(patterns), std::move(cb), tag);
    write_ns += HostNs() - t0;
    ++writes;
  }
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) override {
    const int64_t t0 = HostNs();
    inner_->SubmitRead(lbn, nblocks, std::move(cb));
    read_ns += HostNs() - t0;
    ++reads;
  }
  uint64_t capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  void FlushBuffers(std::function<void()> done) override {
    inner_->FlushBuffers(std::move(done));
  }

  int64_t write_ns = 0;
  int64_t read_ns = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;

 private:
  BlockTarget* inner_;
};

// The harness's own spans (traced pass only), summed per layer.
struct HarnessSpans {
  int64_t generate_ns = 0;  // WorkloadGenerator::Next
  int64_t complete_ns = 0;  // shadow update, read verification, bookkeeping
};

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Closed loop: keeps kIoDepth requests outstanding until `requests` have
// been issued, verifies every completion against the shadow, and records
// each request's simulated latency.
class ClosedLoop {
 public:
  ClosedLoop(Simulator* sim, BlockTarget* target, SyntheticTrace* gen,
             Shadow* shadow, uint64_t requests)
      : sim_(sim),
        target_(target),
        gen_(gen),
        shadow_(shadow),
        requests_(requests),
        slots_(kIoDepth) {
    for (int i = kIoDepth - 1; i >= 0; --i) {
      free_.push_back(i);
    }
  }

  void Trace(HarnessSpans* spans, std::vector<uint64_t>* written_lbns) {
    spans_ = spans;
    written_lbns_ = written_lbns;
  }
  // Notes the first completion after which *counter is nonzero.
  void WatchGc(const uint64_t* gc_runs) { gc_runs_ = gc_runs; }

  void Run() {
    start_ = sim_->Now();
    latencies.reserve(requests_);
    segment_ends.push_back(HostNs());
    Pump();
    sim_->RunUntilIdle();
    segment_ends.push_back(HostNs());
  }

  // Results.
  // Simulated ns of every request in completion order, packed as
  // (latency << 1) | is_write.
  std::vector<uint64_t> latencies;
  uint64_t writes_completed = 0;
  uint64_t completed = 0;
  uint64_t failed_requests = 0;  // bad status or wrong data
  uint64_t status_errors = 0;
  uint64_t wrong_read_blocks = 0;
  uint64_t zero_read_blocks = 0;
  std::vector<uint64_t> wrong_lbas;  // first few
  uint64_t user_write_blocks = 0;
  uint64_t user_read_blocks = 0;
  uint64_t latency_hash = 0xcbf29ce484222325ULL;
  SimTime last_completion = 0;
  uint64_t gc_first_request = 0;  // 0 = GC never ran during the phase
  // Host clock at the start, after every requests/kSegments completions,
  // and after the final drain.
  std::vector<int64_t> segment_ends;
  SimTime start() const { return start_; }

 private:
  struct Slot {
    uint64_t id = 0;  // request id: issue order within the timed phase
    bool is_write = false;
    uint64_t lbn = 0;
    uint64_t nblocks = 0;
    SimTime submitted = 0;
    std::vector<Shadow::Issue> issues;  // writes
    std::vector<Shadow::Snap> snaps;    // reads
  };

  void Pump() {
    if (pumping_) {
      return;  // a synchronous completion re-entered; the outer loop issues
    }
    pumping_ = true;
    while (!free_.empty() && issued_ < requests_) {
      IssueOne();
    }
    pumping_ = false;
  }

  void IssueOne() {
    const int64_t t0 = spans_ != nullptr ? HostNs() : 0;
    const biza::BlockRequest req = gen_->Next();
    const int index = free_.back();
    free_.pop_back();
    Slot& slot = slots_[static_cast<size_t>(index)];
    slot.id = issued_++;
    slot.is_write = req.is_write;
    slot.lbn = req.offset_blocks;
    slot.nblocks = req.nblocks;
    slot.submitted = sim_->Now();
    if (req.is_write) {
      slot.issues.resize(req.nblocks);
      std::vector<uint64_t> patterns(req.nblocks);
      for (uint64_t i = 0; i < req.nblocks; ++i) {
        const uint64_t b = req.offset_blocks + i;
        slot.issues[i] = shadow_->BeginWrite(b);
        patterns[i] = shadow_->Pattern(b, slot.issues[i].version);
        if (written_lbns_ != nullptr) {
          written_lbns_->push_back(b);
        }
      }
      if (spans_ != nullptr) {
        spans_->generate_ns += HostNs() - t0;
      }
      target_->SubmitWrite(
          req.offset_blocks, std::move(patterns),
          [this, index](const Status& s) { OnWrite(index, s); },
          WriteTag::kData);
    } else {
      slot.snaps.resize(req.nblocks);
      for (uint64_t i = 0; i < req.nblocks; ++i) {
        slot.snaps[i] = shadow_->Snapshot(req.offset_blocks + i);
      }
      if (spans_ != nullptr) {
        spans_->generate_ns += HostNs() - t0;
      }
      target_->SubmitRead(
          req.offset_blocks, req.nblocks,
          [this, index](const Status& s, std::vector<uint64_t> patterns) {
            OnRead(index, s, patterns);
          });
    }
  }

  void OnWrite(int index, const Status& s) {
    const int64_t t0 = spans_ != nullptr ? HostNs() : 0;
    Slot& slot = slots_[static_cast<size_t>(index)];
    for (uint64_t i = 0; i < slot.nblocks; ++i) {
      shadow_->EndWrite(slot.lbn + i, slot.issues[i], s.ok());
    }
    user_write_blocks += slot.nblocks;
    const uint64_t lat = sim_->Now() - slot.submitted;
    latencies.push_back(lat << 1 | 1);
    ++writes_completed;
    Finish(slot, s.ok(), true, lat);
    Release(index, t0);
  }

  void OnRead(int index, const Status& s,
              const std::vector<uint64_t>& patterns) {
    const int64_t t0 = spans_ != nullptr ? HostNs() : 0;
    Slot& slot = slots_[static_cast<size_t>(index)];
    bool data_ok = true;
    if (s.ok()) {
      for (uint64_t i = 0; i < slot.nblocks; ++i) {
        const uint64_t b = slot.lbn + i;
        const uint64_t got = i < patterns.size() ? patterns[i] : 0;
        if (i >= patterns.size() || !shadow_->Accept(b, got, slot.snaps[i])) {
          data_ok = false;
          ++wrong_read_blocks;
          zero_read_blocks += got == 0 ? 1 : 0;
          if (wrong_lbas.size() < kMaxWrongExamples) {
            wrong_lbas.push_back(b);
          }
        }
      }
    }
    user_read_blocks += slot.nblocks;
    const uint64_t lat = sim_->Now() - slot.submitted;
    latencies.push_back(lat << 1);
    Finish(slot, s.ok(), data_ok, lat);
    Release(index, t0);
  }

  void Finish(const Slot& slot, bool status_ok, bool data_ok, uint64_t lat) {
    ++completed;
    status_errors += status_ok ? 0 : 1;
    failed_requests += status_ok && data_ok ? 0 : 1;
    latency_hash = Fnv(latency_hash, slot.id);
    latency_hash = Fnv(latency_hash, (slot.lbn << 1) | (slot.is_write ? 1 : 0));
    latency_hash = Fnv(latency_hash, lat);
    last_completion = sim_->Now();
    if (completed % (requests_ / kSegments) == 0 &&
        segment_ends.size() < kSegments) {
      segment_ends.push_back(HostNs());
    }
    if (gc_first_request == 0 && gc_runs_ != nullptr && *gc_runs_ != 0) {
      gc_first_request = completed;
    }
  }

  void Release(int index, int64_t t0) {
    free_.push_back(index);
    if (spans_ != nullptr) {
      spans_->complete_ns += HostNs() - t0;
    }
    Pump();
  }

  Simulator* sim_;
  BlockTarget* target_;
  SyntheticTrace* gen_;
  Shadow* shadow_;
  uint64_t requests_;
  std::vector<Slot> slots_;
  std::vector<int> free_;
  uint64_t issued_ = 0;
  bool pumping_ = false;
  SimTime start_ = 0;
  HarnessSpans* spans_ = nullptr;
  std::vector<uint64_t>* written_lbns_ = nullptr;
  const uint64_t* gc_runs_ = nullptr;
};

// Reads the whole footprint back after Quiesce (no write is outstanding, so
// the accepted versions are v* and the writes that raced with it). Returns
// the number of wrong blocks.
uint64_t ReadBack(Simulator* sim, BlockTarget* target, const Shadow& shadow,
                  uint64_t footprint, std::vector<uint64_t>* wrong_lbas) {
  uint64_t wrong = 0;
  uint64_t next = 0;
  int inflight = 0;
  std::function<void()> pump = [&]() {
    while (inflight < kIoDepth && next < footprint) {
      const uint64_t lbn = next;
      const uint64_t n = std::min(kFillRequestBlocks, footprint - lbn);
      next += n;
      ++inflight;
      target->SubmitRead(
          lbn, n, [&, lbn, n](const Status& s, std::vector<uint64_t> got) {
            --inflight;
            for (uint64_t i = 0; i < n; ++i) {
              const uint64_t b = lbn + i;
              if (!s.ok() || i >= got.size() ||
                  !shadow.Accept(b, got[i], shadow.Snapshot(b))) {
                ++wrong;
                if (wrong_lbas->size() < kMaxWrongExamples) {
                  wrong_lbas->push_back(b);
                }
              }
            }
            pump();
          });
    }
  };
  pump();
  sim->RunUntilIdle();
  return wrong;
}

// ---------------------------------------------------------------------------
// Counters snapshotted at the start and end of the timed phase.
struct Counters {
  uint64_t events = 0;
  std::vector<biza::ZnsDeviceStats> dev;
  std::vector<std::vector<biza::ChannelStats>> chan;  // [device][channel]
  biza::BizaStats biza;
  uint64_t detector_corrections = 0;
  biza::ZapRaidStats zapraid;
  SimTime cpu_engine_ns = 0;
  SimTime cpu_io_ns = 0;
};

Counters Snap(const Simulator& sim, Platform& p) {
  Counters c;
  c.events = sim.fired_events();
  for (ZnsDevice* dev : p.zns_devices()) {
    c.dev.push_back(dev->stats());
    std::vector<biza::ChannelStats> ch;
    for (int i = 0; i < dev->backend().num_channels(); ++i) {
      ch.push_back(dev->backend().channel_stats(i));
    }
    c.chan.push_back(std::move(ch));
  }
  if (p.biza() != nullptr) {
    c.biza = p.biza()->stats();
    for (size_t d = 0; d < c.dev.size(); ++d) {
      c.detector_corrections +=
          p.biza()->detector(static_cast<int>(d)).stats().corrections;
    }
  }
  if (p.zapraid() != nullptr) {
    c.zapraid = p.zapraid()->stats();
  }
  for (const auto& [component, ns] : p.CpuBreakdown()) {
    (component == "io" ? c.cpu_io_ns : c.cpu_engine_ns) += ns;
  }
  return c;
}

// Everything simulated that a pass produces, as one comparable line.
std::string Fingerprint(const ClosedLoop& loop, const Simulator& sim,
                        const Counters& c1, uint64_t events, bool is_biza) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "requests=%" PRIu64 " last=%" PRIu64 " end=%" PRIu64
                " events=%" PRIu64 " lat=%016" PRIx64 " failed=%" PRIu64,
                loop.completed, loop.last_completion, sim.Now(), events,
                loop.latency_hash, loop.failed_requests);
  std::string fp = buf;
  for (size_t d = 0; d < c1.dev.size(); ++d) {
    const biza::ZnsDeviceStats& s = c1.dev[d];
    std::snprintf(buf, sizeof(buf),
                  " dev%zu=%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                  "/%" PRIu64 "/%" PRIu64,
                  d, s.host_written_blocks, s.flash_programmed_blocks,
                  s.zrwa_absorbed_blocks, s.host_read_blocks, s.zone_resets,
                  s.write_failures);
    fp += buf;
  }
  if (is_biza) {
    const biza::BizaStats& s = c1.biza;
    std::snprintf(buf, sizeof(buf),
                  " biza=%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                  "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                  "/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                  s.user_written_blocks, s.user_read_blocks, s.inplace_updates,
                  s.appended_chunks, s.parity_writes, s.gc_runs,
                  s.gc_migrated_data, s.gc_migrated_parity, s.gc_zone_resets,
                  s.write_stalls, s.busy_skips, c1.detector_corrections);
  } else {
    const biza::ZapRaidStats& s = c1.zapraid;
    std::snprintf(buf, sizeof(buf),
                  " zapraid=%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                  "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                  s.user_written_blocks, s.user_read_blocks,
                  s.appended_chunks, s.parity_writes, s.pad_writes, s.gc_runs,
                  s.gc_migrated_data, s.gc_zone_resets, s.write_stalls);
  }
  fp += buf;
  std::snprintf(buf, sizeof(buf), " cpu=%" PRIu64 "/%" PRIu64,
                c1.cpu_engine_ns, c1.cpu_io_ns);
  return fp + buf;
}

// Replays the prefill's writes (untimed), then the timed phase's written
// LBNs, into a standalone ghost cache: the calls BIZA makes, since GC writes
// bypass classification.
struct GhostReplay {
  double on_write_ns = 0;
  double hp_share = 0;
  double hr_share = 0;
};

GhostReplay ReplayGhostCache(const biza::GhostCacheConfig& config,
                             uint64_t footprint,
                             const std::vector<uint64_t>& lbns) {
  GhostReplay out;
  if (lbns.empty()) {
    return out;
  }
  GhostCache cache(config);
  for (uint64_t b = 0; b < footprint; ++b) {
    cache.OnWrite(b);
  }
  uint64_t tiers[3] = {0, 0, 0};
  const int64_t t0 = HostNs();
  for (uint64_t b : lbns) {
    ++tiers[static_cast<int>(cache.OnWrite(b))];
  }
  const double calls = static_cast<double>(lbns.size());
  out.on_write_ns = static_cast<double>(HostNs() - t0) / calls;
  out.hp_share = tiers[static_cast<int>(ChunkTier::kHighProfit)] / calls;
  out.hr_share = tiers[static_cast<int>(ChunkTier::kHighRevenue)] / calls;
  return out;
}

// A testbed: simulator, optional observability and the platform, declared
// so the platform is destroyed before what it points at.
struct Testbed {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Observability> obs;
  std::unique_ptr<Platform> platform;
  uint64_t footprint = 0;
  double create_s = 0;
  double prefill_s = 0;
};

// The afa_bench default geometry: 4 x ZN540, 96 zones x 8 MiB, 1 MiB ZRWA,
// m = 1, seed offset applied the way afa_bench applies it.
Testbed SetUp(const WorkloadSpec& spec, uint64_t seed, bool observe) {
  Testbed tb;
  const int64_t t0 = HostNs();
  tb.sim = std::make_unique<Simulator>();
  PlatformConfig config;
  config.zns = biza::ZnsConfig::Zn540(96, 8 * biza::kMiB / biza::kBlockSize);
  config.zns.zrwa_blocks = static_cast<uint32_t>(biza::kMiB / biza::kBlockSize);
  config.biza.num_parity = 1;
  config.seed += seed;
  config.zns.seed += seed;
  config.shards = 1;  // BIZA_SIM_SHARDS must not change the measured program
  if (observe) {
    tb.obs = std::make_unique<Observability>();  // tracer stays dark
    config.obs = tb.obs.get();
  }
  tb.platform = Platform::Create(tb.sim.get(), spec.kind, config);
  const int64_t t1 = HostNs();
  BlockTarget* target = tb.platform->block();
  tb.footprint =
      std::min(spec.profile().footprint_blocks, target->capacity_blocks() / 2);
  biza::Driver::Fill(tb.sim.get(), target, tb.footprint, kFillRequestBlocks,
                     EpochBase(seed));
  const int64_t t2 = HostNs();
  tb.create_s = static_cast<double>(t1 - t0) / 1e9;
  tb.prefill_s = static_cast<double>(t2 - t1) / 1e9;
  return tb;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Nearest-rank percentile of the packed latencies in [begin, end), in ns.
// Reorders the range.
uint64_t Percentile(std::vector<uint64_t>::iterator begin,
                    std::vector<uint64_t>::iterator end, double p) {
  const size_t n = static_cast<size_t>(end - begin);
  if (n == 0) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  const auto nth = begin + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(begin, nth, end);
  return *nth >> 1;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

void Put(Metrics* m, const std::string& name, double value, const char* unit) {
  m->push_back({name, value, unit});
}

struct PassResult {
  double create_s = 0;
  double prefill_s = 0;
  double host_s = 0;         // timed phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t readback_wrong = 0;
  uint64_t shadow_overflows = 0;
  std::string fingerprint;
  Metrics e2e;     // simulated end-to-end metrics (host ones added by main)
  Metrics layers;  // per-layer metrics (traced pass only)
  double host_req_per_s = 0;
  std::vector<int64_t> segment_ns;  // host ns per segment of the timed phase
};

PassResult RunPass(const WorkloadSpec& spec, uint64_t seed, uint64_t requests,
                   bool traced, Testbed tb, Shadow* shadow) {
  PassResult r;
  r.create_s = tb.create_s;
  r.prefill_s = tb.prefill_s;
  Simulator& sim = *tb.sim;
  Platform& p = *tb.platform;
  if (tb.obs != nullptr) {
    // Histograms cover the timed phase only.
    for (const auto& entry : tb.obs->registry.histograms()) {
      tb.obs->registry.Histogram(entry.first)->Reset();
    }
  }

  TraceProfile profile = spec.profile();
  profile.footprint_blocks = tb.footprint;
  profile.seed += seed;
  SyntheticTrace gen(profile);

  std::unique_ptr<TimedTarget> timed;
  BlockTarget* target = p.block();
  if (traced) {
    timed = std::make_unique<TimedTarget>(target);
    target = timed.get();
  }
  ClosedLoop loop(&sim, target, &gen, shadow, requests);
  HarnessSpans spans;
  std::vector<uint64_t> written_lbns;
  if (traced) {
    loop.Trace(&spans, p.biza() != nullptr ? &written_lbns : nullptr);
  }
  const uint64_t* gc_runs = p.biza() != nullptr ? &p.biza()->stats().gc_runs
                                                : &p.zapraid()->stats().gc_runs;
  const uint64_t gc_before = *gc_runs;
  loop.WatchGc(gc_runs);

  const Counters c0 = Snap(sim, p);
  const int64_t h0 = HostNs();
  loop.Run();
  const int64_t h1 = HostNs();
  const Counters c1 = Snap(sim, p);
  r.host_s = static_cast<double>(h1 - h0) / 1e9;
  r.host_req_per_s = static_cast<double>(loop.completed) / r.host_s;
  for (size_t i = 1; i < loop.segment_ends.size(); ++i) {
    r.segment_ns.push_back(loop.segment_ends[i] - loop.segment_ends[i - 1]);
  }

  // Per-layer histogram readings, taken before Quiesce adds flush traffic.
  biza::LatencyHistogram dev_write;
  biza::LatencyHistogram dev_read;
  double sched_delay_us = 0;
  if (tb.obs != nullptr) {
    for (const auto& [name, hist] : tb.obs->registry.histograms()) {
      if (name.rfind("dev", 0) != 0) {
        continue;
      }
      if (name.find(".zns.write_latency_ns") != std::string::npos) {
        dev_write.Merge(hist);
      } else if (name.find(".zns.read_latency_ns") != std::string::npos) {
        dev_read.Merge(hist);
      }
    }
    for (const auto& sample : tb.obs->registry.Collect()) {
      if (*sample.name == "biza.sched_queue_delay_ns") {
        sched_delay_us = static_cast<double>(sample.value) / 1e3;
      }
    }
  }

  p.Quiesce(&sim);
  std::vector<uint64_t> readback_lbas;
  r.readback_wrong =
      ReadBack(&sim, p.block(), *shadow, tb.footprint, &readback_lbas);
  r.shadow_overflows = shadow->overflows();
  r.attempted = requests;
  r.failed = loop.failed_requests + (requests - loop.completed);

  // --- derived numbers over the timed phase --------------------------------
  const SimTime sim_elapsed = loop.last_completion - loop.start();
  const double user_w = static_cast<double>(loop.user_write_blocks);
  const double user_r = static_cast<double>(loop.user_read_blocks);
  const double reqs = static_cast<double>(loop.completed);
  uint64_t d_host_w = 0, d_flash = 0, d_zrwa = 0, d_host_r = 0, d_resets = 0,
           d_wfail = 0;
  for (size_t d = 0; d < c1.dev.size(); ++d) {
    d_host_w += c1.dev[d].host_written_blocks - c0.dev[d].host_written_blocks;
    d_flash +=
        c1.dev[d].flash_programmed_blocks - c0.dev[d].flash_programmed_blocks;
    d_zrwa += c1.dev[d].zrwa_absorbed_blocks - c0.dev[d].zrwa_absorbed_blocks;
    d_host_r += c1.dev[d].host_read_blocks - c0.dev[d].host_read_blocks;
    d_resets += c1.dev[d].zone_resets - c0.dev[d].zone_resets;
    d_wfail += c1.dev[d].write_failures - c0.dev[d].write_failures;
  }
  std::vector<double> busy;
  for (size_t d = 0; d < c1.chan.size(); ++d) {
    for (size_t ch = 0; ch < c1.chan[d].size(); ++ch) {
      busy.push_back(static_cast<double>(c1.chan[d][ch].bus_busy_ns -
                                         c0.chan[d][ch].bus_busy_ns));
    }
  }
  double busy_sum = 0, busy_max = 0;
  for (double b : busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double busy_mean = busy.empty() ? 0 : busy_sum / busy.size();
  const uint64_t events = c1.events - c0.events;
  const double cpu_engine =
      static_cast<double>(c1.cpu_engine_ns - c0.cpu_engine_ns);
  const double cpu_io = static_cast<double>(c1.cpu_io_ns - c0.cpu_io_ns);

  r.fingerprint = Fingerprint(loop, sim, c1, events, p.biza() != nullptr);

  // --- report lines ---------------------------------------------------------
  std::printf("  host: %.6f s timed, %.6g requests/s\n", r.host_s,
              r.host_req_per_s);
  std::printf("  samples: %" PRIu64 " writes, %" PRIu64
              " reads; user blocks %" PRIu64
              " written, %" PRIu64 " read; simulated %.6f s\n",
              loop.writes_completed, loop.completed - loop.writes_completed,
              loop.user_write_blocks, loop.user_read_blocks,
              static_cast<double>(sim_elapsed) / 1e9);
  if (loop.gc_first_request == 0) {
    std::printf("  gc: never ran during the timed phase (%" PRIu64
                " runs before it)\n",
                gc_before);
  } else {
    std::printf("  gc: timed phase starts %s GC; first GC run seen after "
                "request %" PRIu64 " of %" PRIu64 "\n",
                gc_before == 0 ? "before" : "after", loop.gc_first_request,
                requests);
  }
  std::printf("  in-run wrong read blocks: %" PRIu64 " (%" PRIu64
              " all-zero); status errors: %" PRIu64
              "; read-back wrong blocks: %" PRIu64 " of %" PRIu64 "\n",
              loop.wrong_read_blocks, loop.zero_read_blocks,
              loop.status_errors, r.readback_wrong, tb.footprint);
  for (uint64_t lba : loop.wrong_lbas) {
    std::printf("  wrong read: seed %" PRIu64 " lba %" PRIu64 "\n", seed, lba);
  }
  for (uint64_t lba : readback_lbas) {
    std::printf("  read-back mismatch: seed %" PRIu64 " lba %" PRIu64 "\n",
                seed, lba);
  }

  // --- simulated end-to-end metrics ----------------------------------------
  Metrics& e = r.e2e;
  Put(&e, "write_MBps",
      biza::ThroughputMBps(loop.user_write_blocks * biza::kBlockSize,
                           sim_elapsed),
      "MB/s");
  Put(&e, "read_MBps",
      biza::ThroughputMBps(loop.user_read_blocks * biza::kBlockSize,
                           sim_elapsed),
      "MB/s");
  std::vector<uint64_t>& lat = loop.latencies;
  const auto reads_begin = std::partition(
      lat.begin(), lat.end(), [](uint64_t v) { return (v & 1) != 0; });
  Put(&e, "write_p50_us", Percentile(lat.begin(), reads_begin, 50) / 1e3, "us");
  Put(&e, "write_p99_us", Percentile(lat.begin(), reads_begin, 99) / 1e3, "us");
  Put(&e, "read_p50_us", Percentile(reads_begin, lat.end(), 50) / 1e3, "us");
  Put(&e, "read_p99_us", Percentile(reads_begin, lat.end(), 99) / 1e3, "us");
  Put(&e, "flash_wa", Ratio(static_cast<double>(d_flash), user_w), "ratio");
  Put(&e, "model_cpu_us_per_req", Ratio(cpu_engine + cpu_io, reqs) / 1e3,
      "us");
  Put(&e, "ok_op_ratio",
      Ratio(static_cast<double>(r.attempted - r.failed),
            static_cast<double>(r.attempted)),
      "ratio");

  if (!traced) {
    Put(&r.layers, "sim.events_per_req", Ratio(events, reqs), "count");
    Put(&r.layers, "sim.host_ns_per_event",
        Ratio(static_cast<double>(h1 - h0), static_cast<double>(events)),
        "ns");
    return r;
  }

  // --- per-layer metrics (traced pass) -------------------------------------
  Metrics& l = r.layers;
  const double timed_ns = static_cast<double>(h1 - h0);
  Put(&l, "engine.write_submit_host_ns",
      Ratio(static_cast<double>(timed->write_ns),
            static_cast<double>(timed->writes)),
      "ns");
  Put(&l, "engine.read_submit_host_ns",
      Ratio(static_cast<double>(timed->read_ns),
            static_cast<double>(timed->reads)),
      "ns");
  Put(&l, "host.engine_submit_share",
      Ratio(static_cast<double>(timed->write_ns + timed->read_ns), timed_ns),
      "ratio");
  Put(&l, "host.harness_share",
      Ratio(static_cast<double>(spans.generate_ns + spans.complete_ns),
            timed_ns),
      "ratio");

  // Not on ZapRAID: it has no ghost cache, and its stream would overflow
  // the HR tier (see README.md, defect b).
  const GhostReplay ghost =
      p.biza() != nullptr
          ? ReplayGhostCache(p.biza()->config().ghost, tb.footprint,
                             written_lbns)
          : GhostReplay{};
  Put(&l, "ghost_cache.on_write_host_ns", ghost.on_write_ns, "ns");
  Put(&l, "ghost_cache.hp_share", ghost.hp_share, "ratio");
  Put(&l, "ghost_cache.hr_share", ghost.hr_share, "ratio");

  const biza::BizaStats& b0 = c0.biza;
  const biza::BizaStats& b1 = c1.biza;
  auto bd = [](uint64_t a1, uint64_t a0) {
    return static_cast<double>(a1 - a0);
  };
  Put(&l, "biza.inplace_update_share",
      Ratio(bd(b1.inplace_updates, b0.inplace_updates),
            bd(b1.inplace_updates, b0.inplace_updates) +
                bd(b1.appended_chunks, b0.appended_chunks)),
      "ratio");
  Put(&l, "biza.parity_writes_per_user_block",
      Ratio(bd(b1.parity_writes, b0.parity_writes), user_w), "ratio");
  Put(&l, "biza.gc_migrated_per_user_block",
      Ratio(bd(b1.gc_migrated_data, b0.gc_migrated_data) +
                bd(b1.gc_migrated_parity, b0.gc_migrated_parity),
            user_w),
      "ratio");
  Put(&l, "biza.write_stalls", bd(b1.write_stalls, b0.write_stalls), "count");
  Put(&l, "biza.busy_skips", bd(b1.busy_skips, b0.busy_skips), "count");
  Put(&l, "biza.detector.corrections",
      bd(c1.detector_corrections, c0.detector_corrections), "count");
  Put(&l, "biza.write_retries", bd(b1.write_retries, b0.write_retries),
      "count");
  Put(&l, "biza.read_retries", bd(b1.read_retries, b0.read_retries), "count");
  Put(&l, "biza.sched_queue_delay_us", sched_delay_us, "us");

  const biza::ZapRaidStats& z0 = c0.zapraid;
  const biza::ZapRaidStats& z1 = c1.zapraid;
  Put(&l, "zapraid.gc_migrated_per_user_block",
      Ratio(bd(z1.gc_migrated_data, z0.gc_migrated_data), user_w), "ratio");
  Put(&l, "zapraid.parity_writes_per_user_block",
      Ratio(bd(z1.parity_writes, z0.parity_writes), user_w), "ratio");
  Put(&l, "zapraid.pad_writes_per_user_block",
      Ratio(bd(z1.pad_writes, z0.pad_writes), user_w), "ratio");
  Put(&l, "zapraid.write_stalls", bd(z1.write_stalls, z0.write_stalls),
      "count");

  Put(&l, "cpu_model.engine_us_per_req", Ratio(cpu_engine, reqs) / 1e3, "us");
  Put(&l, "cpu_model.io_us_per_req", Ratio(cpu_io, reqs) / 1e3, "us");

  Put(&l, "zns.host_written_per_user_block", Ratio(d_host_w, user_w), "ratio");
  Put(&l, "zns.device_wa", Ratio(d_flash, d_host_w), "ratio");
  Put(&l, "zns.zrwa_absorbed_share", Ratio(d_zrwa, d_host_w), "ratio");
  Put(&l, "zns.zone_resets_per_gib_user",
      Ratio(d_resets, user_w * biza::kBlockSize / biza::kGiB), "count/GiB");
  Put(&l, "zns.read_blocks_per_user_read_block", Ratio(d_host_r, user_r),
      "ratio");
  Put(&l, "zns.write_failures", static_cast<double>(d_wfail), "count");

  Put(&l, "nand.channel_busy_share",
      Ratio(busy_sum, static_cast<double>(busy.size()) *
                          static_cast<double>(sim.Now() - loop.start())),
      "ratio");
  Put(&l, "nand.channel_busy_imbalance", Ratio(busy_max, busy_mean), "ratio");

  Put(&l, "trace.device_write_p50_us", dev_write.Percentile(50) / 1e3, "us");
  Put(&l, "trace.device_write_p99_us", dev_write.Percentile(99) / 1e3, "us");
  Put(&l, "trace.device_read_p50_us", dev_read.Percentile(50) / 1e3, "us");
  double req_lat_sum = 0;
  for (uint64_t v : loop.latencies) {
    req_lat_sum += static_cast<double>(v >> 1);
  }
  const double req_mean = Ratio(req_lat_sum, reqs);
  biza::LatencyHistogram dev_all = dev_write;
  dev_all.Merge(dev_read);
  Put(&l, "trace.engine_wait_share",
      Ratio(req_mean - dev_all.Mean(), req_mean), "ratio");
  Put(&l, "wrong_read_blocks", static_cast<double>(loop.wrong_read_blocks),
      "count");
  return r;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr || argc % 2 != 1 || !(seconds > 0) ||
      (trace != 0 && trace != 1) || seed > 0xffffffffULL) {
    return Usage();
  }
  const bool traced_run = trace == 1;
  const uint64_t requests = std::max<uint64_t>(
      1000, static_cast<uint64_t>(spec->nominal_req_per_s * seconds / kPasses));
  const int num_passes = traced_run ? 2 : kPasses;
  std::printf("perfbench %s seed %" PRIu64 ": %" PRIu64
              " requests per pass, closed loop, %d outstanding\n",
              spec->name, seed, requests, kIoDepth);

  std::vector<double> setup_s;
  std::vector<double> create_s;
  std::vector<double> prefill_s;
  auto record_setup = [&](const Testbed& tb) {
    setup_s.push_back(tb.create_s + tb.prefill_s);
    create_s.push_back(tb.create_s);
    prefill_s.push_back(tb.prefill_s);
  };
  record_setup(SetUp(*spec, seed, false));  // measured, then torn down
  std::vector<PassResult> passes;
  double rss_mib = 0;
  for (int pass = 0; pass < num_passes; ++pass) {
    const bool traced = traced_run && pass == num_passes - 1;
    Testbed tb = SetUp(*spec, seed, traced);
    record_setup(tb);
    auto shadow = std::make_unique<Shadow>(tb.footprint, seed);
    std::printf("pass %d (%s):\n", pass + 1, traced ? "traced" : "untraced");
    passes.push_back(
        RunPass(*spec, seed, requests, traced, std::move(tb), shadow.get()));
    std::printf("  fingerprint: %s\n", passes.back().fingerprint.c_str());
    if (pass == 0) {
      // Later passes reuse a heap the earlier ones fragmented, so the peak
      // after the first pass is the one that repeats.
      rss_mib = static_cast<double>(biza::PeakRssBytes()) / biza::kMiB;
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PassResult& r : passes) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.readback_wrong != 0) {
      std::printf("FAIL: post-Quiesce read-back found %" PRIu64
                  " wrong blocks\n",
                  r.readback_wrong);
      correct = false;
    }
    if (r.shadow_overflows != 0) {
      std::printf("FAIL: shadow window overflowed %" PRIu64 " times\n",
                  r.shadow_overflows);
      correct = false;
    }
  }
  for (const PassResult& r : passes) {
    if (r.fingerprint != passes[0].fingerprint) {
      std::printf("FAIL: the passes of seed %" PRIu64
                  " disagree on the simulated fingerprint%s\n",
                  seed, traced_run ? " (traced vs untraced)" : "");
      correct = false;
      break;
    }
  }

  Metrics out;
  if (!traced_run) {
    // The passes do identical work segment by segment, and interference
    // from the rest of the machine only ever slows a segment down. So the
    // host time of the timed phase is estimated as the sum, over segments,
    // of the fastest pass's time for that segment.
    std::vector<double> rates;
    for (const PassResult& r : passes) {
      rates.push_back(r.host_req_per_s);
    }
    int64_t best_ns = 0;
    for (size_t i = 0; i < passes[0].segment_ns.size(); ++i) {
      int64_t best = passes[0].segment_ns[i];
      for (const PassResult& r : passes) {
        best = std::min(best, r.segment_ns[i]);
      }
      best_ns += best;
    }
    const double best_rate = static_cast<double>(requests) /
                             (static_cast<double>(best_ns) / 1e9);
    std::printf("host requests/s: median of passes %.6g, segment-best %.6g\n",
                Median(rates), best_rate);
    Put(&out, "host_req_per_s", best_rate, "1/s");
    Put(&out, "setup_s", Median(setup_s), "s");
    Put(&out, "rss_peak_mb", rss_mib, "MiB");
    out.insert(out.end(), passes[0].e2e.begin(), passes[0].e2e.end());
  } else {
    out = passes[0].layers;  // sim.* from the untraced pass
    Put(&out, "setup.create_s", Median(create_s), "s");
    Put(&out, "setup.prefill_s", Median(prefill_s), "s");
    out.insert(out.end(), passes[1].layers.begin(), passes[1].layers.end());
    Put(&out, "trace.overhead",
        Ratio(passes[0].host_req_per_s, passes[1].host_req_per_s), "ratio");
  }
  for (const Metric& m : out) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintJson(correct, attempted, failed, out);
  return 0;
}
