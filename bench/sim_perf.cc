// Simulation-engine microbenchmarks: raw event throughput and Schedule()
// overhead of the pooled 4-ary-heap Simulator versus the seed
// implementation (std::priority_queue<Event> + std::function callbacks),
// which is reproduced verbatim below as LegacySimulator so the comparison
// stays honest as the real Simulator evolves.
//
// Run via tools/run_benches.sh (Release build) — the JSON output lands in
// BENCH_sim.json and records the events/sec trajectory across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

// The pre-overhaul simulator, kept as the benchmark baseline. One heap
// allocation per Schedule() (std::function capture) plus a const_cast move
// out of priority_queue::top().
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  SimTime Now() const { return now_; }

  void Schedule(SimTime delay_ns, Callback fn) {
    queue_.push(Event{now_ + delay_ns, next_seq_++, std::move(fn)});
  }

  SimTime RunUntilIdle() {
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.when;
      fired_++;
      event.fn();
    }
    return now_;
  }

  uint64_t fired_events() const { return fired_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t fired_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

// Timer-churn workload: `timers` concurrent self-rescheduling events — the
// shape of a busy device simulation (every in-flight request is a pending
// completion) — firing `total` events in all. The capture (pointer + two
// words of state) matches what engine completion callbacks carry.
template <typename Sim>
void TimerChurn(Sim* sim, int timers, uint64_t total) {
  struct Timer {
    Sim* sim;
    uint64_t state;
    uint64_t* remaining;
    void operator()() {
      if (*remaining == 0) {
        return;
      }
      --*remaining;
      // xorshift step: pseudorandom but deterministic delays exercise
      // realistic heap reorderings rather than FIFO behaviour.
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      sim->Schedule(1 + (state & 0x3FF), Timer{sim, state, remaining});
    }
  };
  uint64_t remaining = total;
  for (int i = 0; i < timers; ++i) {
    const uint64_t seed = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(i + 1);
    sim->Schedule(1 + (seed & 0x3FF), Timer{sim, seed, &remaining});
  }
  sim->RunUntilIdle();
}

constexpr uint64_t kChurnEvents = 1 << 18;

void BM_TimerChurn_Legacy(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LegacySimulator sim;
    TimerChurn(&sim, timers, kChurnEvents);
    benchmark::DoNotOptimize(sim.Now());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kChurnEvents));
}
BENCHMARK(BM_TimerChurn_Legacy)->Arg(32)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_TimerChurn_Pooled(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    TimerChurn(&sim, timers, kChurnEvents);
    benchmark::DoNotOptimize(sim.Now());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kChurnEvents));
}
BENCHMARK(BM_TimerChurn_Pooled)->Arg(32)->Arg(1024)->Unit(benchmark::kMillisecond);

// Schedule()-only cost: push a batch of events with shuffled timestamps,
// then drain. Isolates enqueue/dequeue overhead from callback work. The
// capture is sized like the engines' completion callbacks ([this, submit,
// bytes, offset] — four words): beyond std::function's 16-byte SSO, within
// InlineCallback's inline storage.
constexpr int kBatch = 1 << 16;

template <typename Sim>
void ScheduleDrain(Sim* sim, const std::vector<SimTime>& delays) {
  uint64_t sink = 0;
  for (const SimTime delay : delays) {
    const uint64_t submit = delay;
    const uint64_t bytes = delay ^ 0xFFu;
    const uint64_t offset = delay + 1;
    sim->Schedule(delay, [&sink, submit, bytes, offset]() {
      sink += submit + bytes + offset;
    });
  }
  sim->RunUntilIdle();
  benchmark::DoNotOptimize(sink);
}

std::vector<SimTime> ShuffledDelays() {
  Rng rng(42);
  std::vector<SimTime> delays(kBatch);
  for (auto& d : delays) {
    d = rng.Uniform(1 << 20);
  }
  return delays;
}

void BM_ScheduleDrain_Legacy(benchmark::State& state) {
  const std::vector<SimTime> delays = ShuffledDelays();
  for (auto _ : state) {
    LegacySimulator sim;
    ScheduleDrain(&sim, delays);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_ScheduleDrain_Legacy)->Unit(benchmark::kMillisecond);

void BM_ScheduleDrain_Pooled(benchmark::State& state) {
  const std::vector<SimTime> delays = ShuffledDelays();
  for (auto _ : state) {
    Simulator sim;
    ScheduleDrain(&sim, delays);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_ScheduleDrain_Pooled)->Unit(benchmark::kMillisecond);

// Oversized captures (> InlineCallback::kInlineSize) take the heap-fallback
// path; this guards against regressions making the fallback pathological.
void BM_ScheduleDrain_PooledBigCapture(benchmark::State& state) {
  const std::vector<SimTime> delays = ShuffledDelays();
  struct Big {
    uint64_t payload[9];  // 72 bytes: exceeds inline storage
  };
  for (auto _ : state) {
    Simulator sim;
    uint64_t sink = 0;
    for (const SimTime delay : delays) {
      Big big{};
      big.payload[0] = delay;
      sim.Schedule(delay, [&sink, big]() { sink += big.payload[0]; });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_ScheduleDrain_PooledBigCapture)->Unit(benchmark::kMillisecond);

// Full-geometry device sweep: stream one real ZN540 zone (1077 MiB) through
// a full-capacity device, then reset it. Exercises the sparse-chunk
// allocate / bulk-free path and the batched per-command event cost at true
// zone size — the fixed cost the --full-geometry figure sweeps pay per zone.
void BM_FullGeometryZoneWrite(benchmark::State& state) {
  const uint64_t kCmdBlocks = 1024;
  for (auto _ : state) {
    Simulator sim;
    const ZnsConfig config = ZnsConfig::Zn540(ZnsConfig::kFullZn540Zones,
                                              ZnsConfig::kFullZn540ZoneBlocks);
    ZnsDevice dev(&sim, config);
    const uint64_t total = config.zone_capacity_blocks;
    uint64_t offset = 0;
    std::function<void()> pump = [&]() {
      if (offset >= total) {
        return;
      }
      const uint64_t n = std::min<uint64_t>(kCmdBlocks, total - offset);
      const uint64_t at = offset;
      offset += n;
      std::vector<uint64_t> patterns(static_cast<size_t>(n), at ^ 0x5aULL);
      dev.SubmitWrite(0, at, std::move(patterns), {},
                      [&pump](const Status&) { pump(); });
    };
    pump();
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(dev.ResidentStateBytes());
    (void)dev.ResetZone(0);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(ZnsConfig::kFullZn540ZoneBlocks));
}
BENCHMARK(BM_FullGeometryZoneWrite)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace biza

BENCHMARK_MAIN();
