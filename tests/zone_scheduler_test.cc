// Tests of the ZRWA-aware sliding-window scheduler (§4.4), including the
// central reorder-safety property: under arbitrary dispatch jitter, no
// scheduled write ever faults, while a naive parallel writer does.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/biza/zone_scheduler.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/zns/zns_device.h"

namespace biza {
namespace {

ZnsConfig DeviceConfig(SimTime jitter = 0, uint64_t seed = 1) {
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/8, /*zone_cap=*/2048);
  config.dispatch_jitter_ns = jitter;
  config.seed = seed;
  return config;
}

struct Fixture {
  Simulator sim;
  std::unique_ptr<ZnsDevice> dev;
  std::unique_ptr<ZoneScheduler> sched;

  explicit Fixture(const ZnsConfig& config) {
    dev = std::make_unique<ZnsDevice>(&sim, config);
    EXPECT_TRUE(dev->OpenZone(0, /*with_zrwa=*/true).ok());
    sched = std::make_unique<ZoneScheduler>(dev.get(), 0);
  }
};

TEST(ZoneScheduler, AllocateIsContiguous) {
  Fixture f(DeviceConfig());
  EXPECT_EQ(f.sched->Allocate(4), 0u);
  EXPECT_EQ(f.sched->Allocate(2), 4u);
  EXPECT_EQ(f.sched->free_blocks(), 2042u);
}

TEST(ZoneScheduler, WriteWithinWindowCompletes) {
  Fixture f(DeviceConfig());
  const uint64_t off = f.sched->Allocate(3);
  int completions = 0;
  f.sched->SubmitWrite(off, {1, 2, 3}, {}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    completions++;
  });
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(f.sched->Idle());
}

TEST(ZoneScheduler, WritesBeyondWindowQueueUntilItSlides) {
  Fixture f(DeviceConfig());
  // Allocate well past the 256-block window and submit everything at once.
  int completions = 0;
  int failures = 0;
  for (int i = 0; i < 600; ++i) {
    const uint64_t off = f.sched->Allocate(1);
    f.sched->SubmitWrite(off, {static_cast<uint64_t>(i)}, {},
                         [&](const Status& s) {
                           completions++;
                           if (!s.ok()) {
                             failures++;
                           }
                         });
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, 600);
  EXPECT_EQ(failures, 0);
  EXPECT_GT(f.sched->win_start(), 0u);  // the window slid
}

TEST(ZoneScheduler, InPlaceUpdateWithinWindow) {
  Fixture f(DeviceConfig());
  const uint64_t off = f.sched->Allocate(1);
  f.sched->SubmitWrite(off, {10}, {}, [](const Status&) {});
  f.sim.RunUntilIdle();
  ASSERT_TRUE(f.sched->CanUpdateInPlace(off));
  int ok = 0;
  f.sched->SubmitWrite(off, {20}, {}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    ok++;
  });
  f.sim.RunUntilIdle();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(f.sched->PatternAt(off), 20u);
  EXPECT_EQ(f.dev->stats().zrwa_absorbed_blocks, 1u);
}

TEST(ZoneScheduler, CannotUpdateBehindWindow) {
  Fixture f(DeviceConfig());
  // Fill far past the window so block 0 is flushed.
  for (int i = 0; i < 600; ++i) {
    const uint64_t off = f.sched->Allocate(1);
    f.sched->SubmitWrite(off, {1}, {}, [](const Status&) {});
  }
  f.sim.RunUntilIdle();
  EXPECT_FALSE(f.sched->CanUpdateInPlace(0));
}

TEST(ZoneScheduler, PatternTrackingSurvivesWindowSlide) {
  Fixture f(DeviceConfig());
  for (uint64_t i = 0; i < 500; ++i) {
    const uint64_t off = f.sched->Allocate(1);
    f.sched->SubmitWrite(off, {i * 7}, {}, [](const Status&) {});
  }
  f.sim.RunUntilIdle();
  for (uint64_t i = 0; i < 500; i += 37) {
    EXPECT_EQ(f.sched->PatternAt(i), i * 7);
  }
}

TEST(ZoneScheduler, SealRequiresFullAllocationAndIdle) {
  Fixture f(DeviceConfig());
  f.sched->Allocate(10);
  EXPECT_EQ(f.sched->Seal().code(), ErrorCode::kFailedPrecondition);
}

TEST(ZoneScheduler, SealFlushesAndFullsZone) {
  Fixture f(DeviceConfig());
  const uint64_t cap = f.sched->capacity();
  for (uint64_t off = 0; off < cap; off += 64) {
    const uint64_t o = f.sched->Allocate(64);
    f.sched->SubmitWrite(o, std::vector<uint64_t>(64, off), {},
                         [](const Status&) {});
  }
  f.sim.RunUntilIdle();
  ASSERT_TRUE(f.sched->Idle());
  ASSERT_TRUE(f.sched->Seal().ok());
  EXPECT_EQ(f.dev->Report(0).state, ZoneState::kFull);
  EXPECT_EQ(f.dev->stats().flash_programmed_blocks, cap);
}

TEST(ZoneScheduler, IdleAccountsUnsubmittedAllocations) {
  Fixture f(DeviceConfig());
  EXPECT_TRUE(f.sched->Idle());
  const uint64_t off = f.sched->Allocate(1);
  EXPECT_FALSE(f.sched->Idle());  // allocated, not yet submitted
  f.sched->SubmitWrite(off, {1}, {}, [](const Status&) {});
  f.sim.RunUntilIdle();
  EXPECT_TRUE(f.sched->Idle());
}

// ---- The §3.2/§4.4 property: reorder safety under arbitrary jitter -------

class ReorderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReorderPropertyTest, NoWriteFailuresUnderJitter) {
  const uint64_t seed = GetParam();
  ZnsConfig config = DeviceConfig(/*jitter=*/30 * kMicrosecond, seed);
  Fixture f(config);
  Rng rng(seed * 77 + 1);

  int failures = 0;
  int completions = 0;
  int expected = 0;
  // Mixed workload: appends racing ahead of the window plus in-place
  // updates to recently written blocks, all in flight simultaneously.
  for (int burst = 0; burst < 40; ++burst) {
    const int appends = static_cast<int>(1 + rng.Uniform(32));
    for (int i = 0; i < appends && f.sched->free_blocks() > 0; ++i) {
      const uint64_t off = f.sched->Allocate(1);
      expected++;
      f.sched->SubmitWrite(off, {rng.Next()}, {}, [&](const Status& s) {
        completions++;
        if (!s.ok()) {
          failures++;
        }
      });
    }
    // A few in-place updates to random updatable offsets.
    for (int i = 0; i < 8; ++i) {
      if (f.sched->alloc_ptr() == 0) {
        break;
      }
      const uint64_t off =
          f.sched->win_start() +
          rng.Uniform(f.sched->alloc_ptr() - f.sched->win_start());
      if (!f.sched->CanUpdateInPlace(off)) {
        continue;
      }
      expected++;
      f.sched->SubmitWrite(off, {rng.Next()}, {}, [&](const Status& s) {
        completions++;
        if (!s.ok()) {
          failures++;
        }
      });
    }
    // Let the simulation interleave a little before the next burst.
    f.sim.RunFor(rng.Uniform(200 * kMicrosecond));
  }
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, expected);
  EXPECT_EQ(failures, 0) << "seed " << seed;
  EXPECT_EQ(f.dev->stats().write_failures, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---- Incremental pump vs a naive full-rescan reference --------------------

// Reference for the scheduler's dispatch rule: after every submit,
// completion and cap change, one FIFO pass over the WHOLE queue dispatches
// each job that fits the window, has no older write in flight on any of its
// blocks, and is under the in-flight cap.
class NaiveWindowQueue {
 public:
  explicit NaiveWindowQueue(uint64_t zrwa_blocks) : zrwa_(zrwa_blocks) {}

  void Allocate(uint64_t n) {
    alloc_ += n;
    pending_.resize(alloc_, 0);
    inflight_cnt_.resize(alloc_, 0);
    durable_.resize(alloc_, false);
  }
  void Submit(int id, uint64_t offset, uint64_t n) {
    for (uint64_t b = offset; b < offset + n; ++b) {
      pending_[b]++;
    }
    queue_.push_back({id, offset, n});
    Advance();
    Pump();
  }
  void Complete(int id) {
    const Job job = jobs_.at(id);
    inflight_--;
    for (uint64_t b = job.offset; b < job.offset + job.n; ++b) {
      pending_[b]--;
      inflight_cnt_[b]--;
      durable_[b] = true;
    }
    Advance();
    Pump();
  }
  void SetCap(uint64_t cap) {
    cap_ = cap;
    Pump();
  }
  uint64_t win_start() const { return win_start_; }
  const std::vector<std::pair<uint64_t, uint64_t>>& log() const {
    return log_;
  }

 private:
  struct Job {
    int id;
    uint64_t offset;
    uint64_t n;
  };

  bool Eligible(const Job& job) const {
    if (job.offset < win_start_ || job.offset + job.n > win_start_ + zrwa_) {
      return false;
    }
    if (cap_ != 0 && inflight_ >= cap_) {
      return false;
    }
    for (uint64_t b = job.offset; b < job.offset + job.n; ++b) {
      if (inflight_cnt_[b] > 0) {
        return false;
      }
    }
    return true;
  }
  void Pump() {
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (!Eligible(*it)) {
        ++it;
        continue;
      }
      inflight_++;
      for (uint64_t b = it->offset; b < it->offset + it->n; ++b) {
        inflight_cnt_[b]++;
      }
      log_.emplace_back(it->offset, it->n);
      jobs_[it->id] = *it;
      it = queue_.erase(it);
    }
  }
  void Advance() {
    while (win_start_ < alloc_ && durable_[win_start_] &&
           pending_[win_start_] == 0 && alloc_ > win_start_ + zrwa_) {
      win_start_++;
    }
  }

  uint64_t zrwa_;
  uint64_t alloc_ = 0;
  uint64_t win_start_ = 0;
  uint64_t inflight_ = 0;
  uint64_t cap_ = 0;
  std::vector<int> pending_;
  std::vector<int> inflight_cnt_;
  std::vector<bool> durable_;
  std::deque<Job> queue_;
  std::unordered_map<int, Job> jobs_;
  std::vector<std::pair<uint64_t, uint64_t>> log_;
};

class PumpDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PumpDifferentialTest, DispatchOrderMatchesFullRescan) {
  const uint64_t seed = GetParam();
  ZnsConfig config = DeviceConfig(/*jitter=*/30 * kMicrosecond, seed);
  config.zrwa_blocks = 32;  // a narrow window keeps many jobs queued
  Fixture f(config);
  NaiveWindowQueue ref(config.zrwa_blocks);
  std::vector<std::pair<uint64_t, uint64_t>> dispatched;
  f.sched->SetDispatchObserver([&](uint64_t offset, uint64_t n) {
    dispatched.emplace_back(offset, n);
  });
  Rng rng(seed * 131 + 7);
  int next_id = 0;
  int completions = 0;
  auto submit = [&](uint64_t offset, uint64_t n) {
    const int id = next_id++;
    std::vector<uint64_t> patterns(n, rng.Next());
    f.sched->SubmitWrite(offset, std::move(patterns), {},
                         [&, id](const Status& s) {
                           EXPECT_TRUE(s.ok());
                           completions++;
                           ref.Complete(id);
                         });
    ref.Submit(id, offset, n);
  };
  uint64_t capped_steps = 0;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t action = rng.Uniform(100);
    if (action < 40) {
      const uint64_t n = 1 + rng.Uniform(4);
      if (f.sched->free_blocks() >= n) {
        const uint64_t off = f.sched->Allocate(n);
        ref.Allocate(n);
        submit(off, n);
      }
    } else if (action < 75) {
      // In-place update of 1-2 blocks still inside the window.
      if (f.sched->alloc_ptr() > f.sched->win_start()) {
        const uint64_t off =
            f.sched->win_start() +
            rng.Uniform(f.sched->alloc_ptr() - f.sched->win_start());
        const uint64_t n = off + 1 < f.sched->alloc_ptr() ? 1 + rng.Uniform(2)
                                                          : 1;
        if (f.sched->CanUpdateInPlace(off)) {
          submit(off, n);
        }
      }
    } else if (action < 80) {
      const uint64_t cap = rng.Uniform(4);  // 0 = uncapped
      f.sched->SetInflightCap(cap);
      ref.SetCap(cap);
    } else {
      f.sim.RunFor(rng.Uniform(40 * kMicrosecond));
    }
    capped_steps += f.sched->inflight_cap() != 0 ? 1 : 0;
    ASSERT_EQ(f.sched->win_start(), ref.win_start()) << "step " << step;
    ASSERT_EQ(dispatched.size(), ref.log().size()) << "step " << step;
  }
  f.sched->SetInflightCap(0);
  ref.SetCap(0);
  f.sim.RunUntilIdle();
  EXPECT_EQ(completions, next_id);
  EXPECT_TRUE(f.sched->Idle());
  EXPECT_EQ(dispatched, ref.log());
  EXPECT_GT(capped_steps, 0u);
  EXPECT_EQ(f.dev->stats().write_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PumpDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

// Same-block update ordering: content must equal the LAST submitted value
// even when several updates to one block are in flight.
TEST(ZoneScheduler, ConcurrentSameBlockUpdatesApplyInOrder) {
  ZnsConfig config = DeviceConfig(/*jitter=*/30 * kMicrosecond, /*seed=*/5);
  Fixture f(config);
  const uint64_t off = f.sched->Allocate(1);
  for (uint64_t v = 0; v <= 50; ++v) {
    f.sched->SubmitWrite(off, {v}, {}, [](const Status& s) {
      EXPECT_TRUE(s.ok());
    });
  }
  f.sim.RunUntilIdle();
  auto pattern = f.dev->ReadPatternSync(0, off);
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(*pattern, 50u);
}

}  // namespace
}  // namespace biza

namespace biza {
namespace {

TEST(ZoneSchedulerSplit, JobsWiderThanWindowComplete) {
  ZnsConfig config = ZnsConfig::Zn540(/*num_zones=*/8, /*zone_cap=*/2048);
  config.zrwa_blocks = 64;  // narrow window
  config.dispatch_jitter_ns = 0;
  Simulator sim;
  ZnsDevice dev(&sim, config);
  ASSERT_TRUE(dev.OpenZone(0, true).ok());
  ZoneScheduler sched(&dev, 0);
  // A single 500-block write (7.8x the window) must split and complete.
  const uint64_t off = sched.Allocate(500);
  std::vector<uint64_t> patterns(500);
  for (uint64_t i = 0; i < 500; ++i) {
    patterns[i] = i * 3 + 1;
  }
  int completions = 0;
  sched.SubmitWrite(off, std::move(patterns), {}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    completions++;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(sched.Idle());
  for (uint64_t i = 0; i < 500; i += 61) {
    auto pattern = dev.ReadPatternSync(0, off + i);
    ASSERT_TRUE(pattern.ok());
    EXPECT_EQ(*pattern, i * 3 + 1);
  }
  EXPECT_EQ(dev.stats().write_failures, 0u);
}

}  // namespace
}  // namespace biza
