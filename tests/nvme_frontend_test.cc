// NVMe queue-pair frontend (src/nvme/nvme_queue.h) and host write-buffer
// tier (src/nvme/host_buffer.h):
//   - the default config keeps every device on the legacy jittered dispatch
//     path, bit-identical run to run,
//   - frontend-enabled runs are byte-identical per seed,
//   - queue-depth backpressure, doorbell batching and interrupt coalescing
//     each do what the model claims (stalls counted, events collapsed),
//   - the write-back buffer absorbs hot updates, overlays reads with the
//     newest buffered data, and drains completely on FlushBuffers; the
//     write-through mode leaves the device-write stream unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/convssd/conv_ssd.h"
#include "src/engines/adapters.h"
#include "src/nvme/host_buffer.h"
#include "src/nvme/nvme_queue.h"
#include "src/sim/simulator.h"
#include "src/testbed/platforms.h"
#include "src/workload/driver.h"
#include "src/workload/workload.h"

namespace biza {
namespace {

struct FrontendOutcome {
  std::string fingerprint;
  uint64_t requests_completed = 0;
  NvmeQueueStats nvme;     // summed across member devices
  HostBufferStats hostbuf;  // zero when the buffer is off
};

NvmeQueueStats SumNvmeStats(Platform* platform) {
  NvmeQueueStats out;
  for (ZnsDevice* dev : platform->zns_devices()) {
    const NvmeQueueStats& s = dev->nvme_queue().stats();
    out.commands += s.commands;
    out.doorbells += s.doorbells;
    out.interrupts += s.interrupts;
    out.coalesced_commands += s.coalesced_commands;
    out.coalesced_cqes += s.coalesced_cqes;
    out.qd_stalls += s.qd_stalls;
    out.max_batch = std::max(out.max_batch, s.max_batch);
  }
  return out;
}

// One full driver run of the mixed CASA trace on a scaled BIZA platform,
// with the NVMe frontend and/or host buffer configured. The fingerprint
// folds in every externally visible result, so equal fingerprints mean the
// runs behaved identically.
FrontendOutcome RunCasa(uint64_t seed, const NvmeQueueConfig& nq,
                        const HostBufferConfig& hb = {},
                        uint64_t requests = 2000, int iodepth = 16) {
  Simulator sim;
  PlatformConfig config;
  config.zns = ZnsConfig::Zn540(/*num_zones=*/64, /*zone_capacity_blocks=*/1024);
  config.zns.nvme = nq;
  config.hostbuf = hb;
  config.MatchConvCapacity();
  config.seed = seed;
  auto platform = Platform::Create(&sim, PlatformKind::kBiza, config);

  TraceProfile profile = TraceProfile::AllTable6()[0];
  profile.footprint_blocks = std::min<uint64_t>(
      profile.footprint_blocks, platform->block()->capacity_blocks() / 3);
  SyntheticTrace trace(profile);
  Driver driver(&sim, platform->block(), &trace, iodepth, /*verify=*/true);
  const DriverReport report = driver.Run(requests, 60 * kSecond);
  platform->Quiesce(&sim);

  FrontendOutcome out;
  out.requests_completed = report.requests_completed;
  out.nvme = SumNvmeStats(platform.get());
  if (platform->hostbuf() != nullptr) {
    out.hostbuf = platform->hostbuf()->stats();
  }
  EXPECT_EQ(report.verify_failures, 0u);
  std::ostringstream fp;
  fp << report.requests_completed << '|' << report.bytes_written << '|'
     << report.bytes_read << '|' << report.elapsed_ns << '|'
     << report.write_latency.Summary() << '|' << report.read_latency.Summary()
     << '|' << sim.Now() << '|' << sim.fired_events() << '|'
     << platform->FlashProgrammedBlocks() << '|' << out.nvme.commands << '|'
     << out.nvme.doorbells << '|' << out.nvme.interrupts << '|'
     << out.nvme.coalesced_commands << '|' << out.nvme.coalesced_cqes << '|'
     << out.nvme.qd_stalls << '|' << out.hostbuf.write_blocks << '|'
     << out.hostbuf.absorbed_blocks << '|' << out.hostbuf.flushed_blocks;
  out.fingerprint = fp.str();
  return out;
}

NvmeQueueConfig Frontend(uint32_t queues = 4, uint32_t qd = 32) {
  NvmeQueueConfig nq;
  nq.enabled = true;
  nq.num_queues = queues;
  nq.queue_depth = qd;
  return nq;
}

HostBufferConfig WriteBack(uint64_t capacity = 512) {
  HostBufferConfig hb;
  hb.enabled = true;
  hb.mode = HostBufferMode::kWriteBack;
  hb.capacity_blocks = capacity;
  return hb;
}

// ---------------------------------------------------------------------------
// Legacy-default identity and frontend determinism.

TEST(NvmeFrontend, DefaultConfigStaysOnLegacyPathAndIsBitIdentical) {
  // nvme.enabled defaults to false: the legacy jittered-dispatch code runs
  // verbatim (same RNG consumption), so two default runs are bit-identical
  // and no queue machinery ever fires.
  const FrontendOutcome a = RunCasa(/*seed=*/1, NvmeQueueConfig{});
  EXPECT_EQ(a.nvme.commands, 0u);
  EXPECT_EQ(a.nvme.doorbells, 0u);
  EXPECT_EQ(a.requests_completed, 2000u);
  const FrontendOutcome b = RunCasa(/*seed=*/1, NvmeQueueConfig{});
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NvmeFrontend, QueuedRunIsDeterministic) {
  const FrontendOutcome a = RunCasa(/*seed=*/2, Frontend());
  EXPECT_GT(a.nvme.commands, 0u);
  EXPECT_EQ(a.requests_completed, 2000u);
  const FrontendOutcome b = RunCasa(/*seed=*/2, Frontend());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NvmeFrontend, QueuedRunWithHostBufferIsDeterministic) {
  const FrontendOutcome a1 = RunCasa(/*seed=*/3, Frontend(), WriteBack());
  const FrontendOutcome b1 = RunCasa(/*seed=*/3, Frontend(), WriteBack());
  EXPECT_EQ(a1.fingerprint, b1.fingerprint);
  EXPECT_GT(a1.hostbuf.write_blocks, 0u);
}

// ---------------------------------------------------------------------------
// Queue mechanics: backpressure, batching, coalescing.

TEST(NvmeFrontend, QueueDepthBackpressureParksExcessCommands) {
  // One queue of depth 1 against iodepth 16: nearly every submission finds
  // the SQ full and waits in host software — and still everything completes.
  const FrontendOutcome a =
      RunCasa(/*seed=*/4, Frontend(/*queues=*/1, /*qd=*/1));
  EXPECT_EQ(a.requests_completed, 2000u);
  EXPECT_GT(a.nvme.qd_stalls, 0u);
}

TEST(NvmeFrontend, DoorbellBatchingCollapsesSubmissionEvents) {
  const FrontendOutcome a = RunCasa(/*seed=*/5, Frontend());
  // Commands posted while a ring event is pending ride it instead of
  // scheduling their own: strictly fewer doorbells than commands.
  EXPECT_GT(a.nvme.coalesced_commands, 0u);
  EXPECT_LT(a.nvme.doorbells, a.nvme.commands);
  EXPECT_EQ(a.nvme.doorbells + a.nvme.coalesced_commands, a.nvme.commands);
  EXPECT_GT(a.nvme.max_batch, 1u);
}

TEST(NvmeFrontend, InterruptCoalescingDrainsCompletionBatches) {
  NvmeQueueConfig nq = Frontend();
  nq.irq_threshold = 4;
  const FrontendOutcome a = RunCasa(/*seed=*/6, nq);
  EXPECT_GT(a.nvme.coalesced_cqes, 0u);
  EXPECT_LT(a.nvme.interrupts, a.nvme.commands);
}

// ---------------------------------------------------------------------------
// Host write buffer against a single ConvSSD: absorption, overlay, flush.

struct BufferRig {
  Simulator sim;
  std::unique_ptr<ConvSsd> ssd;
  std::unique_ptr<ConvSsdTarget> target;
  std::unique_ptr<HostWriteBuffer> buffer;

  explicit BufferRig(const HostBufferConfig& hb) {
    ConvSsdConfig cc;
    cc.capacity_blocks = 64 * 1024;
    ssd = std::make_unique<ConvSsd>(&sim, cc);
    target = std::make_unique<ConvSsdTarget>(ssd.get());
    buffer = std::make_unique<HostWriteBuffer>(&sim, target.get(), hb);
  }

  void Write(uint64_t lbn, std::vector<uint64_t> patterns) {
    bool done = false;
    buffer->SubmitWrite(lbn, std::move(patterns),
                        [&done](const Status& s) {
                          EXPECT_TRUE(s.ok());
                          done = true;
                        });
    sim.RunUntilIdle();
    EXPECT_TRUE(done);
  }

  std::vector<uint64_t> Read(uint64_t lbn, uint64_t nblocks) {
    std::vector<uint64_t> got;
    bool done = false;
    buffer->SubmitRead(lbn, nblocks,
                       [&done, &got](const Status& s,
                                     std::vector<uint64_t> patterns) {
                         EXPECT_TRUE(s.ok());
                         got = std::move(patterns);
                         done = true;
                       });
    sim.RunUntilIdle();
    EXPECT_TRUE(done);
    return got;
  }

  void Flush() {
    bool done = false;
    buffer->FlushBuffers([&done] { done = true; });
    sim.RunUntilIdle();
    EXPECT_TRUE(done);
  }
};

TEST(HostWriteBuffer, WriteBackAbsorbsHotUpdates) {
  BufferRig rig(WriteBack(/*capacity=*/512));
  // 32 rewrites of the same 8 blocks; the pool holds them all, so only the
  // final version should ever reach the device.
  for (uint64_t round = 1; round <= 32; ++round) {
    rig.Write(100, std::vector<uint64_t>(8, round));
  }
  EXPECT_EQ(rig.buffer->stats().absorbed_blocks, 31u * 8u);
  rig.Flush();
  EXPECT_EQ(rig.buffer->occupancy_blocks(), 0u);
  // Device saw one 8-block flush run, not 32 writes.
  EXPECT_EQ(rig.ssd->stats().host_written_blocks, 8u);
  EXPECT_EQ(rig.Read(100, 8), std::vector<uint64_t>(8, 32u));
}

TEST(HostWriteBuffer, ReadsOverlayNewestBufferedData) {
  BufferRig rig(WriteBack(/*capacity=*/512));
  rig.Write(10, {1, 2, 3, 4});
  rig.Flush();
  rig.Write(11, {20, 30});  // dirty, not yet flushed
  // Mixed read: blocks 10 and 13 come from the device, 11-12 from the pool.
  EXPECT_EQ(rig.Read(10, 4), (std::vector<uint64_t>{1, 20, 30, 4}));
  // Fully-buffered read never touches the device.
  const uint64_t device_reads = rig.ssd->stats().host_read_blocks;
  EXPECT_EQ(rig.Read(11, 2), (std::vector<uint64_t>{20, 30}));
  EXPECT_EQ(rig.ssd->stats().host_read_blocks, device_reads);
  EXPECT_GT(rig.buffer->stats().read_hit_blocks, 0u);
}

TEST(HostWriteBuffer, WriteThroughLeavesDeviceWriteStreamUnchanged) {
  HostBufferConfig hb;
  hb.enabled = true;
  hb.mode = HostBufferMode::kWriteThrough;
  BufferRig rig(hb);
  for (uint64_t round = 1; round <= 8; ++round) {
    rig.Write(100, std::vector<uint64_t>(4, round));
  }
  // Every write went straight down: no absorption, no pool occupancy.
  EXPECT_EQ(rig.ssd->stats().host_written_blocks, 8u * 4u);
  EXPECT_EQ(rig.buffer->stats().absorbed_blocks, 0u);
  EXPECT_EQ(rig.buffer->occupancy_blocks(), 0u);
  EXPECT_EQ(rig.Read(100, 4), std::vector<uint64_t>(4, 8u));
}

TEST(HostWriteBuffer, AdmissionStallsWhenPoolIsFullAndStillCompletes) {
  BufferRig rig(WriteBack(/*capacity=*/16));
  // 16 disjoint 8-block writes posted back-to-back against a 16-block pool:
  // admission must stall repeatedly on flush completions (FIFO order kept),
  // and every write must still ack.
  int acked = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    rig.buffer->SubmitWrite(i * 8, std::vector<uint64_t>(8, i + 1),
                            [&acked](const Status& s) {
                              EXPECT_TRUE(s.ok());
                              acked++;
                            });
  }
  rig.sim.RunUntilIdle();
  EXPECT_EQ(acked, 16);
  EXPECT_GT(rig.buffer->stats().admission_stalls, 0u);
  rig.Flush();
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rig.Read(i * 8, 8), std::vector<uint64_t>(8, i + 1));
  }
}

TEST(HostWriteBuffer, OversizeWritesBypassThePoolAndStayCoherent) {
  BufferRig rig(WriteBack(/*capacity=*/16));
  rig.Write(0, {7, 7});  // buffered, dirty
  // 32 blocks >= the 16-block pool: written straight through, overlapping
  // buffered blocks bumped to the new data (still dirty, see host_buffer.cc).
  rig.Write(0, std::vector<uint64_t>(32, 9));
  EXPECT_EQ(rig.buffer->stats().bypass_writes, 1u);
  EXPECT_EQ(rig.Read(0, 32), std::vector<uint64_t>(32, 9));
  rig.Flush();
  EXPECT_EQ(rig.Read(0, 32), std::vector<uint64_t>(32, 9));
}

TEST(HostWriteBuffer, DirtyContentsExposeNewestVersions) {
  BufferRig rig(WriteBack(/*capacity=*/512));
  rig.Write(5, {1});
  rig.Write(5, {2});
  rig.Write(9, {3});
  const auto dirty = rig.buffer->DirtyContents();
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0].lbn, 5u);
  EXPECT_EQ(dirty[0].pattern, 2u);  // newest version, not the first
  EXPECT_EQ(dirty[1].lbn, 9u);
  EXPECT_EQ(dirty[1].pattern, 3u);
  rig.Flush();
  EXPECT_TRUE(rig.buffer->DirtyContents().empty());
}

}  // namespace
}  // namespace biza
