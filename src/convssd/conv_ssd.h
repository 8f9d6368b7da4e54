// Simulated conventional block-interface SSD (models the WD SN640).
//
// A page-mapped FTL over the same NAND backend as the ZNS device:
// * L2P table (4 KiB pages), out-of-place updates, per-flash-block valid
//   counts.
// * Over-provisioned physical space; greedy garbage collection (victim =
//   fewest valid pages) triggered when free blocks run low. GC migrations
//   and erases occupy channel/die resources inline, so host I/O issued
//   during GC queues behind it — the uncontrollable latency spikes that
//   block-interface AFAs suffer (§2.1).
// * Internal write-amplification accounting (host vs flash writes).
//
// The device is intentionally "dumb": no stream separation and no hints, as
// with a real conventional SSD. The mdraid+ConvSSD baseline builds on it.
#ifndef BIZA_SRC_CONVSSD_CONV_SSD_H_
#define BIZA_SRC_CONVSSD_CONV_SSD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sparse_array.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/common/write_tag.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/observability.h"
#include "src/nand/nand_backend.h"
#include "src/nvme/nvme_queue.h"
#include "src/sim/simulator.h"

namespace biza {

struct ConvSsdConfig {
  std::string model = "SIM-SN640";
  uint64_t capacity_blocks = 512 * 1024;  // 2 GiB user-visible
  double over_provision = 0.10;
  uint64_t pages_per_flash_block = 1024;  // 4 MiB erase unit
  double gc_trigger_free_ratio = 0.06;    // start GC below this free share
  double gc_stop_free_ratio = 0.10;       // collect until this free share
  NandTimingConfig timing = ConvTiming();
  // Legacy dispatch path: base + U[0, jitter) per command. The jitter
  // constant is DEPRECATED in favor of the queue-derived delay of the NVMe
  // frontend below; the legacy default stays bit-identical to seed.
  SimTime dispatch_base_ns = 2 * kMicrosecond;
  SimTime dispatch_jitter_ns = 8 * kMicrosecond;  // deprecated, see above
  // Modeled NVMe SQ/CQ pairs; when enabled the dispatch RNG is never
  // consumed and dispatch_jitter_ns is ignored.
  NvmeQueueConfig nvme;
  uint64_t seed = 1;

  // Model GC transfers as channel runs (one ReadRun + one ProgramRun per
  // migrated segment) instead of page-interleaved singles. Content, mapping
  // and WA accounting are identical either way; only the die-rotation order
  // of the migration arithmetic differs. Off = the legacy per-page model,
  // kept for equivalence tests.
  bool batched_gc_io = true;

  // Dense reference mode: preallocate the physical-page tables up front (the
  // pre-sparse layout) instead of growing them with written data.
  bool dense_state = false;

  static NandTimingConfig ConvTiming() {
    NandTimingConfig t;
    // SN640: 2250 MB/s write, 3331 MB/s read (Table 5), same flash basis.
    t.ctrl_write_mbps = 2250.0;
    t.ctrl_read_mbps = 3331.0;
    return t;
  }
};

struct ConvSsdStats {
  uint64_t host_written_blocks = 0;
  uint64_t flash_programmed_blocks = 0;  // host + GC migrations
  uint64_t flash_by_tag[kNumWriteTags] = {};
  uint64_t gc_migrated_blocks = 0;
  uint64_t host_read_blocks = 0;
  uint64_t erases = 0;
  uint64_t gc_runs = 0;

  double WriteAmplification() const {
    if (host_written_blocks == 0) {
      return 0.0;
    }
    return static_cast<double>(flash_programmed_blocks) /
           static_cast<double>(host_written_blocks);
  }
};

class ConvSsd {
 public:
  using WriteCallback = std::function<void(const Status&)>;
  using ReadCallback =
      std::function<void(const Status&, std::vector<uint64_t> patterns)>;

  ConvSsd(Simulator* sim, const ConvSsdConfig& config);

  // Writes patterns.size() blocks starting at `lbn` (async). `tag`
  // classifies the write for WA-breakdown accounting.
  void SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                   WriteCallback cb, WriteTag tag = WriteTag::kData);
  void SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb);

  Result<uint64_t> ReadPatternSync(uint64_t lbn) const;

  const ConvSsdConfig& config() const { return config_; }
  const ConvSsdStats& stats() const { return stats_; }
  NandBackend& backend() { return *backend_; }
  const NvmeQueuePair& nvme_queue() const { return nvmeq_; }

  // Bytes of FTL state currently resident (L2P + physical-page tables +
  // flash-block descriptors). Scales with written data, not raw capacity.
  uint64_t ResidentStateBytes() const;

  // Interposes `injector` on every command this device serves; `device_id`
  // names this device in the injector's fault plan. Pass nullptr to detach.
  void AttachFaultInjector(FaultInjector* injector, int device_id) {
    fault_ = injector;
    fault_device_id_ = device_id;
  }

  // Registers this device's counters ("dev<id>.conv.*") with the registry
  // and forwards the tracer to the NAND backend for channel/die spans.
  // Pass nullptr to detach.
  void AttachObservability(Observability* obs, int device_id);

 private:
  static constexpr uint64_t kUnmapped = ~0ULL;

  struct FlashBlock {
    int channel = 0;
    uint64_t next_page = 0;       // allocation cursor within the block
    uint64_t valid_pages = 0;
    bool free = true;
  };

  void DoWrite(uint64_t lbn, std::vector<uint64_t> patterns, WriteCallback cb,
               WriteTag tag);
  void DoRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb);

  // Allocates one physical page on `channel`'s active block (FTLs stripe
  // user writes across channels), running GC first if space is low.
  uint64_t AllocatePage(int channel);
  uint64_t GrabFreeBlock(int channel_pref);
  void MaybeRunGc();
  // Returns false when no victim exists.
  bool CollectOne();
  uint64_t FreeBlocks() const { return free_blocks_; }

  SimTime DispatchDelay();

  // Submission/completion paths: through the modeled NVMe queue pairs when
  // enabled, otherwise the legacy jittered dispatch and direct completions.
  template <typename F>
  void AtArrival(F&& fn) {
    if (nvmeq_.enabled()) {
      nvmeq_.Submit(InlineCallback(std::forward<F>(fn)));
      return;
    }
    sim_->ScheduleAt(sim_->Now() + DispatchDelay(), std::forward<F>(fn));
  }
  template <typename F>
  void CompleteIo(SimTime when, F&& fn) {
    if (nvmeq_.enabled()) {
      nvmeq_.Complete(when, InlineCallback(std::forward<F>(fn)));
      return;
    }
    sim_->ScheduleAt(when, std::forward<F>(fn));
  }
  template <typename F>
  void CompleteIoNow(F&& fn) {
    if (nvmeq_.enabled()) {
      nvmeq_.Complete(sim_->Now(), InlineCallback(std::forward<F>(fn)));
      return;
    }
    fn();
  }

  Status FaultCheck(IoKind kind) {
    return fault_ != nullptr ? fault_->OnIo(fault_device_id_, kind)
                             : OkStatus();
  }
  SimTime Stretch(SimTime done) const {
    return fault_ != nullptr
               ? fault_->StretchCompletion(fault_device_id_, -1, done)
               : done;
  }

  Simulator* sim_;
  ConvSsdConfig config_;
  std::unique_ptr<NandBackend> backend_;
  NvmeQueuePair nvmeq_;
  Rng rng_;
  FaultInjector* fault_ = nullptr;
  int fault_device_id_ = -1;

  // l2p_ is hash-keyed because host writes are uniform-random over a vast
  // LBA space (chunking would allocate a chunk per write); the physical
  // tables fill densely within each flash block, so chunks suit them.
  uint64_t L2p(uint64_t lbn) const {
    const uint64_t* ppn = l2p_.Find(lbn);
    return ppn == nullptr ? kUnmapped : *ppn;
  }

  uint64_t total_pages_ = 0;
  uint64_t num_flash_blocks_ = 0;
  SparseTable<uint64_t> l2p_;          // lbn -> ppn (absent = unmapped)
  ChunkedArray<uint64_t> p2l_;         // ppn -> lbn (kUnmapped if invalid)
  ChunkedArray<uint64_t> page_pattern_;
  std::vector<FlashBlock> flash_blocks_;
  std::vector<uint64_t> active_blocks_;   // one open block per channel
  size_t write_rr_ = 0;                   // channel rotation for user writes
  uint64_t gc_active_block_ = kUnmapped;  // separate cursor for GC writes
  uint64_t free_blocks_ = 0;
  ConvSsdStats stats_;
};

}  // namespace biza

#endif  // BIZA_SRC_CONVSSD_CONV_SSD_H_
