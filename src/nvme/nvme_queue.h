// Modeled NVMe submission/completion queue pairs (the host<->device
// boundary every data-plane command crosses).
//
// Replaces the per-command dispatch path of ZnsDevice/ConvSsd — one
// ScheduleAt per command in, one ScheduleAt per command out — with the
// mechanics of a real NVMe driver, following the NVMe-virt idiom (FEMU):
//
// * Per-core SQ/CQ pairs: commands rotate over `num_queues` submission
//   queues, FIFO within a queue, with a per-queue `queue_depth` cap. A
//   command that finds its SQ full parks in a host-side software queue and
//   enters the SQ when a completion frees a slot — queue depth becomes a
//   first-class experimental knob instead of an unmodelable constant.
// * Doorbell-batched submission: a doorbell ring is ONE simulator event
//   that fetches every SQE posted before it fires. Commands submitted
//   within one doorbell window ride the same event, collapsing the
//   per-command arrival events of the legacy path.
// * Round-robin arbitration: the controller drains SQs in bursts of
//   `arb_burst` commands, rotating across queues (NVMe's mandatory RR
//   arbiter). Each fetched SQE pays a serial `fetch_ns` decode cost, so a
//   deep batch sees growing per-command skew — the queue-derived delay that
//   replaces the legacy dispatch jitter.
// * Interrupt-coalesced completions: CQEs accumulate until `irq_threshold`
//   are pending or `irq_timer_ns` elapses past the first; one interrupt
//   event drains everything ready and delivers it to the host in one go.
//
// Determinism: a batch admits a command submitted at time T only when its
// ring time D satisfies D >= T + doorbell delay, which guarantees the ring
// event has not fired yet. Everything else is a pure function of event
// order, so runs are byte-identical per seed, exactly like the legacy path.
#ifndef BIZA_SRC_NVME_NVME_QUEUE_H_
#define BIZA_SRC_NVME_NVME_QUEUE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace biza {

struct NvmeQueueConfig {
  // Off by default: the device keeps its legacy base+jitter dispatch path,
  // bit-identical to pre-frontend builds.
  bool enabled = false;

  uint32_t num_queues = 4;   // SQ/CQ pairs (per-core queues on a real host)
  uint32_t queue_depth = 32; // per-SQ in-flight cap (NVMe queue depth)

  // Doorbell ring -> SQE fetch latency (MMIO write + fetch start). 0 means
  // "use the device's dispatch_base_ns"; values below that floor are
  // clamped up to it, since the floor is the legacy path's minimum arrival
  // latency.
  SimTime doorbell_ns = 0;

  // Serial per-SQE fetch/decode cost charged in arbitration order.
  SimTime fetch_ns = 200;

  // Commands the arbiter takes from one SQ before rotating (NVMe RR burst).
  uint32_t arb_burst = 8;

  // Interrupt coalescing: fire when this many CQEs are pending...
  uint32_t irq_threshold = 8;
  // ...or this long after a CQE becomes ready, whichever is earlier.
  SimTime irq_timer_ns = 16 * kMicrosecond;
};

struct NvmeQueueStats {
  uint64_t commands = 0;           // data-plane commands submitted
  uint64_t doorbells = 0;          // ring events scheduled
  uint64_t interrupts = 0;         // completion interrupts delivered
  uint64_t coalesced_commands = 0; // SQEs that rode an already-rung doorbell
  uint64_t coalesced_cqes = 0;     // CQEs delivered beyond 1 per interrupt
  uint64_t qd_stalls = 0;          // commands parked in the software queue
  uint64_t max_batch = 0;          // largest single doorbell batch

  // Simulator events the batching absorbed: in the legacy path every
  // coalesced SQE/CQE would have been its own heap event. Bench harnesses
  // add this to fired_events() so BENCH_METRIC keeps counting logical
  // command events when the frontend collapses them.
  uint64_t absorbed_events() const {
    return coalesced_commands + coalesced_cqes;
  }
};

// One device's NVMe frontend (all of its SQ/CQ pairs). Owned by the device.
class NvmeQueuePair {
 public:
  // `floor_ns` is the device's dispatch_base_ns, the minimum doorbell delay.
  NvmeQueuePair(Simulator* sim, const NvmeQueueConfig& config,
                SimTime floor_ns);

  bool enabled() const { return config_.enabled; }
  const NvmeQueueConfig& config() const { return config_; }
  const NvmeQueueStats& stats() const { return stats_; }

  // Host side: posts one command. `fn` executes the device handler (DoWrite
  // etc.) when the SQE is fetched; the handler must route its completion
  // through Complete() exactly once.
  void Submit(InlineCallback fn);

  // Device side, called from inside a command handler: queues the
  // completion (ready at `when` plus the command's fetch skew) on the CQ.
  void Complete(SimTime when, InlineCallback fn);

  // Commands admitted to SQs or parked in software queues but not yet
  // delivered back to the host (test/quiesce visibility).
  uint64_t inflight() const;

 private:
  struct Sqe {
    SimTime submitted = 0;
    uint32_t sq = 0;
    InlineCallback fn;
  };
  struct Batch {
    std::vector<Sqe> entries;
  };
  struct Cqe {
    SimTime ready = 0;
    uint64_t seq = 0;
    uint32_t sq = 0;
    InlineCallback fn;
  };

  static constexpr SimTime kNotArmed = ~SimTime{0};

  SimTime DoorbellNs() const;
  // Host side: places an accepted command into its SQ and makes sure a
  // doorbell ring covers it.
  void Enqueue(uint32_t sq, SimTime submitted, InlineCallback fn);
  // Host side: refills SQ slots from the software overflow queues.
  void DrainOverflow();
  // Device side: one ring event — arbitrate, fetch, execute.
  void RingDoorbell(Batch* batch);
  // Device side: schedule (or keep) an interrupt no later than `want`.
  void ArmInterrupt(SimTime want);
  // Device side: deliver every ready CQE to the host in one go.
  void FireInterrupt();

  Simulator* sim_;
  NvmeQueueConfig config_;
  SimTime floor_ns_;
  NvmeQueueStats stats_;

  // --- host-side state ----------------------------------------------------
  uint64_t sq_rr_ = 0;                       // SQ rotation for new commands
  std::vector<uint32_t> inflight_;           // per-SQ occupied slots
  std::vector<std::deque<InlineCallback>> overflow_;  // QD backpressure
  // The newest batch with a scheduled ring event. The shared_ptr keeps the
  // batch alive for appends until the ring event (which holds the other
  // reference) consumes it; the admission rule (deliver_at >= T + doorbell)
  // proves the event has not fired while the host still appends.
  std::shared_ptr<Batch> open_batch_;
  SimTime open_deliver_at_ = 0;
  uint64_t host_inflight_ = 0;               // accepted - delivered

  // --- device-side state --------------------------------------------------
  uint32_t arb_sq_ = 0;                      // RR arbitration cursor
  SimTime fetch_skew_ = 0;                   // current command's fetch delay
  uint32_t cur_sq_ = 0;                      // current command's SQ
  uint64_t cq_seq_ = 0;
  std::vector<Cqe> cq_;
  SimTime irq_at_ = kNotArmed;
  // Scratch for arbitration bucketing (device side only), reused across
  // rings so the per-doorbell path stays allocation-free.
  std::vector<std::vector<uint32_t>> arb_lists_;
  std::vector<uint32_t> arb_cursor_;
};

}  // namespace biza

#endif  // BIZA_SRC_NVME_NVME_QUEUE_H_
