// Platform factory: assembles the AFA configurations evaluated in §5.1.
//
//   BIZA           — BizaArray over 4 ZNS SSDs (block interface)
//   BIZAw/oSelector— ablation: random zone-group selection (Fig. 14)
//   BIZAw/oAvoid   — ablation: no GC avoidance (Fig. 15)
//   dmzap+RAIZN    — dm-zap stacked on RAIZN (block interface)
//   mdraid+dmzap   — mdraid over per-SSD dm-zap (block interface)
//   mdraid+ConvSSD — mdraid over conventional SSDs (block interface)
//   RAIZN          — raw RAIZN (ZNS interface; sequential writes only)
//
// A Platform owns its simulated devices and engine stack and exposes the
// uniform metric hooks the bench harness consumes.
#ifndef BIZA_SRC_TESTBED_PLATFORMS_H_
#define BIZA_SRC_TESTBED_PLATFORMS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/biza/biza_array.h"
#include "src/convssd/conv_ssd.h"
#include "src/engines/adapters.h"
#include "src/engines/dmzap.h"
#include "src/engines/mdraid.h"
#include "src/engines/raizn.h"
#include "src/fault/fault_injector.h"
#include "src/health/device_health.h"
#include "src/metrics/observability.h"
#include "src/metrics/wa_report.h"
#include "src/nvme/host_buffer.h"
#include "src/sim/simulator.h"
#include "src/zapraid/zapraid.h"
#include "src/zns/zns_device.h"

namespace biza {

enum class PlatformKind {
  kBiza,
  kBizaNoSelector,
  kBizaNoAvoid,
  kDmzapRaizn,
  kMdraidDmzap,
  kMdraidConv,
  kRaizn,
  kZapRaid,
};

const char* PlatformKindName(PlatformKind kind);

struct PlatformConfig {
  int num_ssds = 4;
  ZnsConfig zns = ZnsConfig::Zn540();
  ConvSsdConfig conv;
  BizaConfig biza;
  DmZapConfig dmzap;
  RaiznConfig raizn;
  MdraidConfig mdraid;
  ZapRaidConfig zapraid;
  uint64_t seed = 1;

  // Unused: the simulator runs on one clock. Kept only because the
  // benchmark harness (perfbench/perfbench.cc) still assigns it; Create
  // asserts it is 0 or 1. Delete it together with that assignment.
  int shards = 0;

  // Scripted device-fault schedule (device death, fail-slow, transient
  // error rates). Every platform always attaches a FaultInjector to its
  // member devices — an empty plan injects nothing and consumes no RNG, so
  // healthy runs stay bit-identical to pre-fault-plane builds.
  FaultPlan faults;

  // Gray-failure self-defense (src/health/). When health.enabled the
  // platform owns a DeviceHealthMonitor fed by the engine's per-device I/O
  // completions and attaches it to BizaArray / Mdraid, arming hedged reads,
  // reconstruct-around reads and steering-aware writes.
  HealthConfig health;

  // Host-side ZNS write-buffer tier (src/nvme/host_buffer.h). When enabled
  // the platform stacks a HostWriteBuffer above the engine's block target;
  // block() then returns the buffer. Disabled by default (bit-identical).
  HostBufferConfig hostbuf;

  // Optional observability sink (not owned). When set, Platform::Create
  // attaches it to every member device and engine: counters/gauges land in
  // obs->registry, spans in obs->tracer. nullptr keeps everything dark.
  Observability* obs = nullptr;

  // Matches per-SSD capacities: the conventional SSD exposes the same data
  // capacity as one ZNS SSD.
  void MatchConvCapacity() {
    conv.capacity_blocks = zns.capacity_blocks();
  }
};

class Platform {
 public:
  static std::unique_ptr<Platform> Create(Simulator* sim, PlatformKind kind,
                                          PlatformConfig config);

  PlatformKind kind() const { return kind_; }
  std::string name() const { return PlatformKindName(kind_); }

  // The block-interface entry point (nullptr for raw RAIZN).
  BlockTarget* block() { return block_; }
  // The ZNS-interface entry point (only for raw RAIZN).
  ZonedTarget* zoned() { return zoned_; }

  // Aggregated endurance metrics across all member SSDs.
  WaBreakdown CollectWa(uint64_t user_blocks) const;
  uint64_t FlashProgrammedBlocks() const;

  // CPU accounting per software component plus a modelled "io" share.
  std::map<std::string, SimTime> CpuBreakdown() const;

  // Flushes all volatile write-back state and drains the simulator.
  void Quiesce(Simulator* sim);

  std::vector<ZnsDevice*> zns_devices();
  std::vector<ConvSsd*> conv_devices();
  BizaArray* biza() { return biza_.get(); }
  Mdraid* mdraid() { return mdraid_.get(); }
  Raizn* raizn() { return raizn_.get(); }
  ZapRaid* zapraid() { return zapraid_.get(); }
  DmZap* top_dmzap() {
    return dmzaps_.empty() ? nullptr : dmzaps_[0].get();
  }
  FaultInjector* faults() { return fault_.get(); }
  DeviceHealthMonitor* health() { return health_.get(); }
  HostWriteBuffer* hostbuf() { return hostbuf_.get(); }

  // Hot-spare provisioning for online rebuild: creates a fresh, empty
  // member device (with the next fault-plan device id) and returns it. The
  // platform keeps ownership; pass the pointer to BizaArray::ReplaceDevice
  // or wrap it for Mdraid::RebuildChild.
  ZnsDevice* AddSpareZnsDevice(Simulator* sim);
  BlockTarget* AddSpareConvTarget(Simulator* sim);

 private:
  Platform() = default;

  PlatformKind kind_ = PlatformKind::kBiza;
  PlatformConfig config_;

  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<DeviceHealthMonitor> health_;
  int next_fault_id_ = 0;

  std::vector<std::unique_ptr<ZnsDevice>> zns_;
  std::vector<std::unique_ptr<ConvSsd>> conv_;
  std::vector<std::unique_ptr<ZnsZonedTarget>> zoned_adapters_;
  std::vector<std::unique_ptr<ConvSsdTarget>> conv_adapters_;
  std::vector<std::unique_ptr<DmZap>> dmzaps_;
  std::unique_ptr<Raizn> raizn_;
  std::unique_ptr<Mdraid> mdraid_;
  std::unique_ptr<BizaArray> biza_;
  std::unique_ptr<ZapRaid> zapraid_;
  // Declared after the engines it wraps: destroyed first.
  std::unique_ptr<HostWriteBuffer> hostbuf_;

  BlockTarget* block_ = nullptr;
  ZonedTarget* zoned_ = nullptr;
};

}  // namespace biza

#endif  // BIZA_SRC_TESTBED_PLATFORMS_H_
