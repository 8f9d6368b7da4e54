// Deterministic fail-slow ("gray failure") detector that feeds the
// mitigation plane.
//
// A DeviceHealthMonitor ingests per-I/O completion latencies from the
// engines (BizaArray, Mdraid) — never from wall clocks — and classifies each
// member device with a hysteresis state machine:
//
//     healthy --hot window--> suspect --gray_windows hot--> gray
//     gray --recover_windows calm--> recovered (then scored like healthy)
//
// Signals. Per (device, kind) the monitor keeps a latency EWMA plus a
// tumbling window of raw samples; a window closes once it holds at least
// `window_ios` samples AND spans at least `min_window_ns` of simulated time.
// The windowed p99 is compared against a *peer baseline*: the median of the
// other devices' same-kind EWMAs (falling back to the device's own EWMA
// while peers warm up). Using peers rather than the device's own history
// makes the detector robust both to devices that are slow from boot and to
// array-wide noise (GC storms hit every member, so the baseline rises too —
// see the GC-spike immunity test). Requiring a minimum window *duration*
// keeps short bursts of slow I/Os (a GC pulse on one channel) from filling
// a window with only spike samples.
//
// Per-channel write latencies get the same windowed treatment (with the
// device's write baseline) so a single slow channel can be steered around
// without demoting the whole device.
//
// Actions are the callers' job; the monitor only answers questions:
//   * state(d) / IsGray(d) / ShouldHedge(d) — read-path policy inputs.
//   * HedgeDelayNs(d) — deterministic hedge timer: a configured quantile of
//     the *peer* devices' recent read latencies, times a safety multiplier.
//   * ProbeDue(d) — every probe_interval-th read against a gray device
//     should still be sent to it (hedged), so the monitor keeps receiving
//     samples and recovery can trigger under read-only workloads.
//   * SetTransitionHook(fn) — engines use this to apply/clear in-flight
//     caps the moment a device changes state.
//
// Determinism: every input is a sim-time latency and every decision is a
// pure function of the sample sequence, so runs are bit-identical per
// seed. When no monitor is
// attached the engines skip every hook (null-pointer test per site), so
// unmitigated runs stay byte-identical to pre-health builds.
#ifndef BIZA_SRC_HEALTH_DEVICE_HEALTH_H_
#define BIZA_SRC_HEALTH_DEVICE_HEALTH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/simulator.h"

namespace biza {

enum class DeviceHealth : uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kGray = 2,
  kRecovered = 3,
};

const char* DeviceHealthName(DeviceHealth state);

// All detector thresholds and mitigation knobs. Defaults are tuned for the
// simulated ZN540 timing model (~100 µs reads) but nothing is
// device-specific: factors are relative to the peer baseline.
struct HealthConfig {
  bool enabled = false;  // Platform::Create instantiates a monitor iff set

  // Signal extraction.
  double ewma_alpha = 0.05;        // per-sample EWMA weight
  uint32_t window_ios = 64;        // min samples before a window may close
  SimTime min_window_ns = 2000000; // min sim-time span of a window (2 ms)

  // State machine.
  double suspect_factor = 2.5;   // window p99 >= factor*baseline => hot
  double gray_factor = 4.0;      // last hot window must also clear this
  int gray_windows = 3;          // consecutive hot windows before gray
  int recover_windows = 4;       // consecutive calm windows before recovery
  double recover_factor = 1.5;   // window p99 <= factor*baseline => calm

  // Mitigation policy.
  double hedge_quantile = 0.95;    // peer-latency quantile seeding the timer
  double hedge_multiplier = 2.0;   // safety factor on the quantile
  SimTime hedge_floor_ns = 20000;  // never hedge sooner than this (20 µs)
  uint64_t gray_inflight_cap = 4;  // per-zone write cap on a gray device
  uint32_t probe_interval = 16;    // every Nth gray read still probes direct
};

struct HealthStats {
  uint64_t samples = 0;
  uint64_t windows = 0;
  uint64_t suspect_transitions = 0;
  uint64_t gray_transitions = 0;
  uint64_t recoveries = 0;
  uint64_t channel_gray_transitions = 0;
  uint64_t channel_recoveries = 0;
};

class DeviceHealthMonitor {
 public:
  enum class Kind { kRead = 0, kWrite = 1 };

  // from/to device health; fired synchronously inside RecordLatency.
  using TransitionHook = std::function<void(int, DeviceHealth, DeviceHealth)>;

  DeviceHealthMonitor(HealthConfig config, int num_channels);

  // Feed one completion. `channel` < 0 means no channel attribution (reads,
  // ConvSsd internals). Devices are materialized lazily on first sample.
  void RecordLatency(int device, Kind kind, int channel, SimTime latency_ns,
                     SimTime now);

  DeviceHealth state(int device) const;
  bool IsGray(int device) const { return state(device) == DeviceHealth::kGray; }
  // Suspect devices get hedged reads; gray devices are reconstructed around.
  bool ShouldHedge(int device) const {
    return state(device) == DeviceHealth::kSuspect;
  }
  bool IsGrayChannel(int device, int channel) const;

  // Deterministic hedge delay: hedge_multiplier x the hedge_quantile of the
  // peers' most recent closed read windows, floored at hedge_floor_ns.
  SimTime HedgeDelayNs(int device) const;

  // Array-wide read-latency quantile over all devices' most recent closed
  // windows (no exclusion, no multiplier, no floor) — the serving
  // frontend's SLO hedge-delay seed. 0 until a read window has closed.
  SimTime PooledReadQuantileNs(double quantile) const;

  // Deterministic probe schedule: call once per read routed to a gray
  // device; returns true every probe_interval-th call.
  bool ProbeDue(int device);

  // Forget everything about `device` (replacement took over the slot).
  // Fires the transition hook if the device was not healthy.
  void ResetDevice(int device);

  void SetTransitionHook(TransitionHook hook) { hook_ = std::move(hook); }

  const HealthConfig& config() const { return config_; }
  const HealthStats& stats() const { return stats_; }
  int num_devices() const { return static_cast<int>(devices_.size()); }

 private:
  // One EWMA + tumbling window per scored stream.
  struct Signal {
    double ewma = 0.0;
    uint64_t samples = 0;
    std::vector<SimTime> window;
    SimTime window_start = 0;
    bool window_open = false;
    // Sorted copy of the last closed window — HedgeDelayNs pools these.
    std::vector<SimTime> last_window_sorted;
    SimTime last_p99 = 0;
  };

  struct ChannelState {
    Signal signal;
    bool gray = false;
    int hot_streak = 0;
    int calm_streak = 0;
  };

  struct DeviceState {
    Signal signals[2];  // indexed by Kind
    DeviceHealth health = DeviceHealth::kHealthy;
    int hot_streak = 0;
    int calm_streak = 0;
    uint32_t probe_counter = 0;
    std::vector<ChannelState> channels;
  };

  DeviceState& StateFor(int device);
  // True if the window closed (p99 written to signal.last_p99).
  bool FeedSignal(Signal* signal, SimTime latency_ns, SimTime now);
  // Median of the other devices' same-kind EWMAs; falls back to the
  // device's own EWMA until at least one peer has a warm signal.
  double PeerBaseline(int device, Kind kind) const;
  void ScoreWindow(int device, DeviceState& state, Kind kind);
  void ScoreChannelWindow(int device, ChannelState& ch, double baseline);
  void Transition(int device, DeviceState& state, DeviceHealth to);

  HealthConfig config_;
  int num_channels_;
  std::vector<std::unique_ptr<DeviceState>> devices_;
  HealthStats stats_;
  TransitionHook hook_;
};

}  // namespace biza

#endif  // BIZA_SRC_HEALTH_DEVICE_HEALTH_H_
