// Host CPU cost accounting (powers the Fig. 17 reproduction).
//
// The simulator has no real CPU, so each software layer charges a modelled
// cost (in simulated ns of CPU work) per operation into a named account.
// CPU usage% over an interval = charged_ns / interval_ns * 100 (one account
// may exceed 100% of a core, as with multi-threaded mdraid).
//
// The cost constants are calibrated to the *relative* message of Fig. 17:
// dm-zap's single-in-flight spinlock burns the wait time as CPU (it spins),
// parity XOR costs scale with bytes, and per-request fixed costs model bio
// handling. Absolute cycle counts are not the target; component ranking and
// CPU-efficiency ordering are.
#ifndef BIZA_SRC_METRICS_CPU_ACCOUNT_H_
#define BIZA_SRC_METRICS_CPU_ACCOUNT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/units.h"

namespace biza {

// Modelled per-operation CPU costs.
struct CpuCostModel {
  SimTime request_overhead_ns = 1500;   // bio/request handling per request
  SimTime map_lookup_ns = 120;          // one mapping-table lookup
  SimTime map_update_ns = 180;          // one mapping-table update
  SimTime parity_xor_ns_per_kib = 60;   // XOR/RS compute per KiB
  SimTime ghost_cache_op_ns = 250;      // LRU/HR/HP bookkeeping per chunk
  SimTime scheduler_op_ns = 300;        // sliding-window bookkeeping per chunk
  SimTime stripe_cache_op_ns = 350;     // mdraid stripe-cache handling
};

// Hot paths charge by a small component id (Intern once, Charge(id, ns) is
// an array add); the name -> ns map is only built for reporting. A component
// appears in accounts() once charged, even with 0 ns, until Reset().
class CpuAccount {
 public:
  using Id = uint32_t;

  // Returns the id of `component`, registering it on first use. Ids stay
  // valid across Reset().
  Id Intern(std::string_view component) {
    for (Id id = 0; id < slots_.size(); ++id) {
      if (slots_[id].name == component) {
        return id;
      }
    }
    slots_.push_back(Slot{std::string(component), 0, false});
    return static_cast<Id>(slots_.size() - 1);
  }

  void Charge(Id id, SimTime ns) {
    Slot& slot = slots_[id];
    slot.ns += ns;
    slot.charged = true;
    total_ += ns;
  }
  void Charge(std::string_view component, SimTime ns) {
    Charge(Intern(component), ns);
  }

  SimTime total() const { return total_; }
  SimTime of(std::string_view component) const {
    for (const Slot& slot : slots_) {
      if (slot.name == component) {
        return slot.ns;
      }
    }
    return 0;
  }
  std::map<std::string, SimTime> accounts() const {
    std::map<std::string, SimTime> out;
    for (const Slot& slot : slots_) {
      if (slot.charged) {
        out.emplace(slot.name, slot.ns);
      }
    }
    return out;
  }

  // Average CPU usage in percent of one core over `interval_ns`.
  double UsagePercent(SimTime interval_ns) const {
    if (interval_ns == 0) {
      return 0.0;
    }
    return static_cast<double>(total_) / static_cast<double>(interval_ns) * 100.0;
  }

  void Reset() {
    for (Slot& slot : slots_) {
      slot.ns = 0;
      slot.charged = false;
    }
    total_ = 0;
  }

 private:
  struct Slot {
    std::string name;
    SimTime ns = 0;
    bool charged = false;
  };
  std::vector<Slot> slots_;
  SimTime total_ = 0;
};

}  // namespace biza

#endif  // BIZA_SRC_METRICS_CPU_ACCOUNT_H_
