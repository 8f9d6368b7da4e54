#include "src/biza/zone_scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace biza {

ZoneScheduler::ZoneScheduler(ZnsDevice* device, uint32_t zone, int max_retries,
                             SimTime retry_backoff_ns, uint64_t* retry_counter)
    : device_(device),
      zone_(zone),
      max_retries_(max_retries),
      retry_backoff_ns_(retry_backoff_ns),
      retry_counter_(retry_counter) {
  capacity_ = device_->config().zone_capacity_blocks;
  zrwa_blocks_ = device_->config().zrwa_blocks;
  assert(zrwa_blocks_ > 0 && "ZoneScheduler requires a ZRWA zone");
  // Per-block bookkeeping grows with the allocation frontier (GrowTo) rather
  // than being sized for the whole zone up front: a full-geometry zone is
  // ~275k blocks and most open zones fill only a fraction before they are
  // sealed or harvested.
}

void ZoneScheduler::GrowTo(uint64_t n) {
  if (pending_.size() >= n) {
    return;
  }
  // Grow geometrically (bounded by the zone) so single-block allocations
  // do not resize five vectors each.
  n = std::min<uint64_t>(capacity_, std::max<uint64_t>(n, 2 * pending_.size()));
  pending_.resize(n, 0);
  inflight_cnt_.resize(n, 0);
  durable_.resize(n, false);
  patterns_.resize(n, 0);
  oobs_.resize(n, OobRecord{});
}

void ZoneScheduler::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    span_write_ = tracer_->Intern("sched.write");
    key_zone_ = tracer_->Intern("zone");
    key_offset_ = tracer_->Intern("offset");
  }
}

uint64_t ZoneScheduler::Allocate(uint64_t n) {
  assert(alloc_ptr_ + n <= capacity_);
  const uint64_t offset = alloc_ptr_;
  alloc_ptr_ += n;
  unsubmitted_ += n;
  GrowTo(alloc_ptr_);  // every per-block access is below alloc_ptr_
  return offset;
}

bool ZoneScheduler::FitsWindow(const Job& job) const {
  return job.offset >= win_start_ &&
         job.offset + job.patterns.size() <= win_start_ + zrwa_blocks_;
}

void ZoneScheduler::SubmitWrite(uint64_t offset,
                                std::vector<uint64_t> patterns,
                                std::vector<OobRecord> oobs, WriteCallback cb) {
  assert(!patterns.empty());
  assert(offset + patterns.size() <= alloc_ptr_);
  // A job wider than the ZRWA window could never fit it: split into
  // window-sized pieces whose completions are joined.
  if (patterns.size() > zrwa_blocks_) {
    struct SplitJoin {
      int pending = 0;
      Status first_error;
      WriteCallback cb;
    };
    auto join = std::make_shared<SplitJoin>();
    join->cb = std::move(cb);
    const uint64_t total = patterns.size();
    for (uint64_t at = 0; at < total; at += zrwa_blocks_) {
      const uint64_t take = std::min<uint64_t>(zrwa_blocks_, total - at);
      std::vector<uint64_t> part(patterns.begin() + static_cast<long>(at),
                                 patterns.begin() + static_cast<long>(at + take));
      std::vector<OobRecord> part_oobs;
      if (!oobs.empty()) {
        part_oobs.assign(oobs.begin() + static_cast<long>(at),
                         oobs.begin() + static_cast<long>(at + take));
      }
      join->pending++;
      SubmitWrite(offset + at, std::move(part), std::move(part_oobs),
                  [join](const Status& status) {
                    if (!status.ok() && join->first_error.ok()) {
                      join->first_error = status;
                    }
                    if (--join->pending == 0) {
                      join->cb(join->first_error);
                    }
                  });
    }
    return;
  }
  if (offset < win_start_) {
    // The window already slid past: the caller should have checked
    // CanUpdateInPlace() and taken the out-of-place path.
    cb(WriteFailureError("in-place update behind the sliding window"));
    return;
  }
  if (tracer_ != nullptr && tracer_->Armed(device_->sim()->Now())) {
    const SimTime submit = device_->sim()->Now();
    cb = [this, submit, offset, cb = std::move(cb)](const Status& status) {
      tracer_->Record(Tracer::kLaneScheduler, span_write_, submit,
                      device_->sim()->Now(), key_zone_, zone_, key_offset_,
                      static_cast<int64_t>(offset));
      cb(status);
    };
  }
  for (uint64_t i = 0; i < patterns.size(); ++i) {
    patterns_[offset + i] = patterns[i];
    if (!oobs.empty()) {
      oobs_[offset + i] = oobs[i];
    }
  }
  Job job{offset, std::move(patterns), std::move(oobs), std::move(cb),
          /*attempts=*/0, /*enqueued=*/device_->sim()->Now()};
  for (uint64_t i = 0; i < job.patterns.size(); ++i) {
    const uint64_t b = job.offset + i;
    if (!durable_[b] && pending_[b] == 0) {
      assert(unsubmitted_ > 0);
      unsubmitted_--;  // this is the block's first write
    }
    pending_[b]++;
  }
  queue_.push_back(std::move(job));
  // Every older queued job was ineligible after the last pump, and only a
  // window slide can change that here: otherwise just try the new job.
  if (AdvanceWindow()) {
    Pump();
  } else {
    PumpNewest();
  }
}

void ZoneScheduler::SetDispatchObserver(
    std::function<void(uint64_t, uint64_t)> observer) {
  dispatch_observer_ = std::move(observer);
}

void ZoneScheduler::SetInflightCap(uint64_t cap) {
  inflight_cap_ = cap;
  // A raised/cleared cap may unblock queued jobs immediately.
  Pump();
}

bool ZoneScheduler::CanDispatch(const Job& job) const {
  if (!FitsWindow(job)) {
    return false;
  }
  // Gray-device throttle: keep at most inflight_cap_ writes outstanding so
  // the queue drains at the slow device's pace instead of convoying. In-
  // flight retries are already counted and bypass CanDispatch, so the cap
  // never strands a retry.
  if (inflight_cap_ != 0 && inflight_ >= inflight_cap_) {
    return false;
  }
  // Serialize same-block writes: if an older write to any covered block is
  // still in flight, this one waits, so content applies in submission order
  // regardless of I/O-stack reordering.
  for (uint64_t i = 0; i < job.patterns.size(); ++i) {
    if (inflight_cnt_[job.offset + i] > 0) {
      return false;
    }
  }
  return true;
}

bool ZoneScheduler::CapReached() const {
  return inflight_cap_ != 0 && inflight_ >= inflight_cap_;
}

void ZoneScheduler::Pump() {
  // Dispatch every queued job that fits the current window. Jobs beyond the
  // window stay queued in FIFO order; within the window arbitrary dispatch
  // order is safe (see header). A dispatch only ever makes later jobs less
  // eligible, so once the in-flight cap is reached nothing else can go.
  for (auto it = queue_.begin(); it != queue_.end() && !CapReached();) {
    if (CanDispatch(*it)) {
      Job job = std::move(*it);
      it = queue_.erase(it);
      Dispatch(std::move(job));
    } else {
      ++it;
    }
  }
}

void ZoneScheduler::PumpNewest() {
  if (!queue_.empty() && CanDispatch(queue_.back())) {
    Job job = std::move(queue_.back());
    queue_.pop_back();
    Dispatch(std::move(job));
  }
}

void ZoneScheduler::Dispatch(Job job) {
  // Retries re-enter Dispatch with bookkeeping still held from the first
  // attempt, so only count the job once.
  if (job.attempts == 0) {
    inflight_++;
    for (uint64_t i = 0; i < job.patterns.size(); ++i) {
      inflight_cnt_[job.offset + i]++;
    }
    const int64_t wait =
        static_cast<int64_t>(device_->sim()->Now() - job.enqueued);
    queue_delay_ewma_ns_ += (wait - queue_delay_ewma_ns_) / 8;
    if (dispatch_observer_) {
      dispatch_observer_(job.offset, job.patterns.size());
    }
  }
  // The completion's state waits in a slab slot, so the device callback
  // captures 16 bytes and std::function stores it without allocating.
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  InflightSlot& state = slots_[slot];
  state.offset = job.offset;
  state.n = job.patterns.size();
  state.has_oobs = !job.oobs.empty();
  state.attempts = job.attempts;
  state.cb = std::move(job.cb);
  device_->SubmitWrite(zone_, job.offset, std::move(job.patterns),
                       std::move(job.oobs),
                       [this, slot](const Status& status) {
                         OnDeviceWriteDone(slot, status);
                       });
}

void ZoneScheduler::OnDeviceWriteDone(uint32_t slot, const Status& status) {
  InflightSlot& state = slots_[slot];
  const uint64_t offset = state.offset;
  const uint64_t n = state.n;
  const bool has_oobs = state.has_oobs;
  const int attempts = state.attempts;
  WriteCallback cb = std::move(state.cb);
  free_slots_.push_back(slot);
  if (IsRetriable(status) && attempts < max_retries_) {
    // Transient device error: rebuild the job from the retained per-block
    // patterns/OOBs and re-dispatch after backoff. The pending_/inflight_
    // bookkeeping is deliberately NOT released: the window stays frozen
    // over the failed range (reorder safety holds across the retry) and
    // Idle() stays false so the zone cannot be sealed underneath it. A
    // newer in-place update to the same blocks may have refreshed
    // patterns_/oobs_ meanwhile; the retry then writes the newer content,
    // which the still-queued newer job simply rewrites — content converges
    // to newest.
    if (retry_counter_ != nullptr) {
      (*retry_counter_)++;
    }
    Job retry;
    retry.offset = offset;
    retry.attempts = attempts + 1;
    retry.cb = std::move(cb);
    const auto first = static_cast<std::ptrdiff_t>(offset);
    const auto last = static_cast<std::ptrdiff_t>(offset + n);
    retry.patterns.assign(patterns_.begin() + first, patterns_.begin() + last);
    if (has_oobs) {
      retry.oobs.assign(oobs_.begin() + first, oobs_.begin() + last);
    }
    device_->sim()->Schedule(
        RetryBackoffNs(attempts, retry_backoff_ns_),
        [this, retry = std::move(retry)]() mutable {
          Dispatch(std::move(retry));
        });
    return;
  }
  // A queued job can only have become eligible if the window slid, the
  // in-flight cap stopped binding, or one of these blocks has no write in
  // flight any more while a queued job still covers it.
  bool rescan = CapReached();
  inflight_--;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t b = offset + i;
    pending_[b]--;
    inflight_cnt_[b]--;
    durable_[b] = true;
    rescan = rescan || (inflight_cnt_[b] == 0 && pending_[b] > 0);
  }
  if (!status.ok()) {
    BIZA_LOG_ERROR("zone %u write at %llu failed: %s", zone_,
                   static_cast<unsigned long long>(offset),
                   status.ToString().c_str());
  }
  if (AdvanceWindow() || rescan) {
    Pump();
  }
  cb(status);
}

bool ZoneScheduler::AdvanceWindow() {
  // Slide over the completed-contiguous prefix — but only as far as needed
  // to admit the allocation frontier into the window. Durable blocks are
  // kept inside the window as long as possible so they stay updatable in
  // place: this lazy advance IS the ZRWA reservation that absorbs hot
  // updates (§4.2).
  const uint64_t before = win_start_;
  while (win_start_ < alloc_ptr_ && durable_[win_start_] &&
         pending_[win_start_] == 0 &&
         alloc_ptr_ > win_start_ + zrwa_blocks_) {
    win_start_++;
  }
  return win_start_ != before;
}

Status ZoneScheduler::Seal() {
  if (!Idle()) {
    return FailedPreconditionError("seal on a busy zone");
  }
  if (alloc_ptr_ < capacity_) {
    return FailedPreconditionError("seal on a partially allocated zone");
  }
  return device_->FinishZone(zone_);
}

Status ZoneScheduler::SealPartial() {
  if (!Idle()) {
    return FailedPreconditionError("partial seal on a busy zone");
  }
  return device_->FinishZone(zone_);
}

}  // namespace biza
