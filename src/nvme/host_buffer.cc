#include "src/nvme/host_buffer.h"

#include <algorithm>
#include <cassert>

namespace biza {

HostWriteBuffer::HostWriteBuffer(Simulator* sim, BlockTarget* inner,
                                 const HostBufferConfig& config)
    : sim_(sim), inner_(inner), config_(config) {
  if (config_.capacity_blocks == 0) {
    config_.capacity_blocks = 1;
  }
  config_.flush_watermark = std::clamp(config_.flush_watermark, 0.0, 1.0);
  if (config_.max_run_blocks == 0) {
    config_.max_run_blocks = 1;
  }
}

void HostWriteBuffer::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                                  WriteCallback cb, WriteTag tag) {
  stats_.writes++;
  stats_.write_blocks += patterns.size();
  if (!config_.enabled || config_.mode == HostBufferMode::kWriteThrough) {
    inner_->SubmitWrite(lbn, std::move(patterns), std::move(cb), tag);
    return;
  }
  if (patterns.size() >= config_.capacity_blocks) {
    // Too large for the pool: write straight through. Blocks that are also
    // buffered are bumped to the new pattern but stay dirty — an in-flight
    // flush of the older version may land at the device *after* this bypass
    // write, and only a later reflush of the bumped entry repairs that.
    // Cleaning them here would break that repair (and crash replay).
    stats_.bypass_writes++;
    for (uint64_t i = 0; i < patterns.size(); ++i) {
      auto it = entries_.find(lbn + i);
      if (it != entries_.end()) {
        it->second.pattern = patterns[i];
        it->second.version++;
        it->second.tag = tag;
      }
    }
    inner_->SubmitWrite(lbn, std::move(patterns), std::move(cb), tag);
    MaybeFlush(/*force=*/false);
    return;
  }
  Parked w{lbn, std::move(patterns), std::move(cb), tag, 0};
  if (parked_.empty() && Admit(&w)) {
    AckWrite(std::move(w.cb));
  } else {
    // Pool full of undrained data (or earlier writes already queued): keep
    // FIFO order and wait for flush completions to free slots.
    stats_.admission_stalls++;
    parked_.push_back(std::move(w));
    MaybeFlush(/*force=*/true);
    return;
  }
  MaybeFlush(/*force=*/false);
}

bool HostWriteBuffer::Admit(Parked* w) {
  for (; w->next < w->patterns.size(); ++w->next) {
    const uint64_t target = w->lbn + w->next;
    auto it = entries_.find(target);
    if (it != entries_.end()) {
      // Hot update absorbed in place: one device write eroded.
      stats_.absorbed_blocks++;
      it->second.pattern = w->patterns[w->next];
      it->second.version++;
      it->second.tag = w->tag;
      continue;
    }
    if (entries_.size() >= config_.capacity_blocks) {
      return false;
    }
    entries_.emplace(target,
                     Entry{w->patterns[w->next], 1, 0, false, w->tag});
  }
  return true;
}

void HostWriteBuffer::AckWrite(WriteCallback cb) {
  // The ack is a pending host event: a crash (DropPending) before it fires
  // means the write was never acknowledged, so losing it breaks no promise.
  sim_->Schedule(config_.ack_ns, [cb = std::move(cb)] { cb(OkStatus()); });
}

void HostWriteBuffer::MaybeFlush(bool force) {
  const uint64_t watermark = static_cast<uint64_t>(
      config_.flush_watermark * static_cast<double>(config_.capacity_blocks));
  const uint64_t target =
      (force || !flush_all_waiters_.empty()) ? 0 : watermark;
  while (entries_.size() - inflight_flush_blocks_ > target) {
    // Form the next contiguous run of flushable blocks in LBN order (the
    // ordered map makes this deterministic), breaking at tag changes so WA
    // accounting below stays attributable.
    auto it = entries_.begin();
    while (it != entries_.end() && it->second.flush_inflight) {
      ++it;
    }
    if (it == entries_.end()) {
      return;  // everything left is already in flight
    }
    const uint64_t run_lbn = it->first;
    const WriteTag run_tag = it->second.tag;
    std::vector<uint64_t> run_patterns;
    std::vector<uint64_t> captured;
    uint64_t next_lbn = run_lbn;
    while (it != entries_.end() && it->first == next_lbn &&
           !it->second.flush_inflight && it->second.tag == run_tag &&
           run_patterns.size() < config_.max_run_blocks) {
      it->second.flush_inflight = true;
      it->second.flush_version = it->second.version;
      run_patterns.push_back(it->second.pattern);
      captured.push_back(it->second.version);
      ++next_lbn;
      ++it;
    }
    stats_.flush_runs++;
    stats_.flushed_blocks += run_patterns.size();
    inflight_flush_blocks_ += run_patterns.size();
    outstanding_flushes_++;
    inner_->SubmitWrite(
        run_lbn, std::move(run_patterns),
        [this, run_lbn, captured = std::move(captured)](const Status& status) {
          if (!status.ok()) {
            // Keep the blocks dirty; they will be retried by a later flush.
            outstanding_flushes_--;
            inflight_flush_blocks_ -= captured.size();
            for (uint64_t i = 0; i < captured.size(); ++i) {
              auto e = entries_.find(run_lbn + i);
              if (e != entries_.end()) {
                e->second.flush_inflight = false;
              }
            }
            MaybeFinishFlushAll();
            return;
          }
          OnFlushDone(run_lbn, captured);
        },
        run_tag);
  }
}

void HostWriteBuffer::OnFlushDone(uint64_t run_lbn,
                                  const std::vector<uint64_t>& captured) {
  outstanding_flushes_--;
  inflight_flush_blocks_ -= captured.size();
  for (uint64_t i = 0; i < captured.size(); ++i) {
    auto it = entries_.find(run_lbn + i);
    assert(it != entries_.end());
    if (it->second.version == captured[i]) {
      entries_.erase(it);  // durable below, slot freed
    } else {
      it->second.flush_inflight = false;  // re-dirtied while flushing
    }
  }
  DrainParked();
  MaybeFlush(/*force=*/false);
  MaybeFinishFlushAll();
}

void HostWriteBuffer::DrainParked() {
  while (!parked_.empty()) {
    if (!Admit(&parked_.front())) {
      MaybeFlush(/*force=*/true);
      return;
    }
    AckWrite(std::move(parked_.front().cb));
    parked_.pop_front();
  }
}

void HostWriteBuffer::SubmitRead(uint64_t lbn, uint64_t nblocks,
                                 ReadCallback cb) {
  if (!config_.enabled || config_.mode == HostBufferMode::kWriteThrough) {
    inner_->SubmitRead(lbn, nblocks, std::move(cb));
    return;
  }
  // Overlay is snapshotted at submit time: the caller must see the data as
  // of when the read was issued, not versions buffered while it was in
  // flight.
  std::vector<std::pair<uint64_t, uint64_t>> overlay;  // (index, pattern)
  for (uint64_t i = 0; i < nblocks; ++i) {
    auto it = entries_.find(lbn + i);
    if (it != entries_.end()) {
      overlay.emplace_back(i, it->second.pattern);
    }
  }
  stats_.read_hit_blocks += overlay.size();
  if (overlay.size() == nblocks && nblocks > 0) {
    // Fully buffered: serve from the pool without touching the device.
    std::vector<uint64_t> patterns(nblocks);
    for (const auto& [i, pattern] : overlay) {
      patterns[i] = pattern;
    }
    sim_->Schedule(config_.ack_ns, [cb = std::move(cb),
                                    patterns = std::move(patterns)]() mutable {
      cb(OkStatus(), std::move(patterns));
    });
    return;
  }
  inner_->SubmitRead(
      lbn, nblocks,
      [cb = std::move(cb), overlay = std::move(overlay)](
          const Status& status, std::vector<uint64_t> patterns) mutable {
        if (status.ok()) {
          for (const auto& [i, pattern] : overlay) {
            patterns[i] = pattern;
          }
        }
        cb(status, std::move(patterns));
      });
}

void HostWriteBuffer::FlushBuffers(std::function<void()> done) {
  if (!config_.enabled || config_.mode == HostBufferMode::kWriteThrough) {
    inner_->FlushBuffers(std::move(done));
    return;
  }
  flush_all_waiters_.push_back(std::move(done));
  MaybeFlush(/*force=*/true);
  MaybeFinishFlushAll();
}

void HostWriteBuffer::MaybeFinishFlushAll() {
  if (flush_all_waiters_.empty() || !entries_.empty() || !parked_.empty() ||
      outstanding_flushes_ > 0) {
    return;
  }
  auto waiters = std::move(flush_all_waiters_);
  flush_all_waiters_.clear();
  // Our pool is drained; now chain into the engine's own volatile state.
  inner_->FlushBuffers([waiters = std::move(waiters)] {
    for (const auto& w : waiters) {
      w();
    }
  });
}

std::vector<HostWriteBuffer::DirtyBlock> HostWriteBuffer::DirtyContents()
    const {
  std::vector<DirtyBlock> out;
  out.reserve(entries_.size());
  for (const auto& [lbn, entry] : entries_) {
    out.push_back(DirtyBlock{lbn, entry.pattern, entry.tag});
  }
  return out;
}

}  // namespace biza
