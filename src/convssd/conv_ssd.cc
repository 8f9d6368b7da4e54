#include "src/convssd/conv_ssd.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace biza {

ConvSsd::ConvSsd(Simulator* sim, const ConvSsdConfig& config)
    : sim_(sim),
      config_(config),
      backend_(std::make_unique<NandBackend>(sim, config.timing)),
      nvmeq_(sim, config.nvme, config.dispatch_base_ns),
      rng_(config.seed) {
  const uint64_t physical_pages = static_cast<uint64_t>(
      static_cast<double>(config_.capacity_blocks) *
      (1.0 + config_.over_provision));
  num_flash_blocks_ =
      (physical_pages + config_.pages_per_flash_block - 1) /
      config_.pages_per_flash_block;
  // Keep at least a handful of spare blocks so GC always has a destination.
  num_flash_blocks_ = std::max<uint64_t>(num_flash_blocks_, 8);
  total_pages_ = num_flash_blocks_ * config_.pages_per_flash_block;

  // One chunk per flash block when blocks are small; cap at 1024 entries so
  // huge erase units don't inflate the first-touch cost.
  const uint64_t chunk =
      std::min<uint64_t>(config_.pages_per_flash_block, 1024);
  p2l_ = ChunkedArray<uint64_t>(total_pages_, chunk, kUnmapped);
  page_pattern_ = ChunkedArray<uint64_t>(total_pages_, chunk, 0);
  if (config_.dense_state) {
    p2l_.PreallocateAll();
    page_pattern_.PreallocateAll();
  }
  flash_blocks_.resize(num_flash_blocks_);
  for (uint64_t b = 0; b < num_flash_blocks_; ++b) {
    flash_blocks_[b].channel =
        static_cast<int>(b % static_cast<uint64_t>(config_.timing.num_channels));
  }
  free_blocks_ = num_flash_blocks_;
  // Claim one active block per channel: user writes stripe across channels.
  const int channels = config_.timing.num_channels;
  active_blocks_.assign(static_cast<size_t>(channels), kUnmapped);
  for (uint64_t b = 0; b < num_flash_blocks_ && channels > 0; ++b) {
    const int ch = flash_blocks_[b].channel;
    if (active_blocks_[static_cast<size_t>(ch)] == kUnmapped) {
      active_blocks_[static_cast<size_t>(ch)] = b;
      flash_blocks_[b].free = false;
      free_blocks_--;
    }
  }
}

uint64_t ConvSsd::GrabFreeBlock(int channel_pref) {
  uint64_t fallback = kUnmapped;
  for (uint64_t b = 0; b < num_flash_blocks_; ++b) {
    if (!flash_blocks_[b].free) {
      continue;
    }
    if (channel_pref < 0 || flash_blocks_[b].channel == channel_pref) {
      flash_blocks_[b].free = false;
      flash_blocks_[b].next_page = 0;
      flash_blocks_[b].valid_pages = 0;
      free_blocks_--;
      return b;
    }
    if (fallback == kUnmapped) {
      fallback = b;
    }
  }
  if (fallback == kUnmapped) {
    return kUnmapped;  // exhausted; caller falls back to the GC block
  }
  flash_blocks_[fallback].free = false;
  flash_blocks_[fallback].next_page = 0;
  flash_blocks_[fallback].valid_pages = 0;
  free_blocks_--;
  return fallback;
}

SimTime ConvSsd::DispatchDelay() {
  SimTime delay = config_.dispatch_base_ns;
  if (config_.dispatch_jitter_ns > 0) {
    delay += rng_.Uniform(config_.dispatch_jitter_ns);
  }
  return delay;
}

void ConvSsd::AttachObservability(Observability* obs, int device_id) {
  if (obs == nullptr) {
    backend_->SetTracer(nullptr, device_id);
    return;
  }
  const std::string prefix = "dev" + std::to_string(device_id) + ".conv.";
  StatRegistry& reg = obs->registry;
  reg.RegisterCounter(prefix + "host_written_blocks",
                      [this] { return stats_.host_written_blocks; });
  reg.RegisterCounter(prefix + "flash_programmed_blocks",
                      [this] { return stats_.flash_programmed_blocks; });
  reg.RegisterCounter(prefix + "gc_migrated_blocks",
                      [this] { return stats_.gc_migrated_blocks; });
  reg.RegisterCounter(prefix + "host_read_blocks",
                      [this] { return stats_.host_read_blocks; });
  reg.RegisterCounter(prefix + "erases", [this] { return stats_.erases; });
  reg.RegisterCounter(prefix + "gc_runs", [this] { return stats_.gc_runs; });
  reg.RegisterGauge(prefix + "free_blocks", [this] { return free_blocks_; });
  if (nvmeq_.enabled()) {
    reg.RegisterCounter(prefix + "nvme.doorbells",
                        [this] { return nvmeq_.stats().doorbells; });
    reg.RegisterCounter(prefix + "nvme.interrupts",
                        [this] { return nvmeq_.stats().interrupts; });
    reg.RegisterCounter(prefix + "nvme.qd_stalls",
                        [this] { return nvmeq_.stats().qd_stalls; });
  }
  backend_->SetTracer(&obs->tracer, device_id);
}

void ConvSsd::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                          WriteCallback cb, WriteTag tag) {
  AtArrival([this, lbn, patterns = std::move(patterns), cb = std::move(cb),
             tag]() mutable {
    DoWrite(lbn, std::move(patterns), std::move(cb), tag);
  });
}

uint64_t ConvSsd::AllocatePage(int channel) {
  uint64_t& active = active_blocks_[static_cast<size_t>(channel)];
  if (active == kUnmapped ||
      flash_blocks_[active].next_page >= config_.pages_per_flash_block) {
    active = GrabFreeBlock(channel);
  }
  if (active == kUnmapped) {
    // Device-level exhaustion: steal capacity from another channel's
    // active block (real FTLs never fail a write while any page is free).
    for (uint64_t candidate : active_blocks_) {
      if (candidate != kUnmapped &&
          flash_blocks_[candidate].next_page < config_.pages_per_flash_block) {
        active = candidate;
        break;
      }
    }
  }
  // Emergency path: every pool is dry. Collect synchronously until a block
  // frees up rather than indexing flash_blocks_[kUnmapped].
  while (active == kUnmapped && CollectOne()) {
    active = GrabFreeBlock(channel);
  }
  assert(active != kUnmapped && "FTL truly out of pages");
  FlashBlock& block = flash_blocks_[active];
  const uint64_t ppn = active * config_.pages_per_flash_block + block.next_page;
  block.next_page++;
  block.valid_pages++;
  return ppn;
}

void ConvSsd::MaybeRunGc() {
  const double free_ratio = static_cast<double>(free_blocks_) /
                            static_cast<double>(num_flash_blocks_);
  if (free_ratio >= config_.gc_trigger_free_ratio) {
    return;
  }
  stats_.gc_runs++;
  // The per-collect net gain is fractional (free a victim, consume most of
  // a destination), so the integer free count oscillates; allow a bounded
  // number of non-increasing collects before giving up so the long-run
  // positive drift can materialise.
  int stalled = 0;
  while (static_cast<double>(free_blocks_) /
             static_cast<double>(num_flash_blocks_) <
         config_.gc_stop_free_ratio) {
    const uint64_t before = free_blocks_;
    if (!CollectOne()) {
      break;  // no victim at all
    }
    if (free_blocks_ <= before) {
      if (++stalled > 20) {
        break;  // fully-valid victims only: nothing reclaimable
      }
    } else {
      stalled = 0;
    }
  }
}

bool ConvSsd::CollectOne() {
  // Greedy victim: the sealed block with the fewest valid pages.
  uint64_t victim = kUnmapped;
  uint64_t best_valid = ~0ULL;
  for (uint64_t b = 0; b < num_flash_blocks_; ++b) {
    const FlashBlock& block = flash_blocks_[b];
    if (block.free || b == gc_active_block_) {
      continue;
    }
    bool is_active = false;
    for (uint64_t active : active_blocks_) {
      if (active == b) {
        is_active = true;
        break;
      }
    }
    if (is_active || block.next_page < config_.pages_per_flash_block) {
      continue;  // open blocks and unsealed blocks are not victims
    }
    if (block.valid_pages < best_valid) {
      best_valid = block.valid_pages;
      victim = b;
    }
  }
  if (victim == kUnmapped) {
    return false;
  }
  FlashBlock& vblock = flash_blocks_[victim];
  const int channel = vblock.channel;
  uint64_t migrated = 0;
  // Batched mode coalesces the migration transfers into one read run off the
  // victim plus one program run per destination segment, instead of a
  // page-interleaved read/program pair per live page.
  uint64_t run_pages = 0;
  int run_prog_channel = -1;
  auto flush_runs = [&] {
    if (run_pages > 0) {
      backend_->ReadRun(channel, run_pages, kBlockSize);
      backend_->ProgramRun(run_prog_channel, run_pages, kBlockSize);
      run_pages = 0;
    }
  };
  for (uint64_t p = 0; p < config_.pages_per_flash_block; ++p) {
    const uint64_t ppn = victim * config_.pages_per_flash_block + p;
    const uint64_t lbn = p2l_.Get(ppn);
    if (lbn == kUnmapped) {
      continue;
    }
    // Migrate: read from the victim, program to a GC destination block.
    if (gc_active_block_ == kUnmapped ||
        flash_blocks_[gc_active_block_].next_page >=
            config_.pages_per_flash_block) {
      flush_runs();
      gc_active_block_ = GrabFreeBlock(/*channel_pref=*/-1);
      if (gc_active_block_ == kUnmapped) {
        return false;  // no destination: abandon this collection attempt
      }
    }
    FlashBlock& dest = flash_blocks_[gc_active_block_];
    const uint64_t new_ppn =
        gc_active_block_ * config_.pages_per_flash_block + dest.next_page;
    dest.next_page++;
    dest.valid_pages++;
    p2l_.Mut(new_ppn) = lbn;
    page_pattern_.Mut(new_ppn) = page_pattern_.Get(ppn);
    l2p_.Set(lbn, new_ppn);
    p2l_.Mut(ppn) = kUnmapped;
    migrated++;
    if (config_.batched_gc_io) {
      run_prog_channel = dest.channel;
      run_pages++;
    } else {
      backend_->Read(channel, kBlockSize);
      backend_->BackgroundProgram(dest.channel, kBlockSize);
    }
  }
  flush_runs();
  stats_.gc_migrated_blocks += migrated;
  stats_.flash_programmed_blocks += migrated;
  stats_.flash_by_tag[static_cast<int>(WriteTag::kGcData)] += migrated;
  backend_->Erase(channel);
  stats_.erases++;
  vblock.free = true;
  vblock.next_page = 0;
  vblock.valid_pages = 0;
  free_blocks_++;
  // The erased block's pages are all invalid now: give their chunks back.
  if (!config_.dense_state) {
    const uint64_t lo = victim * config_.pages_per_flash_block;
    const uint64_t hi = lo + config_.pages_per_flash_block;
    p2l_.ClearRange(lo, hi);
    page_pattern_.ClearRange(lo, hi);
  }
  return true;
}

void ConvSsd::DoWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                      WriteCallback cb, WriteTag tag) {
  auto fail = [this, &cb](Status status) {
    CompleteIoNow(
        [cb = std::move(cb), status = std::move(status)] { cb(status); });
  };
  Status fault = FaultCheck(IoKind::kWrite);
  if (!fault.ok()) {
    fail(std::move(fault));
    return;
  }
  const uint64_t n = patterns.size();
  if (n == 0 || lbn + n > config_.capacity_blocks) {
    fail(OutOfRangeError("write beyond capacity"));
    return;
  }
  SimTime done = sim_->Now();
  // Stripe the write across channels in sub-chunks (FTL page striping).
  constexpr uint64_t kStripeChunkBlocks = 8;  // 32 KiB per channel hop
  uint64_t i = 0;
  while (i < n) {
    // Re-check per chunk, not once per request: a large request can consume
    // more free blocks than the GC trigger margin holds, and the FTL must
    // never allocate from a dry pool.
    MaybeRunGc();
    const uint64_t take = std::min(kStripeChunkBlocks, n - i);
    const int channel = static_cast<int>(
        write_rr_++ % static_cast<size_t>(config_.timing.num_channels));
    for (uint64_t j = 0; j < take; ++j) {
      const uint64_t target = lbn + i + j;
      const uint64_t old_ppn = L2p(target);
      if (old_ppn != kUnmapped) {
        // Invalidate the stale page.
        const uint64_t old_block = old_ppn / config_.pages_per_flash_block;
        flash_blocks_[old_block].valid_pages--;
        p2l_.Mut(old_ppn) = kUnmapped;
      }
      const uint64_t ppn = AllocatePage(channel);
      l2p_.Set(target, ppn);
      p2l_.Mut(ppn) = target;
      page_pattern_.Mut(ppn) = patterns[i + j];
    }
    const SimTime chunk_done = backend_->Write(channel, take * kBlockSize);
    done = std::max(done, chunk_done);
    i += take;
  }
  stats_.host_written_blocks += n;
  stats_.flash_programmed_blocks += n;
  stats_.flash_by_tag[static_cast<int>(tag)] += n;
  CompleteIo(Stretch(done), [cb = std::move(cb)]() { cb(OkStatus()); });
}

void ConvSsd::SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  AtArrival([this, lbn, nblocks, cb = std::move(cb)]() mutable {
    DoRead(lbn, nblocks, std::move(cb));
  });
}

void ConvSsd::DoRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  auto fail = [this, &cb](Status status) {
    CompleteIoNow(
        [cb = std::move(cb), status = std::move(status)] { cb(status, {}); });
  };
  Status fault = FaultCheck(IoKind::kRead);
  if (!fault.ok()) {
    fail(std::move(fault));
    return;
  }
  if (nblocks == 0 || lbn + nblocks > config_.capacity_blocks) {
    fail(OutOfRangeError("read beyond capacity"));
    return;
  }
  std::vector<uint64_t> patterns;
  patterns.reserve(nblocks);
  int channel = 0;
  for (uint64_t i = 0; i < nblocks; ++i) {
    const uint64_t ppn = L2p(lbn + i);
    if (ppn == kUnmapped) {
      patterns.push_back(0);
    } else {
      patterns.push_back(page_pattern_.Get(ppn));
      channel = flash_blocks_[ppn / config_.pages_per_flash_block].channel;
    }
  }
  stats_.host_read_blocks += nblocks;
  const SimTime done = backend_->Read(channel, nblocks * kBlockSize);
  CompleteIo(Stretch(done),
             [cb = std::move(cb), patterns = std::move(patterns)]() mutable {
               cb(OkStatus(), std::move(patterns));
             });
}

Result<uint64_t> ConvSsd::ReadPatternSync(uint64_t lbn) const {
  if (lbn >= config_.capacity_blocks) {
    return OutOfRangeError("bad lbn");
  }
  const uint64_t ppn = L2p(lbn);
  if (ppn == kUnmapped) {
    return NotFoundError("unmapped lbn");
  }
  return page_pattern_.Get(ppn);
}

uint64_t ConvSsd::ResidentStateBytes() const {
  return l2p_.allocated_bytes() + p2l_.allocated_bytes() +
         page_pattern_.allocated_bytes() +
         flash_blocks_.capacity() * sizeof(FlashBlock) +
         active_blocks_.capacity() * sizeof(uint64_t);
}

}  // namespace biza
