#include "src/zapraid/zapraid.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/raid/reed_solomon.h"

namespace biza {

namespace {
inline uint16_t Bit(int device) {
  return static_cast<uint16_t>(1u << device);
}
}  // namespace

ZapRaid::ZapRaid(Simulator* sim, std::vector<ZnsDevice*> devices,
                 const ZapRaidConfig& config)
    : sim_(sim), devices_(std::move(devices)), config_(config) {
  n_ = static_cast<int>(devices_.size());
  assert(n_ >= 2 && n_ <= 16 && "ZapRaid supports 2..16 members");
  k_ = n_ - 1;
  zone_cap_ = devices_[0]->config().zone_capacity_blocks;
  num_zones_ = devices_[0]->config().num_zones;
  for (ZnsDevice* dev : devices_) {
    assert(dev->config().zone_capacity_blocks == zone_cap_);
    assert(dev->config().num_zones == num_zones_);
    (void)dev;
  }
  exposed_blocks_ = static_cast<uint64_t>(
      config_.exposed_capacity_ratio * static_cast<double>(num_zones_) *
      static_cast<double>(zone_cap_) * static_cast<double>(k_));
  groups_.resize(num_zones_);
  free_groups_ = num_zones_;
  device_failed_.assign(static_cast<size_t>(n_), false);
  l2p_.Reserve(exposed_blocks_);
}

ZapRaid::~ZapRaid() {
  // Closures still parked in device-read slots (a crash dropped their
  // completions) may hold rebuild batch tokens; with the rebuild marked
  // inactive, releasing them schedules nothing on the simulator.
  rebuild_.active = false;
}

void ZapRaid::SetGroupUse(uint32_t g, GroupUse use) {
  Group& grp = groups_[g];
  if (grp.use == GroupUse::kFree) {
    --free_groups_;
  }
  if (use == GroupUse::kFree) {
    ++free_groups_;
  }
  grp.use = use;
}

bool ZapRaid::EnsureBuilderOpen(int b) {
  Builder& bd = builders_[b];
  if (bd.open) {
    return true;
  }
  // User appends stall rather than dip into the GC reserve; the GC/rebuild
  // frontier only needs one free group to make forward progress.
  const uint64_t reserve = (b == kUserBuilder) ? config_.reserved_groups : 0;
  if (free_groups_ <= reserve) {
    return false;
  }
  std::vector<int> members;
  for (int d = 0; d < n_; ++d) {
    if (DeviceWritable(d)) {
      members.push_back(d);
    }
  }
  if (members.size() < 2) {
    return false;  // cannot form a stripe (need >= 1 data + 1 parity)
  }
  uint32_t group = num_zones_;
  for (uint32_t g = 0; g < num_zones_; ++g) {
    if (groups_[g].use == GroupUse::kFree) {
      group = g;
      break;
    }
  }
  if (group == num_zones_) {
    return false;
  }
  SetGroupUse(group, GroupUse::kOpen);
  Group& grp = groups_[group];
  grp.valid = 0;
  grp.data_chunks = 0;
  grp.members = 0;
  for (int d : members) {
    grp.members |= Bit(d);
  }
  grp.rows.assign(zone_cap_, RowMeta{});

  auto io = std::make_shared<GroupIo>();
  io->group = group;
  io->queues.resize(static_cast<size_t>(n_));
  active_io_[group] = io;

  bd.open = true;
  bd.group = group;
  bd.row = 0;
  bd.members = std::move(members);
  bd.io = io;
  bd.row_open = false;
  return true;
}

void ZapRaid::EnsureRowOpen(int b) {
  Builder& bd = builders_[b];
  if (bd.row_open) {
    return;
  }
  const int m = static_cast<int>(bd.members.size());
  // Left-asymmetric parity rotation over the group's live members.
  int parity_dev = bd.members[static_cast<size_t>(m - 1 - (bd.row % m))];
  // Parity steering: land the row's parity on a gray member so its
  // stretched completions stay off the foreground read path.
  if (health_ != nullptr) {
    for (int d : bd.members) {
      if (health_->IsGray(d)) {
        if (d != parity_dev) {
          parity_dev = d;
          ++stats_.steered_parity_rows;
        }
        break;
      }
    }
  }
  bd.parity_dev = parity_dev;
  bd.data_devs.clear();
  for (int d : bd.members) {
    if (d != parity_dev) {
      bd.data_devs.push_back(d);
    }
  }
  bd.next_slot = 0;
  bd.row_patterns.assign(bd.data_devs.size(), 0);
  bd.row_open = true;
  groups_[bd.group].rows[bd.row].parity_dev = static_cast<int8_t>(parity_dev);
}

bool ZapRaid::AppendChunk(int b, uint64_t pattern, OobRecord oob, WriteTag tag,
                          ChunkDone done, uint64_t repoint_from) {
  if (!EnsureBuilderOpen(b)) {
    return false;
  }
  Builder& bd = builders_[b];
  EnsureRowOpen(b);
  const int device = bd.data_devs[bd.next_slot];
  const uint32_t group = bd.group;
  const uint64_t row = bd.row;
  Group& grp = groups_[group];

  // `oob.sn` == 0 means "assign a fresh write sequence number"; requeues off
  // a dead member and GC migrations preserve the original so the recovery
  // total order (highest wsn wins) is unaffected.
  const uint32_t requeue_wsn = oob.sn;
  if (oob.sn == 0) {
    oob.sn = next_wsn_++;
  }

  const bool is_data = (tag == WriteTag::kData || tag == WriteTag::kGcData);
  if (is_data) {
    cpu_.Charge(cpu_id_, config_.costs.map_update_ns);
    const uint64_t pa = MakePa(device, group, row);
    bool mapped = false;
    if (repoint_from != kInvalidPa) {
      // Relocation (requeue / GC / rebuild): re-point the L2P only if it
      // still references the source location — a concurrent overwrite wins
      // and this chunk is garbage on arrival (still written so the original
      // ack stays backed by a durable copy).
      L2pEntry* cur = l2p_.Find(oob.lbn);
      if (cur != nullptr && cur->pa == repoint_from &&
          (requeue_wsn == 0 || cur->wsn == requeue_wsn)) {
        InvalidatePa(repoint_from);
        *cur = L2pEntry{pa, oob.sn};
        ++grp.valid;
        mapped = true;
      }
    } else {
      // One probe: a new LBN's entry starts unmapped.
      L2pEntry& cur = l2p_.Upsert(oob.lbn);
      if (cur.pa != kInvalidPa) {
        InvalidatePa(cur.pa);
      }
      cur = L2pEntry{pa, oob.sn};
      ++grp.valid;
      mapped = true;
    }
    if (mapped) {
      // Serve reads of the in-flight block from the host copy until the
      // program lands. This covers relocations too: the L2P already points
      // at the new home, whose block is unwritten until the device acks.
      // Monotonic wsn keeps an old requeue from clobbering a newer pending
      // overwrite; a superseded chunk (mapped == false) must never land
      // here — its payload is stale.
      PendingWrite& pw = pending_.Upsert(oob.lbn);
      if (pw.wsn <= oob.sn) {
        pw = PendingWrite{pattern, oob.sn};
      }
    }
  }
  ++grp.data_chunks;
  grp.rows[row].present |= Bit(device);
  bd.row_patterns[bd.next_slot] = pattern;
  ++bd.next_slot;

  ChunkOp op;
  op.offset = row;
  op.pattern = pattern;
  op.oob = oob;
  op.tag = tag;
  op.done = done;
  ++stats_.appended_chunks;
  Enqueue(bd.io, device, std::move(op));

  if (bd.next_slot == bd.data_devs.size()) {
    CloseRow(b, b == kGcBuilder ? WriteTag::kGcParity : WriteTag::kParity);
  }
  return true;
}

void ZapRaid::CloseRow(int b, WriteTag parity_tag) {
  Builder& bd = builders_[b];
  if (!bd.row_open) {
    return;
  }
  const uint32_t group = bd.group;
  const uint64_t row = bd.row;
  cpu_.Charge(cpu_id_,
            config_.costs.parity_xor_ns_per_kib * (kBlockSize / 1024));
  const uint64_t parity = XorParity(std::span<const uint64_t>(
      bd.row_patterns.data(), bd.row_patterns.size()));
  if (bd.parity_dev >= 0 && DeviceWritable(bd.parity_dev)) {
    ChunkOp op;
    op.offset = row;
    op.pattern = parity;
    // The parity chunk's stripe header is its global row id — recovery
    // cross-checks it against the chunk's geometric position — plus the
    // mask of members whose chunks the XOR covers, so recovery can tell a
    // complete row from a torn one (parity persisted, a data program lost).
    groups_[group].rows[row].parity_cover = groups_[group].rows[row].present;
    op.oob = OobRecord{kParityLbnBase + (static_cast<uint64_t>(group) *
                                         zone_cap_ + row),
                       groups_[group].rows[row].present, parity_tag};
    op.tag = parity_tag;
    ++stats_.parity_writes;
    Enqueue(bd.io, bd.parity_dev, std::move(op));
  } else {
    groups_[group].rows[row].parity_dev = -1;
  }
  bd.row_open = false;
  ++bd.row;
  if (bd.row == zone_cap_) {
    SealGroup(b);
  }
}

void ZapRaid::CloseRowEarly(int b) {
  Builder& bd = builders_[b];
  if (!bd.open || !bd.row_open) {
    return;
  }
  if (bd.next_slot == 0) {
    // Nothing appended to this row yet: simply retract it.
    groups_[bd.group].rows[bd.row].parity_dev = -1;
    bd.row_open = false;
    return;
  }
  ++stats_.rows_closed_early;
  Group& grp = groups_[bd.group];
  // Pad the unfilled data slots so every live member's zone frontier stays
  // in lockstep (per-zone offset == row invariant). Pads are instant
  // garbage: they count in data_chunks but never in valid.
  while (bd.next_slot < bd.data_devs.size()) {
    const int device = bd.data_devs[bd.next_slot];
    bd.row_patterns[bd.next_slot] = 0;
    if (DeviceWritable(device)) {
      grp.rows[bd.row].present |= Bit(device);
      ++grp.data_chunks;
      ChunkOp op;
      op.offset = bd.row;
      op.pattern = 0;
      op.oob = OobRecord{kPadLbn, 0, WriteTag::kMeta};
      op.tag = WriteTag::kMeta;
      ++stats_.pad_writes;
      Enqueue(bd.io, device, std::move(op));
    }
    ++bd.next_slot;
  }
  CloseRow(b, b == kGcBuilder ? WriteTag::kGcParity : WriteTag::kParity);
}

void ZapRaid::SealGroup(int b) {
  Builder& bd = builders_[b];
  if (!bd.open) {
    return;
  }
  CloseRowEarly(b);
  SetGroupUse(bd.group, GroupUse::kSealed);
  // Trailing sentinel per member zone: FINISH the zone once its queue
  // drains, releasing the device's open-zone resources.
  for (int d : bd.members) {
    ChunkOp op;
    op.finish_sentinel = true;
    Enqueue(bd.io, d, std::move(op));
  }
  bd.open = false;
  bd.io.reset();
  CheckGroupDrained(active_io_[bd.group]);
}

void ZapRaid::Enqueue(const std::shared_ptr<GroupIo>& io, int device,
                      ChunkOp op) {
  cpu_.Charge(cpu_id_, config_.costs.scheduler_op_ns);
  io->queues[static_cast<size_t>(device)].q.push_back(std::move(op));
  ++queued_ops_;
  Dispatch(io, device);
}

void ZapRaid::Dispatch(const std::shared_ptr<GroupIo>& io, int device) {
  ZoneQueue& zq = io->queues[static_cast<size_t>(device)];
  if (zq.busy) {
    return;
  }
  while (!zq.q.empty() && zq.q.front().finish_sentinel) {
    zq.q.pop_front();
    --queued_ops_;
    FinishZoneIfOpen(device, io->group);
  }
  if (zq.q.empty()) {
    CheckGroupDrained(io);
    MaybeFlushDone();
    return;
  }
  if (!DeviceWritable(device)) {
    return;  // PurgeQueue re-homes these when the death is processed
  }
  // One batch in flight per zone (the RAIZN discipline): sequential zones
  // require offset == write pointer at *arrival*, so overlapping batches
  // would race through dispatch jitter.
  const uint32_t id = batches_.Acquire();
  WriteBatch& batch = batches_[id];
  batch.io = io;
  batch.device = device;
  batch.attempt = 0;
  batch.start = sim_->Now();
  batch.ops.clear();
  uint64_t expect = zq.q.front().offset;
  while (!zq.q.empty() && batch.ops.size() < config_.dispatch_batch_blocks &&
         !zq.q.front().finish_sentinel && zq.q.front().offset == expect) {
    batch.ops.push_back(zq.q.front());
    zq.q.pop_front();
    --queued_ops_;
    ++expect;
  }
  zq.busy = true;
  ++inflight_;
  SubmitBatch(id);
}

void ZapRaid::FinishZoneIfOpen(int device, uint32_t zone) {
  const ZoneInfo info = devices_[static_cast<size_t>(device)]->Report(zone);
  if (info.state == ZoneState::kOpen || info.state == ZoneState::kClosed) {
    const Status st = devices_[static_cast<size_t>(device)]->FinishZone(zone);
    if (!st.ok()) {
      BIZA_LOG_WARN("zapraid: finish dev %d zone %u: %s", device, zone,
                    st.ToString().c_str());
    }
  }
}

void ZapRaid::SubmitBatch(uint32_t id) {
  const WriteBatch& batch = batches_[id];
  std::vector<uint64_t> patterns;
  std::vector<OobRecord> oobs;
  patterns.reserve(batch.ops.size());
  oobs.reserve(batch.ops.size());
  for (const ChunkOp& op : batch.ops) {
    patterns.push_back(op.pattern);
    oobs.push_back(op.oob);
  }
  devices_[static_cast<size_t>(batch.device)]->SubmitWrite(
      batch.io->group, batch.ops.front().offset, std::move(patterns),
      std::move(oobs),
      [this, id](const Status& status) { OnBatchWritten(id, status); });
}

void ZapRaid::OnBatchWritten(uint32_t id, const Status& status) {
  // Chunk completions may dispatch new batches (growing the slab), so the
  // slot is re-indexed after every call and released at the end.
  const std::shared_ptr<GroupIo> io = batches_[id].io;
  const int device = batches_[id].device;
  ZoneQueue& zq = io->queues[static_cast<size_t>(device)];
  if (status.ok()) {
    if (health_ != nullptr) {
      health_->RecordLatency(device, DeviceHealthMonitor::Kind::kWrite, -1,
                             sim_->Now() - batches_[id].start, sim_->Now());
    }
    zq.busy = false;
    --inflight_;
    for (size_t x = 0; x < batches_[id].ops.size(); ++x) {
      MarkDurable(io->group, device, batches_[id].ops[x]);
    }
    batches_[id].io.reset();
    batches_.Release(id);
    Dispatch(io, device);
    CheckGroupDrained(io);
    MaybeFlushDone();
    return;
  }
  if (IsRetriable(status) && batches_[id].attempt < config_.max_io_retries) {
    ++stats_.write_retries;
    sim_->Schedule(
        RetryBackoffNs(batches_[id].attempt, config_.retry_backoff_base_ns),
        [this, id] {
          ++batches_[id].attempt;
          SubmitBatch(id);
        });
    return;
  }
  --inflight_;
  if (status.code() == ErrorCode::kUnavailable) {
    // The member died with this batch in flight: enter degraded mode
    // and re-append the batch's chunks onto live members.
    zq.busy = false;
    OnDeviceUnavailable(device);
    for (size_t x = 0; x < batches_[id].ops.size(); ++x) {
      RequeueOp(TagBuilder(batches_[id].ops[x].tag), batches_[id].ops[x],
                io->group, device);
    }
  } else {
    BIZA_LOG_ERROR("zapraid: write dev %d zone %u failed: %s", device,
                   io->group, status.ToString().c_str());
    // Terminal zone failure: nothing programmed, so the zone's write
    // pointer no longer matches the queued offsets and later batches
    // could never land either. Re-home the batch and everything
    // queued behind it — the member-death discipline scoped to this
    // one zone. The repoint machinery rolls the L2P forward and the
    // host copy backs reads until the new home programs, so no ack
    // breaks and no pending_ entry leaks. `zq.busy` stays held until
    // the purge so nothing re-dispatches into the broken zone.
    for (int b = 0; b < kNumBuilders; ++b) {
      if (builders_[b].open && builders_[b].group == io->group) {
        DropBuilderMember(b, device);
      }
    }
    for (size_t x = 0; x < batches_[id].ops.size(); ++x) {
      RequeueOp(TagBuilder(batches_[id].ops[x].tag), batches_[id].ops[x],
                io->group, device);
    }
    zq.busy = false;
    PurgeQueue(io, device);
  }
  batches_[id].io.reset();
  batches_.Release(id);
  CheckGroupDrained(io);
  MaybeFlushDone();
}

void ZapRaid::MarkDurable(uint32_t group, int device, const ChunkOp& op) {
  Group& grp = groups_[group];
  RowMeta& row = grp.rows[op.offset];
  if (op.tag == WriteTag::kParity || op.tag == WriteTag::kGcParity) {
    // A mid-flight requeue may have invalidated this row's parity (the XOR
    // no longer matches the surviving chunk set); a completion that raced
    // with the invalidation must not resurrect it.
    if (row.parity_dev == device) {
      row.parity_durable = true;
    }
  } else {
    row.durable |= Bit(device);
    if (op.tag == WriteTag::kData || op.tag == WriteTag::kGcData) {
      const PendingWrite* pw = pending_.Find(op.oob.lbn);
      if (pw != nullptr && pw->wsn == op.oob.sn) {
        pending_.Erase(op.oob.lbn);
      }
    }
  }
  CompleteChunk(op.done);
}

void ZapRaid::CompleteChunk(ChunkDone done) {
  switch (done.kind) {
    case ChunkDone::Kind::kNone:
      return;
    case ChunkDone::Kind::kWrite:
      --write_joins_[done.join].pending;
      FinishWrite(done.join);
      return;
    case ChunkDone::Kind::kGcMigration:
      --gc_victim_pending_;
      ++stats_.gc_migrated_data;
      if (gc_active_ && gc_scan_done_ && gc_victim_pending_ == 0) {
        FinishGcVictim();
      }
      return;
  }
}

void ZapRaid::PurgeQueue(const std::shared_ptr<GroupIo>& io, int device) {
  ZoneQueue& zq = io->queues[static_cast<size_t>(device)];
  std::deque<ChunkOp> drained;
  drained.swap(zq.q);
  queued_ops_ -= drained.size();
  for (ChunkOp& op : drained) {
    if (op.finish_sentinel) {
      // A dead member's zones are beyond help, but a live member whose
      // zone was abandoned mid-group (terminal write failure) still holds
      // open-zone resources worth releasing.
      if (DeviceWritable(device)) {
        FinishZoneIfOpen(device, io->group);
      }
      continue;
    }
    RequeueOp(TagBuilder(op.tag), std::move(op), io->group, device);
  }
  CheckGroupDrained(io);
  MaybeFlushDone();
}

void ZapRaid::CheckGroupDrained(const std::shared_ptr<GroupIo>& io) {
  for (int b = 0; b < kNumBuilders; ++b) {
    if (builders_[b].open && builders_[b].group == io->group) {
      return;
    }
  }
  for (const ZoneQueue& zq : io->queues) {
    if (zq.busy || !zq.q.empty()) {
      return;
    }
  }
  active_io_.erase(io->group);
}

void ZapRaid::RequeueOp(int builder, ChunkOp op, uint32_t from_group,
                        int from_dev) {
  Group& grp = groups_[from_group];
  RowMeta& row = grp.rows[op.offset];
  if (op.tag == WriteTag::kParity || op.tag == WriteTag::kGcParity) {
    // Parity lost with the member: the row stays unprotected until GC
    // rewrites it (open-stripe window).
    row.parity_dev = -1;
    row.parity_durable = false;
    return;
  }
  row.present &= static_cast<uint16_t>(~Bit(from_dev));
  if (grp.data_chunks > 0) {
    --grp.data_chunks;
  }
  if (op.tag == WriteTag::kMeta) {
    return;  // pads are not re-homed (all-zero: a XOR no-op in the parity)
  }
  // The row's parity — durable or still queued — XORs in this chunk's
  // pattern. With the chunk re-homed, that XOR no longer matches the
  // surviving chunk set, so reconstructing a sibling through it would
  // silently fabricate data. Drop the row to open-stripe (unprotected);
  // the rebuild sweep re-homes its survivors into protected stripes.
  row.parity_dev = -1;
  row.parity_durable = false;
  ++stats_.requeued_chunks;
  AppendOrPark(builder, op.pattern, op.oob, op.tag, op.done,
               MakePa(from_dev, from_group, op.offset), /*count_stalls=*/true);
}

void ZapRaid::AppendOrPark(int b, uint64_t pattern, OobRecord oob,
                           WriteTag tag, ChunkDone done, uint64_t repoint_from,
                           bool count_stalls) {
  if (AppendChunk(b, pattern, oob, tag, done, repoint_from)) {
    return;
  }
  if (count_stalls) {
    ++stats_.write_stalls;
  }
  stalled_writes_.push_back([this, b, pattern, oob, tag, done, repoint_from,
                             count_stalls] {
    AppendOrPark(b, pattern, oob, tag, done, repoint_from, count_stalls);
  });
}

void ZapRaid::InvalidatePa(uint64_t pa) {
  if (pa == kInvalidPa) {
    return;
  }
  Group& grp = groups_[PaGroup(pa)];
  if (grp.valid > 0) {
    --grp.valid;
  }
}

void ZapRaid::RetryStalled() {
  if (stalled_writes_.empty()) {
    return;
  }
  std::vector<std::function<void()>> runnable;
  runnable.swap(stalled_writes_);
  for (auto& fn : runnable) {
    fn();
  }
}

void ZapRaid::MaybeFlushDone() {
  if (flush_waiters_.empty() || !AllIdle()) {
    return;
  }
  std::vector<std::function<void()>> waiters;
  waiters.swap(flush_waiters_);
  for (auto& fn : waiters) {
    fn();
  }
}

void ZapRaid::SubmitWrite(uint64_t lbn, std::vector<uint64_t> patterns,
                          WriteCallback cb, WriteTag tag) {
  if (lbn + patterns.size() > exposed_blocks_) {
    cb(OutOfRangeError("zapraid: write beyond exposed capacity"));
    return;
  }
  cpu_.Charge(cpu_id_, config_.costs.request_overhead_ns);
  stats_.user_written_blocks += patterns.size();

  const uint32_t j = write_joins_.Acquire();
  WriteJoin& join = write_joins_[j];
  join.lbn = lbn;
  join.tag = tag;
  join.patterns = std::move(patterns);
  join.pending = 0;
  join.cb = std::move(cb);
  join.start = sim_->Now();
  DispatchWrite(j, 0);
  MaybeStartGc();
}

void ZapRaid::DispatchWrite(uint32_t j, size_t i) {
  write_joins_[j].dispatching = true;
  for (; i < write_joins_[j].patterns.size(); ++i) {
    const WriteJoin& join = write_joins_[j];
    const bool ok = AppendChunk(
        TagBuilder(join.tag), join.patterns[i],
        OobRecord{join.lbn + i, 0, join.tag}, join.tag,
        ChunkDone{ChunkDone::Kind::kWrite, j});
    if (!ok) {
      // No free group: park the rest of the request until GC frees one.
      // The join stays dispatching, so chunks already appended cannot ack
      // the request before its remainder is appended.
      ++stats_.write_stalls;
      stalled_writes_.push_back([this, j, i] { DispatchWrite(j, i); });
      MaybeStartGc();
      return;
    }
    ++write_joins_[j].pending;
  }
  write_joins_[j].dispatching = false;
  FinishWrite(j);
}

void ZapRaid::FinishWrite(uint32_t j) {
  WriteJoin& join = write_joins_[j];
  if (join.pending != 0 || join.dispatching) {
    return;
  }
  if (h_write_ != nullptr) {
    h_write_->Record(sim_->Now() - join.start);
  }
  if (obs_ != nullptr && obs_->tracer.Armed(join.start)) {
    obs_->tracer.Record(Tracer::kLaneEngine, span_write_, join.start,
                        sim_->Now(), key_lbn_, 0, key_blocks_, 0);
  }
  // Chunk data lives on in the zone queues and pending_; the join is done.
  WriteCallback done = std::move(join.cb);
  join.cb = nullptr;
  write_joins_.Release(j);
  done(OkStatus());
}

void ZapRaid::FlushBuffers(std::function<void()> done) {
  CloseRowEarly(kUserBuilder);
  CloseRowEarly(kGcBuilder);
  if (AllIdle()) {
    done();
    return;
  }
  flush_waiters_.push_back(std::move(done));
}

// --------------------------------------------------------------------------
// Read path.
// --------------------------------------------------------------------------

uint32_t ZapRaid::NewDevRead(DevRead::Kind kind, int device, uint32_t zone,
                             uint64_t offset, uint64_t nblocks) {
  const uint32_t id = dev_reads_.Acquire();
  DevRead& r = dev_reads_[id];
  r.kind = kind;
  r.device = device;
  r.attempt = 0;
  r.zone = zone;
  r.offset = offset;
  r.nblocks = nblocks;
  r.start = sim_->Now();
  return id;
}

void ZapRaid::SubmitDevRead(uint32_t id) {
  const DevRead& r = dev_reads_[id];
  devices_[static_cast<size_t>(r.device)]->SubmitRead(
      r.zone, r.offset, r.nblocks,
      [this, id](const Status& status, ZnsDevice::ReadResult result) {
        OnDevRead(id, status, std::move(result));
      });
}

void ZapRaid::OnDevRead(uint32_t id, const Status& status,
                        ZnsDevice::ReadResult result) {
  DevRead& r = dev_reads_[id];
  if (status.ok()) {
    if (health_ != nullptr) {
      health_->RecordLatency(r.device, DeviceHealthMonitor::Kind::kRead, -1,
                             sim_->Now() - r.start, sim_->Now());
    }
  } else if (IsRetriable(status) && r.attempt < config_.max_io_retries) {
    ++stats_.read_retries;
    sim_->Schedule(RetryBackoffNs(r.attempt, config_.retry_backoff_base_ns),
                   [this, id] {
                     ++dev_reads_[id].attempt;
                     SubmitDevRead(id);
                   });
    return;
  }
  switch (r.kind) {
    case DevRead::Kind::kBlock: {
      const uint32_t join = r.join;
      const uint64_t slot = r.slot;
      const uint64_t lbn = r.lbn;
      const int device = r.device;
      dev_reads_.Release(id);
      if (status.code() == ErrorCode::kUnavailable) {
        // Death detected on the read path: degrade and re-drive this block
        // through the host copy or a fresh lookup (its home may have moved
        // under the requeue machinery).
        OnDeviceUnavailable(device);
        RedriveRead(lbn, slot, join);
        return;
      }
      LandRead(join, slot, status, status.ok() ? result.patterns[0] : 0);
      return;
    }
    case DevRead::Kind::kGcRun:
      OnGcRunRead(id, status, result.patterns);
      return;
    case DevRead::Kind::kCallback: {
      auto cb = std::move(r.cb);
      r.cb = nullptr;
      dev_reads_.Release(id);
      if (cb) {
        cb(status, std::move(result.patterns));
      }
      return;
    }
  }
}

void ZapRaid::DeviceRead(
    int device, uint32_t zone, uint64_t offset, uint64_t nblocks,
    std::function<void(const Status&, std::vector<uint64_t>)> cb) {
  const uint32_t id =
      NewDevRead(DevRead::Kind::kCallback, device, zone, offset, nblocks);
  dev_reads_[id].cb = std::move(cb);
  SubmitDevRead(id);
}

bool ZapRaid::CanReconstructRow(const Group& grp, const RowMeta& meta,
                                int target) const {
  if (grp.use == GroupUse::kFree || grp.rows.empty()) {
    return false;
  }
  if ((meta.present & Bit(target)) == 0) {
    return false;
  }
  if (meta.parity_dev < 0 || !meta.parity_durable) {
    return false;  // open-stripe window: the row never got its parity
  }
  if ((meta.durable & meta.present) != meta.present) {
    return false;  // a sibling chunk is still in flight
  }
  if (device_failed_[static_cast<size_t>(meta.parity_dev)] &&
      meta.parity_dev != target) {
    return false;
  }
  for (int d = 0; d < n_; ++d) {
    if (d == target || (meta.present & Bit(d)) == 0) {
      continue;
    }
    if (device_failed_[static_cast<size_t>(d)]) {
      return false;  // double fault on this row
    }
  }
  return true;
}

void ZapRaid::ReconstructChunk(
    uint64_t pa, std::function<void(const Status&, uint64_t)> cb) {
  const int target = PaDevice(pa);
  const uint32_t group = PaGroup(pa);
  const uint64_t row = PaRow(pa);
  const Group& grp = groups_[group];
  const RowMeta meta =
      grp.rows.size() > row ? grp.rows[row] : RowMeta{};
  if (!CanReconstructRow(grp, meta, target)) {
    cb(FailedPreconditionError("zapraid: row not reconstructable"), 0);
    return;
  }
  std::vector<int> sources;
  for (int d = 0; d < n_; ++d) {
    if (d != target && (meta.present & Bit(d)) != 0) {
      sources.push_back(d);
    }
  }
  if (meta.parity_dev != target) {
    sources.push_back(meta.parity_dev);
  }
  cpu_.Charge(cpu_id_,
            config_.costs.parity_xor_ns_per_kib * (kBlockSize / 1024));

  struct Recon {
    uint64_t acc = 0;
    size_t pending = 0;
    Status error;
    uint64_t epoch = 0;
    std::function<void(const Status&, uint64_t)> cb;
  };
  auto st = std::make_shared<Recon>();
  st->pending = sources.size();
  st->epoch = grp.epoch;
  st->cb = std::move(cb);
  for (int src : sources) {
    DeviceRead(src, group, row, 1,
               [this, st, group](const Status& status,
                                 std::vector<uint64_t> patterns) {
                 if (!status.ok()) {
                   if (st->error.ok()) {
                     st->error = status;
                   }
                 } else {
                   st->acc ^= patterns[0];
                 }
                 if (--st->pending != 0) {
                   return;
                 }
                 // A GC reset recycled the group mid-reconstruction: the
                 // XOR mixes two generations. Fail; callers fall back.
                 if (groups_[group].epoch != st->epoch) {
                   st->cb(FailedPreconditionError(
                              "zapraid: group recycled during recon"),
                          0);
                   return;
                 }
                 st->cb(st->error, st->acc);
               });
  }
}

void ZapRaid::SubmitRead(uint64_t lbn, uint64_t nblocks, ReadCallback cb) {
  if (lbn + nblocks > exposed_blocks_) {
    cb(OutOfRangeError("zapraid: read beyond exposed capacity"), {});
    return;
  }
  cpu_.Charge(cpu_id_, config_.costs.request_overhead_ns);
  stats_.user_read_blocks += nblocks;

  const uint32_t j = read_joins_.Acquire();
  {
    ReadJoin& join = read_joins_[j];
    join.out.assign(nblocks, 0);
    join.pending = 1;
    join.error = OkStatus();
    join.cb = std::move(cb);
    join.start = sim_->Now();
  }
  for (uint64_t i = 0; i < nblocks; ++i) {
    cpu_.Charge(cpu_id_, config_.costs.map_lookup_ns);
    const uint64_t cur = lbn + i;
    if (const PendingWrite* pw = pending_.Find(cur); pw != nullptr) {
      read_joins_[j].out[i] = pw->pattern;
      continue;
    }
    const L2pEntry entry = l2p_.Get(cur);
    if (entry.pa == kInvalidPa) {
      continue;  // never written: reads as zero
    }
    ++read_joins_[j].pending;
    ReadBlock(cur, entry, i, j);
  }
  ReleaseRead(j);
}

void ZapRaid::LandRead(uint32_t j, uint64_t slot, const Status& status,
                       uint64_t pattern) {
  ReadJoin& join = read_joins_[j];
  if (!status.ok()) {
    if (join.error.ok()) {
      join.error = status;
    }
  } else {
    join.out[slot] = pattern;
  }
  ReleaseRead(j);
}

void ZapRaid::ReleaseRead(uint32_t j) {
  ReadJoin& join = read_joins_[j];
  if (--join.pending != 0) {
    return;
  }
  if (h_read_ != nullptr) {
    h_read_->Record(sim_->Now() - join.start);
  }
  if (obs_ != nullptr && obs_->tracer.Armed(join.start)) {
    obs_->tracer.Record(Tracer::kLaneEngine, span_read_, join.start,
                        sim_->Now(), key_lbn_, 0, key_blocks_,
                        static_cast<int64_t>(join.out.size()));
  }
  ReadCallback done = std::move(join.cb);
  join.cb = nullptr;
  std::vector<uint64_t> out = std::move(join.out);
  const Status error = join.error;
  read_joins_.Release(j);
  done(error, std::move(out));
}

void ZapRaid::RedriveRead(uint64_t lbn, uint64_t slot, uint32_t j) {
  // Re-drive one block after its home member died mid-read. The requeue
  // machinery may already have re-pointed the L2P at a new, not-yet-
  // programmed home, so the host copy in pending_ must be consulted first
  // (exactly as SubmitRead does) before chasing the fresh mapping.
  if (const PendingWrite* pw = pending_.Find(lbn); pw != nullptr) {
    LandRead(j, slot, OkStatus(), pw->pattern);
    return;
  }
  const L2pEntry now = l2p_.Get(lbn);
  if (now.pa == kInvalidPa) {
    LandRead(j, slot, OkStatus(), 0);
    return;
  }
  ReadBlock(lbn, now, slot, j);
}

void ZapRaid::ReadBlock(uint64_t lbn, L2pEntry entry, uint64_t slot,
                        uint32_t j) {
  const int device = PaDevice(entry.pa);
  const uint32_t group = PaGroup(entry.pa);
  const uint64_t row = PaRow(entry.pa);

  auto land = [this, j, slot](const Status& status, uint64_t pattern) {
    LandRead(j, slot, status, pattern);
  };

  const bool on_replacement = rebuild_.active && rebuild_.device == device &&
                              entry.wsn >= rebuild_start_wsn_;
  if (device_failed_[static_cast<size_t>(device)] && !on_replacement) {
    // Degraded read: the chunk's home member is dead (or the chunk predates
    // the replacement swap and still lives only in parity space).
    ++stats_.degraded_reads;
    ReconstructChunk(entry.pa, land);
    return;
  }

  if (health_ != nullptr && health_->IsGray(device)) {
    // Gray member: reconstruct around it; every probe_interval-th read
    // still probes it so the detector keeps seeing samples.
    ++stats_.recon_around_reads;
    if (health_->ProbeDue(device)) {
      ++stats_.health_probe_reads;
      DeviceRead(device, group, row, 1,
                 [](const Status&, std::vector<uint64_t>) {});
    }
    ReconstructChunk(entry.pa,
                     [this, device, group, row, land](const Status& status,
                                                      uint64_t pattern) {
                       if (status.ok()) {
                         land(status, pattern);
                         return;
                       }
                       ++stats_.recon_fallbacks;
                       DeviceRead(device, group, row, 1,
                                  [land](const Status& st,
                                         std::vector<uint64_t> patterns) {
                                    land(st, st.ok() ? patterns[0] : 0);
                                  });
                     });
    return;
  }

  if (health_ != nullptr && health_->ShouldHedge(device)) {
    // Suspect member: direct read plus a delayed reconstruction leg; first
    // to land wins. The loser never touches the join (it may be recycled).
    ++stats_.hedged_reads;
    struct Hedge {
      bool done = false;
    };
    auto hedge = std::make_shared<Hedge>();
    DeviceRead(device, group, row, 1,
               [this, hedge, land, lbn, slot, j, device](
                   const Status& status, std::vector<uint64_t> patterns) {
                 if (status.code() == ErrorCode::kUnavailable) {
                   // The suspect died mid-hedge: degrade exactly like the
                   // normal path, and re-drive the block unless the
                   // reconstruction leg already served it.
                   OnDeviceUnavailable(device);
                   if (hedge->done) {
                     return;
                   }
                   hedge->done = true;
                   RedriveRead(lbn, slot, j);
                   return;
                 }
                 if (hedge->done) {
                   return;
                 }
                 hedge->done = true;
                 land(status, status.ok() ? patterns[0] : 0);
               });
    const Group& grp = groups_[group];
    const RowMeta meta = grp.rows.size() > row ? grp.rows[row] : RowMeta{};
    if (CanReconstructRow(grp, meta, device)) {
      sim_->Schedule(health_->HedgeDelayNs(device),
                     [this, hedge, land, pa = entry.pa] {
                       if (hedge->done) {
                         return;
                       }
                       ReconstructChunk(
                           pa, [this, hedge, land](const Status& status,
                                                   uint64_t pattern) {
                             if (hedge->done || !status.ok()) {
                               return;  // direct leg owns the failure path
                             }
                             hedge->done = true;
                             ++stats_.hedge_recon_wins;
                             land(status, pattern);
                           });
                     });
    }
    return;
  }

  const uint32_t id = NewDevRead(DevRead::Kind::kBlock, device, group, row, 1);
  DevRead& r = dev_reads_[id];
  r.join = j;
  r.slot = slot;
  r.lbn = lbn;
  SubmitDevRead(id);
}

void ZapRaid::DropBuilderMember(int b, int device) {
  // Removes `device` from builder `b`'s open group: closes the in-progress
  // row (pads out, parity out) so the surviving zones stay row-aligned,
  // then shrinks the member set; too few members to form stripes seals the
  // group. No-op when the builder is closed or the device not a member.
  Builder& bd = builders_[b];
  if (!bd.open) {
    return;
  }
  if (std::find(bd.members.begin(), bd.members.end(), device) ==
      bd.members.end()) {
    return;
  }
  CloseRowEarly(b);
  bd.members.erase(std::find(bd.members.begin(), bd.members.end(), device));
  groups_[bd.group].members &= static_cast<uint16_t>(~Bit(device));
  if (bd.members.size() < 2) {
    SealGroup(b);
  }
}

void ZapRaid::OnDeviceUnavailable(int device) {
  if (device < 0 || device >= n_) {
    return;
  }
  if (device_failed_[static_cast<size_t>(device)]) {
    if (rebuild_.active && rebuild_.device == device) {
      // The replacement itself died mid-rebuild: stop sweeping onto it.
      rebuild_.active = false;
    } else {
      return;
    }
  }
  device_failed_[static_cast<size_t>(device)] = true;
  BIZA_LOG_WARN("zapraid: device %d unavailable, entering degraded mode",
                device);
  for (int b = 0; b < kNumBuilders; ++b) {
    DropBuilderMember(b, device);
  }
  // RequeueOp may open fresh groups (mutating active_io_), so purge from a
  // snapshot.
  std::vector<std::shared_ptr<GroupIo>> ios;
  ios.reserve(active_io_.size());
  for (auto& [g, io] : active_io_) {
    ios.push_back(io);
  }
  for (auto& io : ios) {
    PurgeQueue(io, device);
  }
}

void ZapRaid::SetDeviceFailed(int device, bool failed) {
  if (failed) {
    OnDeviceUnavailable(device);
  } else {
    device_failed_[static_cast<size_t>(device)] = false;
  }
}

// --------------------------------------------------------------------------
// Group-granular GC.
// --------------------------------------------------------------------------

void ZapRaid::MaybeStartGc() {
  if (gc_active_) {
    return;
  }
  const double free_ratio =
      static_cast<double>(free_groups_) / static_cast<double>(num_zones_);
  if (free_ratio >= config_.gc_trigger_free_ratio && stalled_writes_.empty()) {
    return;
  }
  int victim = PickGcVictim();
  if (victim < 0 && !stalled_writes_.empty() &&
      builders_[kUserBuilder].open) {
    // Writes are parked and no sealed group has garbage: force-seal the
    // user frontier so its garbage becomes collectable.
    SealGroup(kUserBuilder);
    if (gc_active_) {
      return;  // the seal's drain already kicked a GC cycle off
    }
    victim = PickGcVictim();
  }
  if (victim < 0) {
    return;
  }
  gc_active_ = true;
  gc_victim_ = static_cast<uint32_t>(victim);
  gc_row_ = 0;
  gc_passes_ = 0;
  gc_pass_valid_ = ~0ULL;
  gc_victim_pending_ = 0;
  gc_scan_done_ = false;
  sim_->Schedule(0, [this] { GcStep(); });
}

int ZapRaid::PickGcVictim() const {
  int best = -1;
  bool best_garbage = false;
  uint64_t best_valid = 0;
  for (uint32_t g = 0; g < num_zones_; ++g) {
    const Group& grp = groups_[g];
    if (grp.use != GroupUse::kSealed) {
      continue;
    }
    if (active_io_.count(g) != 0) {
      continue;  // still draining its zone queues
    }
    bool member_failed = false;
    for (int d = 0; d < n_; ++d) {
      if ((grp.members & Bit(d)) != 0 &&
          device_failed_[static_cast<size_t>(d)]) {
        member_failed = true;
      }
    }
    if (member_failed) {
      continue;
    }
    const int members = std::popcount(static_cast<unsigned>(grp.members));
    const uint64_t data_cap =
        zone_cap_ * static_cast<uint64_t>(members > 1 ? members - 1 : 0);
    const bool garbage = grp.data_chunks > grp.valid;
    // Garbage-bearing groups beat pure space-compaction candidates
    // (part-written groups recovered after a crash); min valid wins ties.
    if (!garbage && grp.valid >= data_cap) {
      continue;
    }
    if (best < 0 || (garbage && !best_garbage) ||
        (garbage == best_garbage && grp.valid < best_valid)) {
      best = static_cast<int>(g);
      best_garbage = garbage;
      best_valid = grp.valid;
    }
  }
  return best;
}

void ZapRaid::GcStep() {
  if (!gc_active_) {
    return;
  }
  const SimTime step_start = sim_->Now();
  const uint32_t victim = gc_victim_;
  Group& grp = groups_[victim];
  std::vector<GcCand>& cands = gc_cands_;
  cands.clear();
  uint64_t row = gc_row_;
  for (; row < zone_cap_ && cands.size() < config_.gc_batch_chunks; ++row) {
    if (grp.rows.empty() || grp.rows[row].present == 0) {
      row = zone_cap_;  // rows fill in order: first empty row == frontier
      break;
    }
    const RowMeta& meta = grp.rows[row];
    for (int d = 0; d < n_; ++d) {
      if ((meta.present & Bit(d)) == 0 ||
          device_failed_[static_cast<size_t>(d)]) {
        continue;
      }
      const auto oob = devices_[static_cast<size_t>(d)]->ReadOobSync(victim, row);
      if (!oob.ok() || !oob->set() || oob->lbn == kPadLbn ||
          IsParityOobLbn(oob->lbn)) {
        continue;
      }
      const L2pEntry e = l2p_.Get(oob->lbn);
      if (e.pa != MakePa(d, victim, row) || e.wsn != oob->sn) {
        continue;  // superseded: garbage, reclaimed with the zone reset
      }
      cands.push_back(GcCand{d, row, oob->lbn, oob->sn});
    }
  }
  gc_row_ = row;
  if (row >= zone_cap_) {
    gc_scan_done_ = true;
  }
  if (obs_ != nullptr && obs_->tracer.Armed(step_start)) {
    obs_->tracer.Record(Tracer::kLaneEngine, span_gc_step_, step_start,
                        sim_->Now(), key_group_, victim, key_blocks_,
                        static_cast<int64_t>(cands.size()));
  }
  if (cands.empty()) {
    if (!gc_scan_done_) {
      sim_->Schedule(0, [this] { GcStep(); });
    } else if (gc_victim_pending_ == 0) {
      FinishGcVictim();
    }
    // else: the last migration's durability callback finishes the victim
    return;
  }
  std::sort(cands.begin(), cands.end(), [](const GcCand& a, const GcCand& b) {
    return a.dev != b.dev ? a.dev < b.dev : a.row < b.row;
  });
  // One read per contiguous run of a member's candidates. When the batch's
  // last read lands, either the scan continues or the victim finishes
  // (migration callbacks handle the rest).
  const uint32_t batch = gc_batches_.Acquire();
  gc_batches_[batch] = 0;
  size_t i = 0;
  while (i < cands.size()) {
    size_t j = i + 1;
    while (j < cands.size() && cands[j].dev == cands[i].dev &&
           cands[j].row == cands[j - 1].row + 1) {
      ++j;
    }
    const uint32_t id = NewDevRead(DevRead::Kind::kGcRun, cands[i].dev, victim,
                                   cands[i].row, j - i);
    DevRead& r = dev_reads_[id];
    r.gc_batch = batch;
    r.epoch = grp.epoch;
    r.run.assign(cands.begin() + static_cast<long>(i),
                 cands.begin() + static_cast<long>(j));
    ++gc_batches_[batch];
    SubmitDevRead(id);
    i = j;
  }
}

void ZapRaid::OnGcRunRead(uint32_t id, const Status& status,
                          const std::vector<uint64_t>& patterns) {
  // Migrations may acquire device reads (growing the slab), so the run is
  // re-indexed per chunk and the slot released after it.
  const uint32_t victim = dev_reads_[id].zone;
  const int dev = dev_reads_[id].device;
  if (status.ok() && groups_[victim].epoch == dev_reads_[id].epoch) {
    for (size_t x = 0; x < dev_reads_[id].run.size(); ++x) {
      const GcCand c = dev_reads_[id].run[x];
      const uint64_t pa = MakePa(dev, victim, c.row);
      const L2pEntry e = l2p_.Get(c.lbn);
      if (e.pa != pa || e.wsn != c.wsn) {
        continue;  // overwritten while the read was in flight
      }
      ++gc_victim_pending_;
      GcAppend(c.lbn, c.wsn, patterns[x], pa);
    }
  }
  // else: re-found by the next scan pass if still valid
  const uint32_t batch = dev_reads_[id].gc_batch;
  dev_reads_.Release(id);
  if (--gc_batches_[batch] == 0) {
    gc_batches_.Release(batch);
    OnGcBatchDone();
  }
}

void ZapRaid::OnGcBatchDone() {
  if (!gc_active_) {
    return;
  }
  if (!gc_scan_done_) {
    sim_->Schedule(0, [this] { GcStep(); });
  } else if (gc_victim_pending_ == 0) {
    FinishGcVictim();
  }
}

void ZapRaid::GcAppend(uint64_t lbn, uint32_t wsn, uint64_t pattern,
                       uint64_t from_pa) {
  // Preserving the original wsn keeps the recovery total order intact: the
  // migrated copy is the *same* version, not a newer one.
  AppendOrPark(kGcBuilder, pattern, OobRecord{lbn, wsn, WriteTag::kGcData},
               WriteTag::kGcData, ChunkDone{ChunkDone::Kind::kGcMigration, 0},
               from_pa, /*count_stalls=*/false);
}

void ZapRaid::FinishGcVictim() {
  if (!gc_active_ || !gc_scan_done_ || gc_victim_pending_ != 0) {
    return;
  }
  Group& grp = groups_[gc_victim_];
  if (grp.valid > 0) {
    // A rescan pass only counts against the cap when it made no progress;
    // migrations racing with overwrites can legitimately need several laps.
    if (grp.valid < gc_pass_valid_) {
      gc_passes_ = 0;
    }
    if (++gc_passes_ < 3) {
      gc_pass_valid_ = grp.valid;
      gc_row_ = 0;
      gc_scan_done_ = false;
      sim_->Schedule(0, [this] { GcStep(); });
      return;
    }
    // Three consecutive zero-progress passes: something is pinning the
    // victim's chunks. Abandon the cycle entirely (rather than re-picking
    // the same victim in a zero-time loop) and let the next allocation
    // re-trigger GC.
    BIZA_LOG_WARN("zapraid: gc abandoning group %u with %llu valid chunks",
                  gc_victim_, static_cast<unsigned long long>(grp.valid));
    RetryStalled();
    gc_active_ = false;
    return;
  }
  {
    for (int d = 0; d < n_; ++d) {
      if ((grp.members & Bit(d)) == 0 ||
          device_failed_[static_cast<size_t>(d)]) {
        continue;
      }
      const Status st = devices_[static_cast<size_t>(d)]->ResetZone(gc_victim_);
      if (st.ok()) {
        ++stats_.gc_zone_resets;
      }
    }
    SetGroupUse(gc_victim_, GroupUse::kFree);
    grp.valid = 0;
    grp.data_chunks = 0;
    grp.members = 0;
    grp.rows.clear();
    grp.rows.shrink_to_fit();
    ++grp.epoch;
    ++stats_.gc_runs;
  }
  RetryStalled();
  const double free_ratio =
      static_cast<double>(free_groups_) / static_cast<double>(num_zones_);
  if (free_ratio < config_.gc_stop_free_ratio) {
    const int victim = PickGcVictim();
    if (victim >= 0) {
      gc_victim_ = static_cast<uint32_t>(victim);
      gc_row_ = 0;
      gc_passes_ = 0;
      gc_pass_valid_ = ~0ULL;
      gc_victim_pending_ = 0;
      gc_scan_done_ = false;
      sim_->Schedule(0, [this] { GcStep(); });
      return;
    }
  }
  gc_active_ = false;
}

// --------------------------------------------------------------------------
// Online rebuild.
// --------------------------------------------------------------------------

Status ZapRaid::ReplaceDevice(int device, ZnsDevice* replacement) {
  if (device < 0 || device >= n_) {
    return InvalidArgumentError("zapraid: bad device index");
  }
  if (!device_failed_[static_cast<size_t>(device)]) {
    return FailedPreconditionError("zapraid: replacing a live member");
  }
  if (rebuild_.active) {
    return FailedPreconditionError("zapraid: rebuild already running");
  }
  if (replacement->config().zone_capacity_blocks != zone_cap_ ||
      replacement->config().num_zones != num_zones_) {
    return InvalidArgumentError("zapraid: replacement geometry mismatch");
  }
  devices_[static_cast<size_t>(device)] = replacement;
  rebuild_ = ZapRaidRebuildStats{};
  rebuild_.active = true;
  rebuild_.device = device;
  rebuild_.started_ns = sim_->Now();
  // Everything appended from here on lands on groups whose rows are fully
  // populated across live members and needs no re-homing; the sweep targets
  // strictly older chunks.
  rebuild_start_wsn_ = next_wsn_;
  rebuild_queue_.clear();
  rebuild_cursor_ = 0;
  // Evacuate every valid chunk out of every row the dead member contributed
  // to — not just the chunks physically on it. Re-homing only the dead
  // member's chunks would leave those rows one sibling (or their parity)
  // short forever, so a later second member failure would be unrecoverable.
  l2p_.ForEach([&](uint64_t lbn, const L2pEntry& e) {
    if (RebuildCovers(e)) {
      rebuild_queue_.push_back(lbn);
    }
  });
  std::sort(rebuild_queue_.begin(), rebuild_queue_.end());
  if (health_ != nullptr) {
    health_->ResetDevice(device);
  }
  BIZA_LOG_INFO("zapraid: rebuild of device %d started (%zu chunks)", device,
                rebuild_queue_.size());
  sim_->Schedule(0, [this] { RebuildStep(); });
  return OkStatus();
}

bool ZapRaid::RebuildCovers(const L2pEntry& e) const {
  if (e.pa == kInvalidPa || e.wsn >= rebuild_start_wsn_) {
    return false;
  }
  // Row-granular test: the dead member took either a chunk (data, garbage
  // or pad — all of them feed reconstruction XOR) or this row's parity with
  // it. A group-level members test would be wrong both ways: a death
  // mid-open-group removes the member from the mask while earlier rows
  // still span it, and rows written degraded afterwards never touched it.
  const Group& grp = groups_[PaGroup(e.pa)];
  const uint64_t row = PaRow(e.pa);
  if (grp.use == GroupUse::kFree || grp.rows.size() <= row) {
    return false;
  }
  const RowMeta& meta = grp.rows[row];
  if ((meta.present & Bit(rebuild_.device)) != 0 ||
      meta.parity_dev == rebuild_.device) {
    return true;
  }
  // Also sweep unprotected rows — parity invalidated when a chunk was
  // re-homed off the dead member, or never written (open-stripe window).
  // Their requeue left no trace of the dead member in the row metadata,
  // yet re-homing their survivors into fresh, fully protected stripes is
  // exactly what restores array-wide redundancy.
  return meta.parity_dev < 0 || !meta.parity_durable;
}

void ZapRaid::RebuildStep() {
  if (!rebuild_.active) {
    return;
  }
  const SimTime step_start = sim_->Now();
  if (rebuild_cursor_ >= rebuild_queue_.size()) {
    // Pass complete: rescan for stragglers (chunks whose migration read
    // failed transiently or that GC re-homed into another affected group).
    std::vector<uint64_t> remaining;
    l2p_.ForEach([&](uint64_t lbn, const L2pEntry& e) {
      if (RebuildCovers(e)) {
        remaining.push_back(lbn);
      }
    });
    if (remaining.empty()) {
      FinishRebuild();
      return;
    }
    if (++rebuild_.passes >= 8) {
      // Rows that never got parity (open-stripe window) cannot be
      // reconstructed; their chunks died with the member.
      BIZA_LOG_ERROR("zapraid: rebuild giving up on %zu unrecoverable chunks",
                     remaining.size());
      FinishRebuild();
      return;
    }
    rebuild_queue_ = std::move(remaining);
    std::sort(rebuild_queue_.begin(), rebuild_queue_.end());
    rebuild_cursor_ = 0;
  }
  // Throttle: the next batch fires rebuild_interval_ns after this one's
  // reconstructions complete (token destructor).
  auto batch = std::shared_ptr<void>(nullptr, [this](void*) {
    if (rebuild_.active) {
      sim_->Schedule(config_.rebuild_interval_ns, [this] { RebuildStep(); });
    }
  });
  uint64_t issued = 0;
  while (rebuild_cursor_ < rebuild_queue_.size() &&
         issued < config_.rebuild_batch_chunks) {
    const uint64_t lbn = rebuild_queue_[rebuild_cursor_++];
    const L2pEntry e = l2p_.Get(lbn);
    if (!RebuildCovers(e)) {
      continue;  // overwritten or already re-homed
    }
    ++issued;
    // Migration completion: re-append at the GC frontier with a fresh wsn
    // so reads treat the copy as post-replacement data and the straggler
    // rescan never re-picks it. AppendChunk's repoint guard discards the
    // copy if a foreground overwrite won the race meanwhile.
    auto migrate = [this, lbn, e, batch](const Status& status,
                                         uint64_t pattern) {
      if (!status.ok()) {
        return;  // straggler pass retries
      }
      const L2pEntry now = l2p_.Get(lbn);
      if (now.pa != e.pa || now.wsn != e.wsn) {
        return;  // foreground overwrite re-homed it for us
      }
      ++rebuild_.chunks_migrated;
      AppendOrPark(kGcBuilder, pattern, OobRecord{lbn, 0, WriteTag::kGcData},
                   WriteTag::kGcData, ChunkDone{}, e.pa,
                   /*count_stalls=*/false);
    };
    if (PaDevice(e.pa) == rebuild_.device) {
      // Chunk died with the member: XOR it back from the row's siblings.
      ReconstructChunk(e.pa, migrate);
    } else {
      // Live-sibling chunk in an affected group: copy it off directly.
      DeviceRead(PaDevice(e.pa), PaGroup(e.pa), PaRow(e.pa), 1,
                 [migrate](const Status& status, std::vector<uint64_t> data) {
                   migrate(status, status.ok() ? data[0] : 0);
                 });
    }
  }
  if (obs_ != nullptr && obs_->tracer.Armed(step_start)) {
    obs_->tracer.Record(Tracer::kLaneEngine, span_rebuild_step_, step_start,
                        sim_->Now(), key_device_, rebuild_.device,
                        key_blocks_, static_cast<int64_t>(issued));
  }
}

void ZapRaid::FinishRebuild() {
  device_failed_[static_cast<size_t>(rebuild_.device)] = false;
  rebuild_.active = false;
  rebuild_.finished_ns = sim_->Now();
  BIZA_LOG_INFO("zapraid: rebuild of device %d finished (%llu chunks, %llu passes)",
                rebuild_.device,
                static_cast<unsigned long long>(rebuild_.chunks_migrated),
                static_cast<unsigned long long>(rebuild_.passes));
  RetryStalled();
}

// --------------------------------------------------------------------------
// Crash recovery.
// --------------------------------------------------------------------------

Status ZapRaid::Recover() {
  if (inflight_ != 0 || queued_ops_ != 0 || builders_[kUserBuilder].open ||
      builders_[kGcBuilder].open || gc_active_ || rebuild_.active) {
    return FailedPreconditionError("zapraid: recover on an active array");
  }
  l2p_.Clear();
  pending_.Clear();
  active_io_.clear();
  for (Group& g : groups_) {
    g = Group{};
  }
  free_groups_ = num_zones_;
  // Quiesce zone state: crash-interrupted zones are finished so their
  // frontier is stable; empty open zones (opened but never written) are
  // reset instead — finishing them would leave useless FULL-empty zones.
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;
    }
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t z = 0; z < num_zones_; ++z) {
      const ZoneInfo info = dev->Report(z);
      if (info.state == ZoneState::kOpen || info.state == ZoneState::kClosed) {
        if (info.high_water == 0) {
          (void)dev->ResetZone(z);
        } else {
          BIZA_RETURN_IF_ERROR(dev->FinishZone(z));
        }
      }
    }
  }
  // Pass 1: the OOB stripe headers ARE the journal. Highest wsn wins —
  // the per-block sequence numbers give a total order over every data
  // chunk ever written, so concurrent user/GC frontiers at crash time
  // cannot resurrect stale copies.
  uint32_t max_wsn = 0;
  for (int d = 0; d < n_; ++d) {
    if (device_failed_[static_cast<size_t>(d)]) {
      continue;
    }
    ZnsDevice* dev = devices_[static_cast<size_t>(d)];
    for (uint32_t z = 0; z < num_zones_; ++z) {
      uint64_t off = dev->NextWrittenCandidate(z, 0);
      while (off < zone_cap_) {
        const auto oob = dev->ReadOobSync(z, off);
        if (!oob.ok() || !oob->set()) {
          off = dev->NextWrittenCandidate(z, off + 1);
          continue;
        }
        Group& grp = groups_[z];
        if (grp.rows.empty()) {
          grp.rows.assign(zone_cap_, RowMeta{});
        }
        SetGroupUse(z, GroupUse::kSealed);
        grp.members |= Bit(d);
        RowMeta& row = grp.rows[off];
        if (oob->lbn == kPadLbn) {
          row.present |= Bit(d);
          row.durable |= Bit(d);
          ++grp.data_chunks;
        } else if (IsParityOobLbn(oob->lbn)) {
          const uint64_t sid = oob->lbn - kParityLbnBase;
          if (sid == static_cast<uint64_t>(z) * zone_cap_ + off) {
            row.parity_dev = static_cast<int8_t>(d);
            row.parity_cover = static_cast<uint16_t>(oob->sn);
            row.parity_durable = true;  // provisional: validated post-scan
          } else {
            BIZA_LOG_WARN(
                "zapraid: parity header mismatch dev %d zone %u off %llu", d,
                z, static_cast<unsigned long long>(off));
          }
        } else {
          row.present |= Bit(d);
          row.durable |= Bit(d);
          ++grp.data_chunks;
          max_wsn = std::max(max_wsn, oob->sn);
          const L2pEntry cur = l2p_.Get(oob->lbn);
          if (cur.pa == kInvalidPa || oob->sn > cur.wsn) {
            l2p_.Set(oob->lbn, L2pEntry{MakePa(d, z, off), oob->sn});
          }
        }
        off = dev->NextWrittenCandidate(z, off + 1);
      }
    }
  }
  next_wsn_ = max_wsn + 1;
  // A persisted parity chunk only protects its row if every data chunk its
  // XOR covers also persisted: a crash can tear a row — parity programmed,
  // one member's program lost — and reconstructing through such parity
  // would fabricate data. The cover mask stamped into the parity header at
  // row close must match the recovered present set exactly; otherwise the
  // row is demoted to open-stripe (readable, unprotected until rewritten).
  for (Group& grp : groups_) {
    for (RowMeta& row : grp.rows) {
      if (row.parity_durable && row.present != row.parity_cover) {
        row.parity_dev = -1;
        row.parity_durable = false;
      }
    }
  }
  // Pass 2: per-group valid counts from the final L2P.
  l2p_.ForEach([&](uint64_t, const L2pEntry& e) {
    ++groups_[PaGroup(e.pa)].valid;
  });
  config_.recover_mode = false;
  BIZA_LOG_INFO("zapraid: recovered %zu mapped blocks, next wsn %u",
                static_cast<size_t>(l2p_.size()), next_wsn_);
  return OkStatus();
}

// --------------------------------------------------------------------------
// Observability and accessors.
// --------------------------------------------------------------------------

void ZapRaid::AttachObservability(Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    h_write_ = nullptr;
    h_read_ = nullptr;
    return;
  }
  StatRegistry& reg = obs_->registry;
  reg.RegisterCounter("zapraid.user_written_blocks",
                      [this] { return stats_.user_written_blocks; });
  reg.RegisterCounter("zapraid.user_read_blocks",
                      [this] { return stats_.user_read_blocks; });
  reg.RegisterCounter("zapraid.appended_chunks",
                      [this] { return stats_.appended_chunks; });
  reg.RegisterCounter("zapraid.parity_writes",
                      [this] { return stats_.parity_writes; });
  reg.RegisterCounter("zapraid.pad_writes",
                      [this] { return stats_.pad_writes; });
  reg.RegisterCounter("zapraid.rows_closed_early",
                      [this] { return stats_.rows_closed_early; });
  reg.RegisterCounter("zapraid.requeued_chunks",
                      [this] { return stats_.requeued_chunks; });
  reg.RegisterCounter("zapraid.gc_runs", [this] { return stats_.gc_runs; });
  reg.RegisterCounter("zapraid.gc_migrated_data",
                      [this] { return stats_.gc_migrated_data; });
  reg.RegisterCounter("zapraid.gc_zone_resets",
                      [this] { return stats_.gc_zone_resets; });
  reg.RegisterCounter("zapraid.degraded_reads",
                      [this] { return stats_.degraded_reads; });
  reg.RegisterCounter("zapraid.write_retries",
                      [this] { return stats_.write_retries; });
  reg.RegisterCounter("zapraid.read_retries",
                      [this] { return stats_.read_retries; });
  reg.RegisterCounter("zapraid.write_stalls",
                      [this] { return stats_.write_stalls; });
  reg.RegisterCounter("zapraid.health.hedged_reads",
                      [this] { return stats_.hedged_reads; });
  reg.RegisterCounter("zapraid.health.hedge_recon_wins",
                      [this] { return stats_.hedge_recon_wins; });
  reg.RegisterCounter("zapraid.health.recon_around_reads",
                      [this] { return stats_.recon_around_reads; });
  reg.RegisterCounter("zapraid.health.probe_reads",
                      [this] { return stats_.health_probe_reads; });
  reg.RegisterCounter("zapraid.health.recon_fallbacks",
                      [this] { return stats_.recon_fallbacks; });
  reg.RegisterCounter("zapraid.health.steered_parity_rows",
                      [this] { return stats_.steered_parity_rows; });
  reg.RegisterGauge("zapraid.gc_active", [this] { return gc_active_ ? 1 : 0; });
  reg.RegisterGauge("zapraid.rebuild_active",
                    [this] { return rebuild_.active ? 1 : 0; });
  reg.RegisterGauge("zapraid.free_groups",
                    [this] { return static_cast<int64_t>(free_groups_); });
  h_write_ = reg.Histogram("zapraid.write_latency_ns");
  h_read_ = reg.Histogram("zapraid.read_latency_ns");
  span_write_ = obs_->tracer.Intern("zapraid.write");
  span_read_ = obs_->tracer.Intern("zapraid.read");
  span_gc_step_ = obs_->tracer.Intern("zapraid.gc_step");
  span_rebuild_step_ = obs_->tracer.Intern("zapraid.rebuild_step");
  key_lbn_ = obs_->tracer.Intern("lbn");
  key_blocks_ = obs_->tracer.Intern("blocks");
  key_device_ = obs_->tracer.Intern("device");
  key_group_ = obs_->tracer.Intern("group");
}

uint64_t ZapRaid::ResidentStateBytes() const {
  uint64_t bytes = l2p_.allocated_bytes();
  for (const Group& g : groups_) {
    bytes += g.rows.capacity() * sizeof(RowMeta);
  }
  bytes += pending_.allocated_bytes();
  return bytes;
}

uint64_t ZapRaid::DebugL2pPa(uint64_t lbn) const { return l2p_.Get(lbn).pa; }

uint64_t ZapRaid::FreeGroups() const { return free_groups_; }

Status ZapRaid::CheckFreeGroupCount() const {
  uint64_t free = 0;
  for (const Group& g : groups_) {
    free += g.use == GroupUse::kFree ? 1 : 0;
  }
  if (free != free_groups_) {
    return InternalError("zapraid: " + std::to_string(free) +
                         " free groups, counter says " +
                         std::to_string(free_groups_));
  }
  return OkStatus();
}

size_t ZapRaid::PooledSlotsInUse() const {
  return write_joins_.in_use() + batches_.in_use() + read_joins_.in_use() +
         dev_reads_.in_use() + gc_batches_.in_use();
}

}  // namespace biza
