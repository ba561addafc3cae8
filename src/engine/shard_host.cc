#include "engine/shard_host.h"

#include <algorithm>

#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace camal::engine {

size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out) {
  // Min-heap of (head key, slice index); each pop advances one slice
  // cursor and may re-push that slice's next head.
  struct Head {
    uint64_t key;
    size_t slice;
  };
  const auto greater = [](const Head& a, const Head& b) {
    return a.key > b.key;
  };
  std::vector<Head> heap;
  heap.reserve(slices.size());
  std::vector<size_t> idx(slices.size(), 0);
  for (size_t s = 0; s < slices.size(); ++s) {
    if (!slices[s].empty()) heap.push_back(Head{slices[s][0].key, s});
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  size_t added = 0;
  while (added < max_entries && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const size_t s = heap.back().slice;
    heap.pop_back();
    out->push_back(slices[s][idx[s]++]);
    ++added;
    if (idx[s] < slices[s].size()) {
      heap.push_back(Head{slices[s][idx[s]].key, s});
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
  return added;
}

ShardHost::ShardHost(size_t num_shards, const lsm::Options& total_options,
                     const ShardLifecycleConfig& lifecycle)
    : num_shards_(num_shards),
      default_options_(ShardOptions(total_options, num_shards)),
      lifecycle_(lifecycle) {}

void ShardHost::MaterializeEagerShards() {
  if (lifecycle_.lazy) return;
  for (size_t s = 0; s < num_shards_; ++s) MaterializeShard(s);
}

lsm::Options ShardHost::ShardOptions(const lsm::Options& total,
                                     size_t num_shards) {
  CAMAL_CHECK(num_shards >= 1);
  if (num_shards == 1) return total;
  lsm::Options per_shard = total;
  const auto n = static_cast<uint64_t>(num_shards);
  per_shard.buffer_bytes =
      std::max<uint64_t>(total.entry_bytes, total.buffer_bytes / n);
  per_shard.bloom_bits = total.bloom_bits / n;
  per_shard.block_cache_bytes = total.block_cache_bytes / n;
  return per_shard;
}

size_t ShardHost::ShardIndex(uint64_t key) const {
  if (num_shards_ == 1) return 0;
  return static_cast<size_t>(util::Mix64(key) % num_shards_);
}

// ---------------------------------------------------------------- lifecycle

ShardHost::Slot* ShardHost::FindSlot(size_t s) const {
  const auto it = slots_.find(s);
  return it == slots_.end() ? nullptr : it->second.get();
}

ShardHost::Slot& ShardHost::SlotAt(size_t s) {
  CAMAL_CHECK(s < num_shards_);
  std::unique_ptr<Slot>& slot = slots_[s];
  if (slot == nullptr) slot = NewSlot();
  return *slot;
}

const lsm::Options& ShardHost::EffectiveOptions(size_t s) const {
  const auto it = cold_options_.find(s);
  return it != cold_options_.end() ? it->second : default_options_;
}

ShardHost::Slot& ShardHost::MaterializeShard(size_t s) {
  Slot& slot = SlotAt(s);
  if (slot.state == ShardState::kMaterialized) return slot;
  if (slot.state == ShardState::kHibernated) {
    WakeShard(slot);
    hibernated_.erase(s);
  } else {
    const auto it = cold_options_.find(s);
    CreateShard(s, slot, it != cold_options_.end() ? it->second
                                                   : default_options_);
    if (it != cold_options_.end()) cold_options_.erase(it);
  }
  slot.state = ShardState::kMaterialized;
  resident_.insert(s);
  return slot;
}

ShardHost::Slot& ShardHost::ActivateShard(size_t s) {
  Slot& slot = MaterializeShard(s);
  Touch(s);
  return slot;
}

void ShardHost::AdoptShard(size_t s, std::unique_ptr<Slot> slot,
                           ShardState state) {
  CAMAL_CHECK(s < num_shards_ && FindSlot(s) == nullptr);
  CAMAL_CHECK(state != ShardState::kCold);
  slot->state = state;
  slots_.emplace(s, std::move(slot));
  (state == ShardState::kHibernated ? hibernated_ : resident_).insert(s);
}

void ShardHost::WakeAllHibernated() {
  while (!hibernated_.empty()) MaterializeShard(*hibernated_.begin());
}

void ShardHost::Touch(size_t s) {
  if (lifecycle_.hibernate_after_batches == 0) return;
  Slot& slot = *slots_.at(s);
  if (slot.last_touch_epoch == epoch_) return;
  slot.last_touch_epoch = epoch_;
  idle_queue_.emplace_back(s, epoch_);
}

void ShardHost::HibernateIdleShards() {
  const uint64_t window = lifecycle_.hibernate_after_batches;
  while (!idle_queue_.empty() &&
         idle_queue_.front().second + window <= epoch_) {
    const auto [s, touched] = idle_queue_.front();
    idle_queue_.pop_front();
    // Lazy deletion: only the newest timer for a still-resident shard
    // hibernates it; stale entries (shard re-touched or already asleep)
    // fall through.
    Slot* slot = FindSlot(s);
    if (slot != nullptr && slot->state == ShardState::kMaterialized &&
        slot->last_touch_epoch == touched) {
      HibernateShard(*slot);
      slot->state = ShardState::kHibernated;
      resident_.erase(s);
      hibernated_.insert(s);
    }
  }
}

// ---------------------------------------------------------------- serving

void ShardHost::Put(uint64_t key, uint64_t value) {
  ApplyPoint(ActivateShard(ShardIndex(key)), Op{OpKind::kPut, key, value, 0},
             nullptr);
}

void ShardHost::Delete(uint64_t key) {
  ApplyPoint(ActivateShard(ShardIndex(key)), Op{OpKind::kDelete, key, 0, 0},
             nullptr);
}

bool ShardHost::Get(uint64_t key, uint64_t* value) {
  return ApplyPoint(ActivateShard(ShardIndex(key)),
                    Op{OpKind::kGet, key, 0, 0}, value);
}

size_t ShardHost::Scan(uint64_t start_key, size_t max_entries,
                       std::vector<lsm::Entry>* out) {
  if (num_shards_ == 1) {
    return ProbeScan(ActivateShard(0), start_key, max_entries, out).hits;
  }
  if (max_entries == 0) return 0;

  // Scans consult every shard that holds data: hibernated shards wake,
  // cold shards are skipped (an empty shard contributes nothing and
  // charges nothing).
  WakeAllHibernated();
  const std::vector<size_t> probed(resident_.begin(), resident_.end());
  std::vector<Slot*> probed_slot(probed.size());
  for (size_t k = 0; k < probed.size(); ++k) {
    Touch(probed[k]);
    probed_slot[k] = slots_.at(probed[k]).get();
  }

  // Scatter: each resident shard contributes up to max_entries of its own
  // sorted, live entries (keys are hash-partitioned, so shard slices are
  // disjoint). Each probe touches only its own shard, so the fan-out is
  // deterministic; slots resolve before it, so workers never touch the
  // slot map.
  std::vector<std::vector<lsm::Entry>> slices(probed.size());
  util::ParallelFor(pool_, 0, probed.size(), [&](size_t k) {
    ProbeScan(*probed_slot[k], start_key, max_entries, &slices[k]);
  });

  // Gather: binary-heap k-way merge of the disjoint sorted slices.
  return MergeDisjointSlices(slices, max_entries, out);
}

void ShardHost::ExecuteOps(const Op* ops, size_t count, OpResult* results) {
  if (count == 0) return;
  ++epoch_;

  // Pass 1: bring every shard this batch drives to the materialized state.
  // Scans additionally wake all hibernated shards — their data
  // participates in every range probe — while cold shards stay cold
  // (probing an empty shard returns nothing and charges nothing, so
  // skipping them is identical to the eager engine probing them).
  bool has_scan = false;
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].kind == OpKind::kScan) {
      has_scan = true;
    } else {
      ActivateShard(ShardIndex(ops[i].key));
    }
  }
  if (has_scan) WakeAllHibernated();

  // Pass 2: partition the batch into per-shard operation lists in
  // submission order: point ops go to their routed shard, a scan probe
  // appears in every resident shard's list. Each list is exactly the op
  // subsequence its shard would serve under serial execution, so running
  // the lists concurrently (shard state is fully shard-local) reproduces
  // the serial results with no barrier inside the batch.
  std::vector<size_t> list_shard;  // list index -> shard id
  std::vector<std::vector<size_t>> lists;
  std::unordered_map<size_t, size_t> list_of;
  if (has_scan) {
    // The probe set is the resident set after pass 1, ascending — every
    // point shard of this batch is already in it, so no list is created
    // below and list_shard stays sorted (the gather relies on it).
    list_shard.assign(resident_.begin(), resident_.end());
    lists.resize(list_shard.size());
    list_of.reserve(2 * list_shard.size());
    for (size_t k = 0; k < list_shard.size(); ++k) {
      list_of.emplace(list_shard[k], k);
      Touch(list_shard[k]);
    }
  }
  std::vector<size_t> scan_slot(count, 0);
  std::vector<size_t> scan_op;
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].kind == OpKind::kScan) {
      scan_slot[i] = scan_op.size();
      scan_op.push_back(i);
      for (auto& list : lists) list.push_back(i);
    } else {
      const size_t s = ShardIndex(ops[i].key);
      const auto [it, inserted] = list_of.try_emplace(s, lists.size());
      if (inserted) {
        lists.emplace_back();
        list_shard.push_back(s);
      }
      lists[it->second].push_back(i);
    }
  }

  // Per-(scan, probed shard) probes, indexed slot * stride + k so
  // concurrent writers touch disjoint elements. Snapshots (not deltas)
  // are recorded so the gather below can "sum the clocks, then diff the
  // totals" exactly as a caller diffing `CostSnapshot()` would.
  const size_t stride = lists.size();
  std::vector<ScanProbe> probes(scan_op.size() * stride);

  // Resolve slots before the fan-out: every listed shard is materialized
  // (pass 1), and workers must never touch the slot map.
  std::vector<Slot*> list_slot(lists.size());
  for (size_t k = 0; k < lists.size(); ++k) {
    list_slot[k] = slots_.at(list_shard[k]).get();
  }

  util::ParallelFor(pool_, 0, lists.size(), [&](size_t k) {
    RunList(*list_slot[k], ShardList{ops, lists[k], results,
                                     probes.data() + k, scan_slot.data(),
                                     stride});
  });

  // Deterministic gather for the scans: sum the per-shard snapshots in
  // ascending shard order (list_shard is sorted whenever scans exist),
  // diff the totals (absent cold shards would have contributed exact
  // zeros), and cap the combined hit count at the probe limit.
  for (size_t slot = 0; slot < scan_op.size(); ++slot) {
    sim::DeviceSnapshot total_before, total_after;
    size_t hits = 0;
    for (size_t k = 0; k < stride; ++k) {
      const ScanProbe& probe = probes[slot * stride + k];
      total_before += probe.before;
      total_after += probe.after;
      hits += probe.hits;
    }
    const sim::DeviceSnapshot delta = total_after.Delta(total_before);
    const size_t i = scan_op[slot];
    OpResult r;
    r.latency_ns = delta.elapsed_ns;
    r.ios = delta.TotalIos();
    r.scan_hits = std::min(ops[i].scan_len, hits);
    results[i] = r;
  }

  if (lifecycle_.hibernate_after_batches != 0) HibernateIdleShards();
  ProfileBatch(ops, count, results);
}

void ShardHost::FlushMemtable() {
  // Hibernated shards holding buffered writes wake to flush them; the
  // rest stay asleep (their flush would be a no-op). Cold shards are
  // empty by construction.
  std::vector<size_t> wake;
  for (size_t s : hibernated_) {
    const ShardInfo info = Describe(*slots_.at(s));
    if (info.total_entries > info.disk_entries) wake.push_back(s);
  }
  for (size_t s : wake) ActivateShard(s);
  for (size_t s : resident_) FlushShard(*slots_.at(s));
}

void ShardHost::Reconfigure(const lsm::Options& new_total_options) {
  const lsm::Options per_shard = ShardOptions(new_total_options, num_shards_);
  default_options_ = per_shard;
  cold_options_.clear();
  // Touched shards reconfigure now; cold ones pick the new default up at
  // materialization. Ids are gathered first: a hibernated shard that must
  // wake moves between the sets.
  std::vector<size_t> touched(resident_.begin(), resident_.end());
  touched.insert(touched.end(), hibernated_.begin(), hibernated_.end());
  for (size_t s : touched) ReconfigureShard(s, per_shard);
}

void ShardHost::ReconfigureShard(size_t shard, const lsm::Options& options) {
  CAMAL_CHECK(shard < num_shards_);
  CAMAL_CHECK(options.entry_bytes == ShardOptionsSnapshot(shard).entry_bytes);
  Slot* slot = FindSlot(shard);
  if (slot == nullptr || slot->state == ShardState::kCold) {
    cold_options_[shard] = options;
    return;
  }
  if (slot->state == ShardState::kHibernated) {
    if (ReconfigureAsleep(*slot, options)) return;
    ActivateShard(shard);
  }
  ReconfigureLive(*slot, options);
}

// ------------------------------------------------------------ observability

lsm::Options ShardHost::ShardOptionsSnapshot(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const Slot* slot = FindSlot(shard);
  if (slot != nullptr && slot->state != ShardState::kCold) {
    return *Describe(*slot).options;
  }
  return EffectiveOptions(shard);
}

ShardState ShardHost::ShardLifecycle(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const Slot* slot = FindSlot(shard);
  return slot == nullptr ? ShardState::kCold : slot->state;
}

void ShardHost::AppendResidentShards(std::vector<size_t>* out) const {
  out->insert(out->end(), resident_.begin(), resident_.end());
}

sim::DeviceSnapshot ShardHost::CostSnapshot() const {
  // Ascending shard order — the floating-point sum must be reproducible,
  // and the hashed map iterates in no useful order, so the touched shard
  // ids are sorted first (O(active log active)). Shards with no slot have
  // charged nothing and contribute the same exact zeros a fresh clock
  // would.
  std::vector<size_t> ids;
  ids.reserve(slots_.size());
  for (const auto& [s, slot] : slots_) ids.push_back(s);
  std::sort(ids.begin(), ids.end());
  sim::DeviceSnapshot total;
  for (size_t s : ids) total += SlotCost(*slots_.at(s));
  return total;
}

sim::DeviceSnapshot ShardHost::ShardCostSnapshot(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const Slot* slot = FindSlot(shard);
  return slot == nullptr ? sim::DeviceSnapshot{} : SlotCost(*slot);
}

EngineCounters ShardHost::AggregateCounters() const {
  // Integer sums are order-free, so the map iterates directly.
  EngineCounters total;
  for (const auto& [s, slot] : slots_) total += Describe(*slot).counters;
  return total;
}

EngineCounters ShardHost::ShardCounters(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const Slot* slot = FindSlot(shard);
  return slot == nullptr ? EngineCounters{} : Describe(*slot).counters;
}

uint64_t ShardHost::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& [s, slot] : slots_) total += Describe(*slot).total_entries;
  return total;
}

uint64_t ShardHost::DiskEntries() const {
  uint64_t total = 0;
  for (const auto& [s, slot] : slots_) total += Describe(*slot).disk_entries;
  return total;
}

uint64_t ShardHost::ShardEntries(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const Slot* slot = FindSlot(shard);
  return slot == nullptr ? 0 : Describe(*slot).total_entries;
}

bool ShardHost::InTransition() const {
  for (const auto& [s, slot] : slots_) {
    if (Describe(*slot).in_transition) return true;
  }
  return false;
}

}  // namespace camal::engine
