#include "engine/sharded_engine.h"

#include <utility>

#include "util/random.h"
#include "util/status.h"

namespace camal::engine {

namespace {

/// Mirror of LsmTree's private transition predicate, evaluated against a
/// frozen shard's levels so a hibernated shard can be reconfigured
/// in place — updating options, cache capacity, and the transition flag
/// exactly as a live `Reconfigure` would — without rehydrating it.
bool AnyLevelViolates(const lsm::Levels& levels, const lsm::Options& opts) {
  for (size_t i = 0; i < levels.NumLevels(); ++i) {
    const auto& runs = levels.At(i);
    if (runs.empty()) continue;
    if (runs.size() > static_cast<size_t>(opts.MaxRunsPerLevel())) return true;
    if (static_cast<double>(levels.LevelEntries(i)) >
        opts.LevelCapacityEntries(static_cast<int>(i))) {
      return true;
    }
  }
  return false;
}

/// In-place reconfiguration of a hibernated shard: same observable effect
/// as waking it, calling `LsmTree::Reconfigure`, and re-freezing — the
/// cache truncates from the LRU end, the transition flag is recomputed —
/// but O(cache keys) instead of a full rehydration.
void ReconfigureFrozen(lsm::FrozenTreeState* frozen, const lsm::Options& opts,
                       uint64_t block_bytes) {
  CAMAL_CHECK(opts.Validate().ok());
  frozen->options = opts;
  const uint64_t capacity = opts.block_cache_bytes / block_bytes;
  frozen->cache.capacity = capacity;
  if (frozen->cache.keys_mru_to_lru.size() > capacity) {
    frozen->cache.keys_mru_to_lru.resize(capacity);
  }
  frozen->transition_active = AnyLevelViolates(frozen->levels, opts);
}

}  // namespace

ShardedEngine::ShardedEngine(size_t num_shards,
                             const lsm::Options& total_options,
                             const sim::DeviceConfig& device_config,
                             const ShardLifecycleConfig& lifecycle)
    : ShardHost(num_shards, total_options, lifecycle),
      device_config_(device_config) {
  CAMAL_CHECK(default_options().Validate().ok());
  MaterializeEagerShards();
}

sim::Device* ShardedEngine::EnsureDevice(size_t s, Shard& shard) {
  if (shard.device == nullptr) {
    sim::DeviceConfig cfg = device_config_;
    // Shard 0 keeps the caller's jitter stream (1-shard bit-identity with
    // the direct-tree path); later shards derive independent streams. The
    // seed is a pure function of the shard index, so a shard that
    // materializes late gets exactly the device eager construction would
    // have given it.
    if (s > 0) cfg.jitter_seed = util::HashCombine(cfg.jitter_seed, s);
    shard.device = std::make_unique<sim::Device>(cfg);
  }
  return shard.device.get();
}

std::unique_ptr<ShardHost::Slot> ShardedEngine::NewSlot() {
  return std::make_unique<Shard>();
}

void ShardedEngine::CreateShard(size_t s, Slot& slot,
                                const lsm::Options& options) {
  Shard& shard = static_cast<Shard&>(slot);
  shard.tree = std::make_unique<lsm::LsmTree>(options, EnsureDevice(s, shard));
}

void ShardedEngine::WakeShard(Slot& slot) {
  Shard& shard = static_cast<Shard&>(slot);
  shard.tree = std::make_unique<lsm::LsmTree>(std::move(*shard.frozen),
                                              shard.device.get());
  shard.frozen.reset();
}

void ShardedEngine::HibernateShard(Slot& slot) {
  Shard& shard = static_cast<Shard&>(slot);
  shard.frozen = shard.tree->Freeze();
  shard.tree.reset();
}

void ShardedEngine::RunList(Slot& slot, const ShardList& list) {
  sim::Device* dev = static_cast<Shard&>(slot).device.get();
  std::vector<lsm::Entry> scratch;
  for (size_t i : list.indices) {
    const Op& op = list.ops[i];
    if (op.kind == OpKind::kScan) {
      scratch.clear();
      list.Probe(i) = ProbeScan(slot, op.key, op.scan_len, &scratch);
      continue;
    }
    const sim::DeviceSnapshot before = dev->Snapshot();
    OpResult r;
    r.found = ApplyPoint(slot, op, nullptr);
    const sim::DeviceSnapshot delta = dev->Snapshot().Delta(before);
    r.latency_ns = delta.elapsed_ns;
    r.ios = delta.TotalIos();
    list.results[i] = r;
  }
}

ShardHost::ScanProbe ShardedEngine::ProbeScan(Slot& slot, uint64_t start_key,
                                              size_t max_entries,
                                              std::vector<lsm::Entry>* out) {
  Shard& shard = static_cast<Shard&>(slot);
  ScanProbe probe;
  probe.before = shard.device->Snapshot();
  probe.hits = shard.tree->Scan(start_key, max_entries, out);
  probe.after = shard.device->Snapshot();
  return probe;
}

bool ShardedEngine::ApplyPoint(Slot& slot, const Op& op, uint64_t* value) {
  lsm::LsmTree* tree = static_cast<Shard&>(slot).tree.get();
  if (op.kind == OpKind::kGet) return tree->Get(op.key, value);
  if (op.kind == OpKind::kDelete) {
    tree->Delete(op.key);
  } else {
    tree->Put(op.key, op.value);
  }
  return false;
}

void ShardedEngine::FlushShard(Slot& slot) {
  static_cast<Shard&>(slot).tree->FlushMemtable();
}

void ShardedEngine::ReconfigureLive(Slot& slot, const lsm::Options& options) {
  static_cast<Shard&>(slot).tree->Reconfigure(options);
}

bool ShardedEngine::ReconfigureAsleep(Slot& slot,
                                      const lsm::Options& options) {
  Shard& shard = static_cast<Shard&>(slot);
  ReconfigureFrozen(shard.frozen.get(), options,
                    shard.device->config().block_bytes);
  return true;
}

sim::DeviceSnapshot ShardedEngine::SlotCost(const Slot& slot) const {
  const Shard& shard = static_cast<const Shard&>(slot);
  return shard.device == nullptr ? sim::DeviceSnapshot{}
                                 : shard.device->Snapshot();
}

ShardHost::ShardInfo ShardedEngine::Describe(const Slot& slot) const {
  const Shard& shard = static_cast<const Shard&>(slot);
  ShardInfo info;
  if (shard.tree != nullptr) {
    info.options = &shard.tree->options();
    info.counters = shard.tree->counters();
    info.total_entries = shard.tree->TotalEntries();
    info.disk_entries = shard.tree->DiskEntries();
    info.in_transition = shard.tree->InTransition();
  } else if (shard.frozen != nullptr) {
    info.options = &shard.frozen->options;
    info.counters = shard.frozen->counters;
    info.total_entries = shard.frozen->total_entries;
    info.disk_entries = shard.frozen->disk_entries;
    info.in_transition = shard.frozen->transition_active;
  }
  return info;
}

lsm::LsmTree* ShardedEngine::shard(size_t i) {
  return static_cast<Shard&>(ActivateShard(i)).tree.get();
}

sim::Device* ShardedEngine::shard_device(size_t i) {
  return EnsureDevice(i, static_cast<Shard&>(SlotAt(i)));
}

}  // namespace camal::engine
