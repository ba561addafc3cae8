#ifndef CAMAL_ENGINE_SHARDED_ENGINE_H_
#define CAMAL_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/shard_host.h"
#include "lsm/lsm_tree.h"
#include "sim/device.h"

namespace camal::engine {

/// N independent `lsm::LsmTree` shards behind the `ShardHost` — the
/// simulated multi-tenant serving engine. Each shard owns its own
/// simulated device and its own options; the total memory budget of the
/// system-wide options is divided evenly across shards.
///
/// A cold shard holds no memtable, Bloom filters, cache, or device, just
/// a slot. A hibernated shard freezes its tree into a compact snapshot
/// (`lsm::FrozenTreeState`) and keeps only its device. Lifecycle
/// transitions are bit-exact, so logical results, per-op costs, and
/// `EngineCounters` are identical to an eager engine serving the same
/// stream:
///   - a cold shard is observationally an empty tree (empty-tree probes
///     charge nothing and contribute exact zeros to scan cost sums);
///   - materialization builds exactly the state eager construction built
///     (shard i's device seed is a pure function of i);
///   - freeze/restore round-trips the complete tree state, cache LRU
///     order and counters included.
///
/// Because every shard owns its device (including its jitter stream),
/// `ExecuteOps` results are bit-identical to serial execution at any
/// thread count. With one shard the engine is bit-identical to driving
/// the tree directly: shard 0 uses the caller's device config verbatim
/// (including its jitter seed) and options pass through undivided.
class ShardedEngine final : public ShardHost {
 public:
  /// `total_options` is the system-wide configuration; each shard receives
  /// `ShardOptions(total_options, num_shards)`. Shard 0's device uses
  /// `device_config` verbatim; shard i > 0 derives an independent jitter
  /// stream from it (seed ⊕ i), so distinct shards never share correlated
  /// jitter. `lifecycle` controls lazy instantiation and hibernation; the
  /// default (lazy, no hibernation) is bit-identical to eager
  /// construction.
  ShardedEngine(size_t num_shards, const lsm::Options& total_options,
                const sim::DeviceConfig& device_config,
                const ShardLifecycleConfig& lifecycle = {});

  /// Direct shard access (tests, per-shard inspection). Materializes the
  /// shard (waking it if hibernated) — access implies intent to touch.
  lsm::LsmTree* shard(size_t i);
  sim::Device* shard_device(size_t i);

 private:
  struct Shard : Slot {
    std::unique_ptr<sim::Device> device;           // survives hibernation
    std::unique_ptr<lsm::LsmTree> tree;            // iff materialized
    std::unique_ptr<lsm::FrozenTreeState> frozen;  // iff hibernated
  };

  sim::Device* EnsureDevice(size_t s, Shard& shard);

  std::unique_ptr<Slot> NewSlot() override;
  void CreateShard(size_t s, Slot& slot, const lsm::Options& options) override;
  void WakeShard(Slot& slot) override;
  void HibernateShard(Slot& slot) override;
  void RunList(Slot& slot, const ShardList& list) override;
  ScanProbe ProbeScan(Slot& slot, uint64_t start_key, size_t max_entries,
                      std::vector<lsm::Entry>* out) override;
  bool ApplyPoint(Slot& slot, const Op& op, uint64_t* value) override;
  void FlushShard(Slot& slot) override;
  void ReconfigureLive(Slot& slot, const lsm::Options& options) override;
  bool ReconfigureAsleep(Slot& slot, const lsm::Options& options) override;
  sim::DeviceSnapshot SlotCost(const Slot& slot) const override;
  ShardInfo Describe(const Slot& slot) const override;

  sim::DeviceConfig device_config_;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARDED_ENGINE_H_
