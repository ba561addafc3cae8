#ifndef CAMAL_ENGINE_SHARD_HOST_H_
#define CAMAL_ENGINE_SHARD_HOST_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/storage_engine.h"

namespace camal::util {
class ThreadPool;
}  // namespace camal::util

namespace camal::engine {

/// Gathers per-shard sorted slices into one globally sorted stream of up
/// to `max_entries` entries via a binary-heap k-way merge: O(total·log k)
/// instead of a linear min-scan's O(total·k). Keys across slices must be
/// pairwise disjoint (hash partitioning guarantees it), so no tie-break
/// is needed and the output order is unique. `ShardHost::Scan` gathers
/// through this.
size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out);

/// \brief The shard host both sharded backends derive from: N shards
/// behind a deterministic hash partitioner (`Mix64(key) % N`), their
/// lifecycle, and the batched serving path, written once.
///
/// The host owns everything that does not depend on how a shard stores
/// its data:
///   - routing and the even budget split (`ShardIndex`, `ShardOptions`);
///   - the shard lifecycle. Shards are lazy by default: a cold shard
///     holds nothing and materializes on the first operation that
///     touches it. With `ShardLifecycleConfig::hibernate_after_batches`
///     set, a materialized shard idle for that many `ExecuteOps` batches
///     hibernates, and the next touching operation wakes it. Both
///     transitions charge nothing and preserve all state, so an engine
///     that uses them is observationally identical to an eager one;
///   - `ExecuteOps`: each batch is partitioned into per-shard operation
///     lists (a scan probe appears in every resident shard's list; scans
///     first wake all hibernated shards), the lists run concurrently on
///     `pool()` workers with intra-shard order preserved, and per-op
///     results land in submission order. Partitioning and all
///     bookkeeping are O(ops + resident), never O(total shards);
///   - scatter-gather `Scan`, the point-op wrappers, and every aggregate
///     over shards (cost, counters, entries, transition status).
///
/// A backend supplies the per-shard hooks below: create, wake and
/// hibernate one shard, run one shard's op list, probe one scan, apply
/// one point op, flush, reconfigure live or asleep, and describe one
/// shard. Hooks are dispatched once per shard list or per point op,
/// never per block.
///
/// With one shard the host adds nothing: options pass through undivided
/// and `Scan` forwards to the shard without a merge layer.
class ShardHost : public StorageEngine {
 public:
  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  void Put(uint64_t key, uint64_t value) override;
  void Delete(uint64_t key) override;
  bool Get(uint64_t key, uint64_t* value) override;
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) override;

  /// Batched execution with concurrent per-shard sub-batches (serial when
  /// no pool is attached). Logical results and I/O counts are identical
  /// for any `pool()` value; so are costs on a deterministic clock.
  void ExecuteOps(const Op* ops, size_t count, OpResult* results) override;
  using StorageEngine::ExecuteOps;

  /// Flushes every resident shard. Hibernated shards holding buffered
  /// writes wake to flush them; the rest stay asleep.
  void FlushMemtable() override;

  /// Divides `new_total_options`'s memory budget across shards and
  /// reconfigures every touched shard; cold shards pick the new split up
  /// when they materialize.
  void Reconfigure(const lsm::Options& new_total_options) override;

  /// Applies shard-local `options` to one shard. A hibernated shard is
  /// updated asleep when its backend can (it wakes otherwise); a cold
  /// shard stays cold and materializes with `options` later (deferred
  /// reconfiguration of an empty shard is observationally identical to
  /// applying it now).
  void ReconfigureShard(size_t shard, const lsm::Options& options) override;

  size_t NumShards() const final { return num_shards_; }
  size_t ShardIndex(uint64_t key) const final;

  lsm::Options ShardOptionsSnapshot(size_t shard) const override;

  ShardState ShardLifecycle(size_t shard) const override;
  size_t MaterializedShards() const override { return resident_.size(); }
  void AppendResidentShards(std::vector<size_t>* out) const override;

  /// Sum over shards in ascending shard order, so the floating-point
  /// total is reproducible.
  sim::DeviceSnapshot CostSnapshot() const override;
  sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const override;
  EngineCounters AggregateCounters() const override;
  EngineCounters ShardCounters(size_t shard) const override;

  uint64_t TotalEntries() const override;
  uint64_t DiskEntries() const override;
  uint64_t ShardEntries(size_t shard) const override;
  bool InTransition() const override;

  /// Attaches (or detaches, with nullptr) the worker pool `ExecuteOps` and
  /// `Scan` fan shard-local work across. Not owned; must outlive its use.
  /// No pool — and any call made from inside a pool worker — runs inline.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* pool() const { return pool_; }

  /// The per-shard slice of a total configuration: buffer, Bloom, and
  /// block-cache budgets divided by `num_shards` (shape knobs unchanged).
  /// Identity when `num_shards` == 1.
  static lsm::Options ShardOptions(const lsm::Options& total,
                                   size_t num_shards);

 protected:
  /// Per-shard state. Backends derive their shard type from it; the host
  /// keeps the lifecycle fields.
  struct Slot {
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    /// Virtual: the host deletes backend slots through this type.
    virtual ~Slot() = default;
    ShardState state = ShardState::kCold;
    uint64_t last_touch_epoch = ~uint64_t{0};  // sentinel: never touched
  };

  /// One scan's probe of one shard: the shard's cost clock right before
  /// and right after the probe, and the live entries it produced.
  struct ScanProbe {
    sim::DeviceSnapshot before;
    sim::DeviceSnapshot after;
    size_t hits = 0;
  };

  /// One shard's share of an `ExecuteOps` batch: the indices of the ops
  /// it serves, in submission order. Point-op results go to
  /// `results[i]`; a scan's probe goes to `Probe(i)`.
  struct ShardList {
    const Op* ops;
    const std::vector<size_t>& indices;
    OpResult* results;
    ScanProbe* probes;
    const size_t* scan_slot;
    size_t stride;

    ScanProbe& Probe(size_t i) const { return probes[scan_slot[i] * stride]; }
  };

  /// What the host aggregates over shards. `options` is null for a slot
  /// that is still cold.
  struct ShardInfo {
    const lsm::Options* options = nullptr;
    EngineCounters counters;
    uint64_t total_entries = 0;
    uint64_t disk_entries = 0;
    bool in_transition = false;
  };

  /// `total_options` is the system-wide configuration; each shard receives
  /// `ShardOptions(total_options, num_shards)`. Derived constructors call
  /// `MaterializeEagerShards()` once they can serve the hooks.
  ShardHost(size_t num_shards, const lsm::Options& total_options,
            const ShardLifecycleConfig& lifecycle);

  /// Materializes every shard unless the lifecycle is lazy.
  void MaterializeEagerShards();

  // --- Backend hooks ------------------------------------------------------

  /// A fresh cold slot of the backend's shard type.
  virtual std::unique_ptr<Slot> NewSlot() = 0;
  /// Builds cold shard `s`'s live structures with `options`.
  virtual void CreateShard(size_t s, Slot& slot,
                           const lsm::Options& options) = 0;
  /// Restores a hibernated shard's live structures.
  virtual void WakeShard(Slot& slot) = 0;
  /// Releases a materialized shard's live structures into its frozen form.
  virtual void HibernateShard(Slot& slot) = 0;
  /// Runs one shard's op list of an `ExecuteOps` batch.
  virtual void RunList(Slot& slot, const ShardList& list) = 0;
  /// Appends up to `max_entries` of the shard's live entries with key >=
  /// `start_key`, in key order, to `out`, charging the shard's clock.
  virtual ScanProbe ProbeScan(Slot& slot, uint64_t start_key,
                              size_t max_entries,
                              std::vector<lsm::Entry>* out) = 0;
  /// One point op outside a batch. For kGet returns whether the key is
  /// live and fills `*value` (may be null); false otherwise.
  virtual bool ApplyPoint(Slot& slot, const Op& op, uint64_t* value) = 0;
  /// Flushes a materialized shard's buffered writes.
  virtual void FlushShard(Slot& slot) = 0;
  /// Applies `options` to a materialized shard.
  virtual void ReconfigureLive(Slot& slot, const lsm::Options& options) = 0;
  /// Applies `options` to a hibernated shard without waking it. Returns
  /// false when the shard must wake first; the host then wakes it and
  /// calls `ReconfigureLive`.
  virtual bool ReconfigureAsleep(Slot& slot, const lsm::Options& options) = 0;
  /// The shard's cost clock (zeros when it has none yet). Kept apart
  /// from `Describe`: the gateway reads it for every shard every batch.
  virtual sim::DeviceSnapshot SlotCost(const Slot& slot) const = 0;
  /// Everything else the host aggregates about one shard.
  virtual ShardInfo Describe(const Slot& slot) const = 0;

  // --- Host services for backends -----------------------------------------

  /// Brings shard `s` to the materialized state (create cold / wake
  /// hibernated), marks it active this batch, and returns its slot.
  Slot& ActivateShard(size_t s);
  /// Shard `s`'s slot, or null when it has none (cold, never touched).
  Slot* FindSlot(size_t s) const;
  /// Shard `s`'s slot, created cold when it has none.
  Slot& SlotAt(size_t s);
  /// Registers a shard rebuilt outside the lifecycle (recovery) in
  /// `state` (materialized or hibernated).
  void AdoptShard(size_t s, std::unique_ptr<Slot> slot, ShardState state);
  /// The options shard `s` materializes with while it is cold.
  const lsm::Options& EffectiveOptions(size_t s) const;

  const lsm::Options& default_options() const { return default_options_; }
  const std::map<size_t, lsm::Options>& cold_options() const {
    return cold_options_;
  }
  const std::set<size_t>& resident() const { return resident_; }
  const std::set<size_t>& hibernated() const { return hibernated_; }
  const std::unordered_map<size_t, std::unique_ptr<Slot>>& slots() const {
    return slots_;
  }

 private:
  /// Brings shard `s` to the materialized state and returns its slot.
  Slot& MaterializeShard(size_t s);
  /// Marks shard `s` active this batch and arms its idle timer.
  void Touch(size_t s);
  /// Wakes every hibernated shard (scans: their data must be probed).
  void WakeAllHibernated();
  /// Hibernates shards whose idle timers expired.
  void HibernateIdleShards();

  size_t num_shards_ = 0;
  lsm::Options default_options_;
  ShardLifecycleConfig lifecycle_;
  /// Hashed active-shard map: holds an entry only for shards that have
  /// been touched, so engine memory is O(active), not O(total) — a
  /// million cold tenants cost nothing but this map's empty buckets.
  std::unordered_map<size_t, std::unique_ptr<Slot>> slots_;
  /// Options applied to a shard while cold, pending materialization.
  std::map<size_t, lsm::Options> cold_options_;
  /// Materialized shard ids, ascending (scan probe order).
  std::set<size_t> resident_;
  /// Hibernated shard ids (O(hibernated) wake-all, not O(total)).
  std::set<size_t> hibernated_;
  /// Idle tracking: (shard, touch epoch) entries with lazy deletion; a
  /// shard hibernates when its newest entry expires untouched.
  std::deque<std::pair<size_t, uint64_t>> idle_queue_;
  uint64_t epoch_ = 0;
  util::ThreadPool* pool_ = nullptr;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARD_HOST_H_
