#ifndef PERFBENCH_SHIM_H_
#define PERFBENCH_SHIM_H_

// The benchmark's recording shim: a forwarding `StorageEngine` and a
// forwarding `workload::BatchObserver`. Both pass every call through
// unchanged. The engine logs what the oracle needs of every executed op,
// so the program's answers can be checked after the timed section; both
// read clocks only when tracing is on.

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "engine/storage_engine.h"
#include "workload/request.h"

namespace perfbench {

/// Per-op-kind totals over the results an engine returned.
struct KindTotals {
  uint64_t ops = 0;
  uint64_t ios = 0;
  double latency_ns = 0.0;
};

/// What the oracle needs of one executed op: 16 bytes, against 64 for the
/// engine's `Op` and `OpResult`, so the log adds little to the peak RSS
/// the benchmark reports.
struct LoggedOp {
  uint64_t key = 0;
  /// kGet: 1 if found, else 0. kScan: `scan_hits`. Unused for writes.
  uint32_t answer = 0;
  /// kScan: the requested `scan_len`.
  uint16_t scan_len = 0;
  camal::engine::OpKind kind = camal::engine::OpKind::kGet;
};

/// Forwarding `StorageEngine`: every call goes to `inner` unchanged. The
/// shim's own per-op cost profiler windows stay empty (nothing reads them
/// through it: online racing is off in every workload).
class RecordingEngine : public camal::engine::StorageEngine {
 public:
  /// `expected_ops` sizes the op log once, so it never reallocates while
  /// the fixed op count of a round is logged.
  RecordingEngine(camal::engine::StorageEngine* inner, bool trace,
                  size_t expected_ops)
      : inner_(inner), trace_(trace) {
    log_.reserve(expected_ops);
  }

  void Put(uint64_t key, uint64_t value) override;
  void Delete(uint64_t key) override;
  bool Get(uint64_t key, uint64_t* value) override;
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<camal::lsm::Entry>* out) override;
  void ExecuteOps(const camal::engine::Op* ops, size_t count,
                  camal::engine::OpResult* results) override;
  using StorageEngine::ExecuteOps;

  void FlushMemtable() override { inner_->FlushMemtable(); }
  void Reconfigure(const camal::lsm::Options& options) override;
  void ReconfigureShard(size_t shard,
                        const camal::lsm::Options& options) override;

  size_t NumShards() const override { return inner_->NumShards(); }
  size_t ShardIndex(uint64_t key) const override {
    return inner_->ShardIndex(key);
  }
  camal::engine::ShardState ShardLifecycle(size_t shard) const override {
    return inner_->ShardLifecycle(shard);
  }
  size_t MaterializedShards() const override {
    return inner_->MaterializedShards();
  }
  void AppendResidentShards(std::vector<size_t>* out) const override {
    inner_->AppendResidentShards(out);
  }
  camal::lsm::Options ShardOptionsSnapshot(size_t shard) const override {
    return inner_->ShardOptionsSnapshot(shard);
  }
  camal::sim::DeviceSnapshot CostSnapshot() const override {
    return inner_->CostSnapshot();
  }
  camal::sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const override {
    return inner_->ShardCostSnapshot(shard);
  }
  camal::engine::EngineCounters AggregateCounters() const override {
    return inner_->AggregateCounters();
  }
  camal::engine::EngineCounters ShardCounters(size_t shard) const override {
    return inner_->ShardCounters(shard);
  }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint64_t DiskEntries() const override { return inner_->DiskEntries(); }
  uint64_t ShardEntries(size_t shard) const override {
    return inner_->ShardEntries(shard);
  }
  bool InTransition() const override { return inner_->InTransition(); }

  /// Every op that reached the engine, in execution order, with its
  /// answer.
  const std::vector<LoggedOp>& log() const { return log_; }

  /// From now on, also keeps the engine-attributed latency of every
  /// `ExecuteOps` op, with room for `expected_ops` of them.
  void KeepLatencies(size_t expected_ops) {
    keep_latencies_ = true;
    latencies_ns_.reserve(expected_ops);
  }
  const std::vector<float>& latencies_ns() const { return latencies_ns_; }

  // --- Traced counters (all zero unless tracing) --------------------------
  /// Clears the traced counters (the op log is kept).
  void ResetTrace();
  double execute_s() const { return execute_s_; }
  uint64_t execute_calls() const { return execute_calls_; }
  double batch_max_s() const { return batch_max_s_; }
  double reconfigure_s() const { return reconfigure_s_; }
  /// Puts and deletes, point and batched alike.
  uint64_t writes() const { return writes_; }
  /// Totals over `ExecuteOps` results, indexed by `engine::OpKind`.
  const std::array<KindTotals, camal::engine::kNumOpKinds>& kinds() const {
    return kinds_;
  }

 private:
  void Log(camal::engine::OpKind kind, uint64_t key, size_t scan_len,
           size_t answer);

  camal::engine::StorageEngine* inner_;
  bool trace_;
  std::vector<LoggedOp> log_;
  bool keep_latencies_ = false;
  std::vector<float> latencies_ns_;
  double execute_s_ = 0.0;
  uint64_t execute_calls_ = 0;
  double batch_max_s_ = 0.0;
  double reconfigure_s_ = 0.0;
  uint64_t writes_ = 0;
  std::array<KindTotals, camal::engine::kNumOpKinds> kinds_{};
};

/// Forwarding `BatchObserver`: every event goes to `inner` unchanged.
/// `rounds` reads the inner observer's completed-round count, so traced
/// time can be attributed to the events that ran a round.
class RecordingObserver : public camal::workload::BatchObserver {
 public:
  RecordingObserver(camal::workload::BatchObserver* inner, bool trace,
                    std::function<size_t()> rounds)
      : inner_(inner), trace_(trace), rounds_(std::move(rounds)) {}

  void OnBatchEvent(camal::engine::StorageEngine* engine,
                    const camal::workload::BatchEvent& event) override;

  uint64_t ops_observed() const { return ops_observed_; }
  /// Traced wall time of all events, and of those that completed a round.
  double busy_s() const { return busy_s_; }
  double round_s() const { return round_s_; }
  uint64_t rounds_seen() const { return rounds_seen_; }

 private:
  camal::workload::BatchObserver* inner_;
  bool trace_;
  std::function<size_t()> rounds_;
  uint64_t ops_observed_ = 0;
  double busy_s_ = 0.0;
  double round_s_ = 0.0;
  uint64_t rounds_seen_ = 0;
};

/// Ordered-set model of the key-value store (`std::set` of live keys: the
/// engine answers lookups and scans with presence and counts, not values).
/// Replaying a logged op stream through it checks every lookup's `found`
/// flag and every scan's `scan_hits` against what a correct store must
/// answer.
class Oracle {
 public:
  /// Applies `log` in order; returns how many answers disagreed and
  /// describes the first disagreement in `*first` (when non-null).
  uint64_t Replay(const std::vector<LoggedOp>& log, std::string* first);

  bool Contains(uint64_t key) const { return live_.count(key) != 0; }
  uint64_t live() const { return live_.size(); }

 private:
  std::set<uint64_t> live_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SHIM_H_
