#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>

#include "bench_util.h"
#include "camal/sample.h"
#include "engine/file_engine.h"
#include "model/workload_spec.h"
#include "shim.h"
#include "workload/generator.h"

namespace perfbench {

/// The three workloads; each runs whole rounds for `args.seconds`.
RunResult RunTuneOffline(const Args& args);
RunResult RunServeGateway(const Args& args);
RunResult RunIngestShift(const Args& args);

// --- Shared by the two file workloads -------------------------------------

/// Bytes a user stores per `FileEngine` entry: an 8-byte key and an
/// 8-byte value. Space and write amplification of the file workloads are
/// measured against it.
inline constexpr uint64_t kUserEntryBytes = 16;

/// Durable `FileEngine` settings both file workloads use: manifest + WAL
/// group-committed per batch without fsync (`kNone`), buffered I/O, files
/// kept at close so the store can be reopened.
camal::engine::FileEngineConfig DurableConfig(const std::string& dir,
                                              bool reopen);

/// Loads every key of `keys` (values 1, 2, ... in key order, as
/// `workload::BulkLoad` does) through `ExecuteOps` batches, so the WAL
/// group-commits once per batch instead of once per key.
void LoadInBatches(camal::engine::StorageEngine* engine,
                   const camal::workload::KeySpace& keys);

/// The configuration step every file workload starts with: the classic
/// tuner splits `setup`'s memory budget minus `cache_bits` for `mix`, the
/// block cache gets `cache_bits`, and simulated measurements at `setup`'s
/// scale validate the pick. Adds `tune_s`,
/// `tuned_sim_latency_us`, `tuned_sim_ios_per_op` and `sampling_sim_s` to
/// `*round` and returns the pick.
camal::tune::TuningConfig ChooseConfig(const camal::tune::SystemSetup& setup,
                                       const camal::model::WorkloadSpec& mix,
                                       double cache_bits, Metrics* round);

/// A durable `FileEngine` and the recording shim in front of it.
struct FileStore {
  std::unique_ptr<camal::engine::FileEngine> engine;
  std::unique_ptr<RecordingEngine> rec;
};

/// The timed set-up of a file workload: builds a durable `FileEngine` in
/// `dir` and loads `keys` through a `RecordingEngine` sized for
/// `expected_ops`. Sets `setup_s` (construction + load) and
/// `workload.bulk_load_s` in `*round`.
FileStore TimedSetup(size_t shards, const camal::lsm::Options& options,
                     const std::string& dir,
                     const camal::workload::KeySpace& keys, bool trace,
                     size_t expected_ops, Metrics* round);

/// Sums `ShardRunCount` into `engine.runs_at_close`, closes the store
/// cleanly, and measures what the close left in `dir`: `space_amp`
/// (bytes of all files / (`live_keys` x 16 bytes)) and
/// `engine.durability_bytes` (MANIFEST and WAL files).
void CloseAndMeasure(FileStore* store, const std::string& dir,
                     uint64_t live_keys, Metrics* round);

/// Reopens the clean-closed durable store in `dir` several times and
/// returns the median wall time of the reopening constructor, in ms. The
/// last reopened engine is handed to `check` before it closes.
double TimedReopen(size_t shards, const camal::lsm::Options& options,
                   const std::string& dir,
                   const std::function<void(camal::engine::FileEngine&)>&
                       check);

/// Engine-layer per-layer metrics of one measured section: the shim's
/// traced timers and per-kind totals, plus flush/compaction counters
/// diffed against `before`. Write amplification is block bytes written per
/// `user_entry_bytes` of each put or delete.
void AddEngineMetrics(const RecordingEngine& rec,
                      const camal::engine::EngineCounters& before,
                      const camal::sim::DeviceSnapshot& cost_before,
                      uint64_t block_bytes, uint64_t user_entry_bytes,
                      Metrics* round);

/// Replays the shim's log through a fresh oracle; records a check
/// failure on any disagreement. Returns the oracle.
Oracle CheckAgainstOracle(const RecordingEngine& rec, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
