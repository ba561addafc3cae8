#include <algorithm>
#include <memory>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/evaluator.h"
#include "workloads.h"

namespace perfbench {

namespace eng = camal::engine;
namespace tune = camal::tune;

namespace {

/// The validation of a file workload's pick: simulated measurements on
/// this many salts, of this many operations each.
constexpr uint64_t kValidationSalts = 5;
constexpr size_t kValidationOps = 20000;
/// Reopens timed per round.
constexpr int kReopens = 31;

}  // namespace

eng::FileEngineConfig DurableConfig(const std::string& dir, bool reopen) {
  eng::FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.durable = true;
  cfg.reopen = reopen;
  // WAL and manifest records are appended and group-committed at every
  // batch boundary, but not fsynced: the engine files live inside the
  // checkout, whose filesystem may be a shared disk where one fsync costs
  // 0.1-1 ms and would turn both file workloads into disk benchmarks.
  cfg.wal_sync = eng::fileio::WalSyncPolicy::kNone;
  // Buffered I/O on every filesystem: O_DIRECT sticks on some (ext4) and
  // not on others (tmpfs), which would make runs incomparable.
  cfg.try_direct_io = false;
  cfg.keep_files = true;
  return cfg;
}

void LoadInBatches(eng::StorageEngine* engine,
                   const camal::workload::KeySpace& keys) {
  constexpr size_t kBatch = 512;
  std::vector<eng::Op> ops;
  std::vector<eng::OpResult> results(kBatch);
  uint64_t value = 1;
  const std::vector<uint64_t>& all = keys.keys();
  for (size_t i = 0; i < all.size(); i += kBatch) {
    ops.clear();
    for (size_t j = i; j < std::min(all.size(), i + kBatch); ++j) {
      ops.push_back(eng::Op{eng::OpKind::kPut, all[j], value++, 0});
    }
    engine->ExecuteOps(ops.data(), ops.size(), results.data());
  }
}

tune::TuningConfig ChooseConfig(const tune::SystemSetup& setup,
                                const camal::model::WorkloadSpec& mix,
                                double cache_bits, Metrics* round) {
  const double t0 = NowS();
  tune::SystemSetup without_cache = setup;
  without_cache.total_memory_bits -= static_cast<uint64_t>(cache_bits);
  tune::ClassicTuner classic(without_cache, tune::TunerOptions{});
  tune::TuningConfig pick = classic.Recommend(mix);
  pick.mc_bits = cache_bits;
  tune::SystemSetup validation = setup;
  validation.eval_ops = kValidationOps;
  const tune::Evaluator evaluator(validation);
  double latency_ns = 0.0;
  double ios = 0.0;
  double cost_ns = 0.0;
  for (uint64_t salt = 1; salt <= kValidationSalts; ++salt) {
    const tune::Measurement m = evaluator.Evaluate(mix, pick, salt);
    latency_ns += m.mean_latency_ns / kValidationSalts;
    ios += m.ios_per_op / kValidationSalts;
    cost_ns += m.total_cost_ns;
  }
  (*round)["tune_s"] = Since(t0);
  (*round)["tuned_sim_latency_us"] = latency_ns / 1e3;
  (*round)["tuned_sim_ios_per_op"] = ios;
  (*round)["sampling_sim_s"] = cost_ns / 1e9;
  return pick;
}

FileStore TimedSetup(size_t shards, const camal::lsm::Options& options,
                     const std::string& dir,
                     const camal::workload::KeySpace& keys, bool trace,
                     size_t expected_ops, Metrics* round) {
  FileStore store;
  const double t0 = NowS();
  store.engine = std::make_unique<eng::FileEngine>(
      shards, options, DurableConfig(dir, /*reopen=*/false));
  store.rec = std::make_unique<RecordingEngine>(store.engine.get(), trace,
                                                expected_ops);
  const double t_load = NowS();
  LoadInBatches(store.rec.get(), keys);
  (*round)["workload.bulk_load_s"] = Since(t_load);
  (*round)["setup_s"] = Since(t0);
  return store;
}

void CloseAndMeasure(FileStore* store, const std::string& dir,
                     uint64_t live_keys, Metrics* round) {
  double runs = 0.0;
  for (size_t s = 0; s < store->engine->NumShards(); ++s) {
    runs += static_cast<double>(store->engine->ShardRunCount(s));
  }
  (*round)["engine.runs_at_close"] = runs;
  store->rec.reset();
  store->engine.reset();  // a clean close
  (*round)["space_amp"] = static_cast<double>(DirBytes(dir)) /
                          static_cast<double>(live_keys * kUserEntryBytes);
  (*round)["engine.durability_bytes"] = static_cast<double>(
      DirBytes(dir, [](const std::string& name) {
        return name.rfind("MANIFEST", 0) == 0 || name.rfind("WAL", 0) == 0;
      }));
}

double TimedReopen(size_t shards, const camal::lsm::Options& options,
                   const std::string& dir,
                   const std::function<void(eng::FileEngine&)>& check) {
  std::vector<double> ms;
  for (int i = 0; i < kReopens; ++i) {
    const double t0 = NowS();
    eng::FileEngine reopened(shards, options, DurableConfig(dir, true));
    ms.push_back(Since(t0) * 1e3);
    if (i + 1 == kReopens) check(reopened);
  }
  return Median(ms);
}

void AddEngineMetrics(const RecordingEngine& rec,
                      const eng::EngineCounters& before,
                      const camal::sim::DeviceSnapshot& cost_before,
                      uint64_t block_bytes, uint64_t user_entry_bytes,
                      Metrics* round) {
  Metrics& m = *round;
  const auto& k = rec.kinds();
  const KindTotals& get = k[static_cast<size_t>(eng::OpKind::kGet)];
  const KindTotals& put = k[static_cast<size_t>(eng::OpKind::kPut)];
  const KindTotals& del = k[static_cast<size_t>(eng::OpKind::kDelete)];
  const KindTotals& scan = k[static_cast<size_t>(eng::OpKind::kScan)];
  auto per = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  m["engine.execute_ops_s"] = rec.execute_s();
  m["engine.execute_ops_calls"] = static_cast<double>(rec.execute_calls());
  m["engine.batch_max_ms"] = rec.batch_max_s() * 1e3;
  m["engine.reconfigure_ms"] = rec.reconfigure_s() * 1e3;
  m["engine.get_service_us"] = per(get.latency_ns / 1e3, get.ops);
  m["engine.ios_per_get"] = per(static_cast<double>(get.ios), get.ops);
  m["engine.scan_service_us"] = per(scan.latency_ns / 1e3, scan.ops);
  m["engine.ios_per_scan"] = per(static_cast<double>(scan.ios), scan.ops);
  m["engine.put_service_us"] = per(put.latency_ns / 1e3, put.ops);
  m["engine.ios_per_write"] =
      per(static_cast<double>(put.ios + del.ios), put.ops + del.ops);

  const eng::EngineCounters after = rec.AggregateCounters();
  m["engine.flushes"] = static_cast<double>(after.flushes - before.flushes);
  m["engine.compaction_blocks_read"] = static_cast<double>(
      after.compaction_block_reads - before.compaction_block_reads);
  m["engine.compaction_blocks_written"] = static_cast<double>(
      after.compaction_block_writes - before.compaction_block_writes);
  const uint64_t blocks_written =
      rec.CostSnapshot().block_writes - cost_before.block_writes;
  m["engine.write_amp"] =
      per(static_cast<double>(blocks_written * block_bytes),
          rec.writes() * user_entry_bytes);
}

Oracle CheckAgainstOracle(const RecordingEngine& rec, RunResult* result) {
  Oracle oracle;
  std::string first;
  const uint64_t bad = oracle.Replay(rec.log(), &first);
  result->Check(bad == 0, std::to_string(bad) +
                              " results disagree with the oracle; first: " +
                              first);
  return oracle;
}

}  // namespace perfbench
