// ingest-shift: closed-loop `DynamicTuner::RunPhase` through the
// write-heavy arc of Table 2 (writes rise from 45% to 91% and fall back)
// on a 4-shard durable `FileEngine`. Writes insert new keys, so the data
// grows about threefold; shift detectors retune shards with the classic
// tuner. Each round ends with a clean close and a timed reopen.

#include <filesystem>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/dynamic_tuner.h"
#include "workload/tables.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eng = camal::engine;
namespace tune = camal::tune;
namespace wl = camal::workload;

constexpr size_t kShards = 4;
constexpr uint64_t kEntries = 40000;
/// Table-2 phases 18..24: writes 45, 60, 75, 91, 75, 60, 45 percent.
constexpr size_t kFirstPhase = 17;
constexpr size_t kPhaseOps = 20000;

/// Looks up `keys` on `engine` in batches; returns how many were found.
uint64_t CountFound(eng::StorageEngine* engine,
                    const std::vector<uint64_t>& keys) {
  constexpr size_t kBatch = 4096;
  std::vector<eng::Op> ops;
  std::vector<eng::OpResult> results(kBatch);
  uint64_t found = 0;
  for (size_t i = 0; i < keys.size(); i += kBatch) {
    ops.clear();
    for (size_t j = i; j < std::min(keys.size(), i + kBatch); ++j) {
      ops.push_back(eng::Op{eng::OpKind::kGet, keys[j], 0, 0});
    }
    engine->ExecuteOps(ops.data(), ops.size(), results.data());
    for (size_t j = 0; j < ops.size(); ++j) found += results[j].found;
  }
  return found;
}

void RunRound(const Args& args, int index, RunResult* result) {
  Metrics m;
  tune::SystemSetup setup;
  setup.num_entries = kEntries;
  setup.num_shards = kShards;
  setup.seed = args.seed;
  setup.total_memory_bits = 16 * kEntries;
  const std::vector<camal::model::WorkloadSpec> all = wl::ShiftingWorkloads();
  const std::vector<camal::model::WorkloadSpec> phases(
      all.begin() + kFirstPhase, all.end());
  const tune::TuningConfig pick = ChooseConfig(setup, phases[0], 0.0, &m);
  const camal::lsm::Options options = pick.ToOptions(setup);

  const std::string dir = args.workdir + "/ingest-" + std::to_string(index);
  std::filesystem::remove_all(dir);

  // --- Set-up: engine construction + bulk load ---------------------------
  wl::KeySpace keys(setup.num_entries, setup.seed);
  FileStore store = TimedSetup(kShards, options, dir, keys, args.trace,
                               kEntries + phases.size() * kPhaseOps, &m);
  RecordingEngine& rec = *store.rec;

  // --- Dynamic phases --------------------------------------------------------
  const tune::ClassicTuner classic(setup, tune::TunerOptions{});
  tune::DynamicTuner dynamic(
      [&classic](const camal::model::WorkloadSpec& w,
                 const camal::model::SystemParams& target) {
        return classic.RecommendFor(w, target);
      },
      setup, tune::DynamicTuner::Params{});
  const eng::EngineCounters counters_before = rec.AggregateCounters();
  const camal::sim::DeviceSnapshot cost_before = rec.CostSnapshot();
  rec.ResetTrace();
  rec.KeepLatencies(phases.size() * kPhaseOps);
  const double t_loop = NowS();
  for (size_t p = 0; p < phases.size(); ++p) {
    dynamic.RunPhase(&rec, &keys, phases[p], kPhaseOps,
                     DeriveSeed(args.seed, 100 + p));
  }
  const double loop_s = Since(t_loop);
  const size_t ops = phases.size() * kPhaseOps;
  result->attempted += ops;
  m["ops_per_s"] = static_cast<double>(ops) / loop_s;
  std::vector<double> latency_us;
  latency_us.reserve(ops);
  for (const float ns : rec.latencies_ns()) latency_us.push_back(ns / 1e3);
  m["latency_p50_us"] = Quantile(latency_us, 0.50);
  m["latency_p99_us"] = Quantile(latency_us, 0.99);
  m["camal.dynamic.self_s"] = loop_s - rec.execute_s() - rec.reconfigure_s();
  m["camal.dynamic.reconfigurations"] =
      static_cast<double>(dynamic.reconfigurations());
  AddEngineMetrics(rec, counters_before, cost_before, 4096, kUserEntryBytes,
                   &m);
  const Oracle oracle = CheckAgainstOracle(rec, result);

  // --- Clean close, space, timed reopen, recovered contents ---------------
  CloseAndMeasure(&store, dir, oracle.live(), &m);
  m["engine.recovery_ms"] = TimedReopen(
      kShards, options, dir, [&](eng::FileEngine& reopened) {
        std::vector<uint64_t> absent_keys;
        absent_keys.reserve(keys.num_keys());
        for (uint64_t key : keys.keys()) absent_keys.push_back(key | 1);
        const uint64_t present = CountFound(&reopened, keys.keys());
        const uint64_t absent = CountFound(&reopened, absent_keys);
        result->Check(present == keys.num_keys() && absent == 0,
                      "ingest-shift: after reopen " + std::to_string(present) +
                          " of " + std::to_string(keys.num_keys()) +
                          " keys found, " + std::to_string(absent) +
                          " absent keys found");
        result->Check(reopened.TotalEntries() == oracle.live() &&
                          oracle.live() == keys.num_keys(),
                      "ingest-shift: reopened store holds " +
                          std::to_string(reopened.TotalEntries()) +
                          " entries, oracle " + std::to_string(oracle.live()) +
                          ", key space " + std::to_string(keys.num_keys()));
      });
  std::filesystem::remove_all(dir);
  result->rounds.push_back(std::move(m));
}

}  // namespace

RunResult RunIngestShift(const Args& args) {
  RunResult result;
  RunRounds(args.seconds, 3, [&](int i) { RunRound(args, i, &result); });
  return result;
}

}  // namespace perfbench
