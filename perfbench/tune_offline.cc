// tune-offline: CAMAL trains on the 15 Table-1 workloads at the paper's
// default x10 extrapolation on the sim backend, recommends for each, and
// the picks are evaluated against the Monkey default at full scale on
// salts not used in training. Each round also serves the uniform mix on
// the full-scale store the tuner is tuning, at the Monkey default.

#include <cmath>
#include <cstdio>
#include <vector>

#include "camal/camal_tuner.h"
#include "engine/sharded_engine.h"
#include "workload/executor.h"
#include "workload/tables.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eng = camal::engine;
namespace tune = camal::tune;
namespace wl = camal::workload;

/// Operations served on the Monkey-default store per round.
constexpr size_t kServeOps = 400000;
/// Salts of the final evaluation; training uses salts 1..#samples.
constexpr uint64_t kEvalSalt = 1000000;
/// The traced run replays every kReplayStride-th training sample.
constexpr size_t kReplayStride = 8;

tune::TunerOptions Options(const Args& args) {
  tune::TunerOptions options;
  options.extrapolation_factor = 10.0;
  // Serial sampling: the tuner's wall time then varies far less between
  // rounds than with a worker pool.
  options.threads = 1;
  options.seed = args.seed;
  return options;
}

/// The traced replay of a subset of the tuner's own samples: wall time of
/// one `Evaluator::MakeSample` each, and the sample's two halves (bulk
/// load, query execution) on a traced training-scale engine.
void ReplaySamples(const tune::CamalTuner& tuner, RunResult* result,
                   Metrics* m) {
  const tune::SystemSetup& ts = tuner.train_setup();
  const tune::Evaluator evaluator(ts);
  const std::vector<tune::Sample>& samples = tuner.samples();
  double sample_s = 0.0;
  double bulk_s = 0.0;
  double execute_s = 0.0;
  Metrics engine_sum;
  size_t n = 0;
  for (size_t i = 0; i < samples.size(); i += kReplayStride, ++n) {
    const tune::Sample& s = samples[i];
    const uint64_t salt = i + 1;  // the salt the tuner sampled it with
    double t0 = NowS();
    evaluator.MakeSample(s.workload, s.config, salt);
    sample_s += Since(t0);

    wl::KeySpace keys(ts.num_entries, ts.seed);
    eng::ShardedEngine engine(std::max<size_t>(1, ts.num_shards),
                              s.config.ToOptions(ts),
                              ts.MakeDeviceConfig(salt));
    RecordingEngine rec(&engine, /*trace=*/true,
                        ts.num_entries + ts.train_ops);
    const eng::EngineCounters before = rec.AggregateCounters();
    const camal::sim::DeviceSnapshot cost_before = rec.CostSnapshot();
    t0 = NowS();
    wl::BulkLoad(&rec, keys);
    bulk_s += Since(t0);
    wl::ExecutorConfig exec;
    exec.num_ops = ts.train_ops;
    exec.generator.scan_len = ts.scan_len;
    exec.seed = salt;
    t0 = NowS();
    wl::Execute(&rec, s.workload, exec, &keys);
    execute_s += Since(t0);
    Metrics engine_metrics;
    AddEngineMetrics(rec, before, cost_before, ts.device.block_bytes,
                     ts.entry_bytes, &engine_metrics);
    for (const auto& [name, value] : engine_metrics) engine_sum[name] += value;
    CheckAgainstOracle(rec, result);
  }
  (*m)["camal.evaluator.sample_ms"] = sample_s * 1e3 / static_cast<double>(n);
  (*m)["lsm.bulk_load_ms"] = bulk_s * 1e3 / static_cast<double>(n);
  (*m)["lsm.execute_ms"] = execute_s * 1e3 / static_cast<double>(n);
  for (const auto& [name, value] : engine_sum) {
    (*m)[name] = value / static_cast<double>(n);
  }
}

/// One round; returns the picks for the 15 training workloads.
std::vector<tune::TuningConfig> RunRound(const Args& args,
                                         RunResult* result) {
  Metrics m;
  tune::SystemSetup full;
  full.seed = args.seed;
  const tune::TunerOptions options = Options(args);
  const std::vector<camal::model::WorkloadSpec> workloads =
      wl::TrainingWorkloads();

  // --- Set-up: the tuner, and the full-scale store at the Monkey default.
  double t0 = NowS();
  tune::CamalTuner tuner(full, options);
  wl::KeySpace keys(full.num_entries, full.seed);
  eng::ShardedEngine store(1, tune::MonkeyDefaultConfig(full).ToOptions(full),
                           full.MakeDeviceConfig());
  RecordingEngine rec(&store, args.trace, full.num_entries + kServeOps);
  wl::BulkLoad(&rec, keys);
  m["setup_s"] = Since(t0);

  // --- Tuning: Train + one Recommend per training workload ---------------
  t0 = NowS();
  tuner.Train(workloads);
  m["camal.train_s"] = Since(t0);
  const double t_recommend = NowS();
  std::vector<tune::TuningConfig> picks;
  for (const camal::model::WorkloadSpec& w : workloads) {
    picks.push_back(tuner.Recommend(w));
  }
  m["camal.recommend_us"] = Since(t_recommend) * 1e6 /
                            static_cast<double>(workloads.size());
  m["tune_s"] = Since(t0);
  m["camal.samples"] = static_cast<double>(tuner.samples().size());
  m["sampling_sim_s"] = tuner.sampling_cost_ns() / 1e9;
  result->Check(tuner.sampling_cost_ns() > 0.0,
                "tune-offline: training reported no sampling cost");
  for (size_t i = 0; i < picks.size(); ++i) {
    const double bits = picks[i].mf_bits + picks[i].mb_bits + picks[i].mc_bits;
    result->Check(std::llround(bits) ==
                      static_cast<long long>(full.total_memory_bits),
                  "tune-offline: pick " + std::to_string(i) + " holds " +
                      std::to_string(bits) + " of " +
                      std::to_string(full.total_memory_bits) + " bits");
  }

  // --- Serve the uniform mix on the store, at the Monkey default ---------
  wl::ExecutorConfig exec;
  exec.num_ops = kServeOps;
  exec.generator.scan_len = full.scan_len;
  exec.seed = DeriveSeed(args.seed, 3);
  t0 = NowS();
  const wl::ExecutionResult served =
      wl::Execute(&rec, workloads[0], exec, &keys);
  m["ops_per_s"] = static_cast<double>(kServeOps) / Since(t0);
  m["latency_p50_us"] = served.latency_ns.Quantile(0.50) / 1e3;
  m["latency_p99_us"] = served.latency_ns.Quantile(0.99) / 1e3;
  m["space_amp"] = static_cast<double>(rec.TotalEntries()) /
                   static_cast<double>(keys.num_keys());
  CheckAgainstOracle(rec, result);

  if (args.trace) {
    // Model rows as the tuner fits them (latency targets in us).
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (const tune::Sample& s : tuner.samples()) {
      x.push_back(tune::RawFeatures(s.workload, s.config, s.sys));
      y.push_back(s.mean_latency_ns / 1000.0);
    }
    auto model = tune::MakeModel(options.model_kind, options.seed);
    t0 = NowS();
    model->Fit(x, y);
    m["ml.fit_ms"] = Since(t0) * 1e3;
    t0 = NowS();
    double sink = 0.0;
    for (const std::vector<double>& row : x) sink += model->Predict(row);
    m["ml.predict_us"] = Since(t0) * 1e6 / static_cast<double>(x.size());
    result->Check(std::isfinite(sink), "tune-offline: model predicts NaN");
    ReplaySamples(tuner, result, &m);
  }

  result->attempted += workloads.size() + kServeOps;
  result->rounds.push_back(std::move(m));
  return picks;
}

bool SameConfig(const tune::TuningConfig& a, const tune::TuningConfig& b) {
  return a.policy == b.policy && a.size_ratio == b.size_ratio &&
         a.mf_bits == b.mf_bits && a.mb_bits == b.mb_bits &&
         a.mc_bits == b.mc_bits && a.runs_per_level == b.runs_per_level;
}

}  // namespace

RunResult RunTuneOffline(const Args& args) {
  RunResult result;
  std::vector<tune::TuningConfig> picks;
  RunRounds(args.seconds, 3, [&](int i) {
    const std::vector<tune::TuningConfig> round_picks =
        RunRound(args, &result);
    if (i == 0) picks = round_picks;
    bool same = round_picks.size() == picks.size();
    for (size_t w = 0; same && w < picks.size(); ++w) {
      same = SameConfig(round_picks[w], picks[w]);
    }
    result.Check(same, "tune-offline: round " + std::to_string(i) +
                           " picked differently from round 0");
  });

  // --- Evaluate the picks and the Monkey default on fresh salts ----------
  tune::SystemSetup full;
  full.seed = args.seed;
  const std::vector<camal::model::WorkloadSpec> workloads =
      wl::TrainingWorkloads();
  const tune::TuningConfig monkey = tune::MonkeyDefaultConfig(full);
  std::vector<tune::EvalJob> jobs;
  for (size_t i = 0; i < workloads.size(); ++i) {
    jobs.push_back(tune::EvalJob{workloads[i], picks[i], kEvalSalt + i});
    jobs.push_back(tune::EvalJob{workloads[i], monkey, kEvalSalt + i});
  }
  const std::vector<tune::Measurement> measured =
      tune::Evaluator(full).EvaluateBatch(jobs);
  double tuned_us = 0.0;
  double tuned_ios = 0.0;
  double monkey_us = 0.0;
  for (size_t i = 0; i < workloads.size(); ++i) {
    tuned_us += measured[2 * i].mean_latency_ns / 1e3;
    tuned_ios += measured[2 * i].ios_per_op;
    monkey_us += measured[2 * i + 1].mean_latency_ns / 1e3;
  }
  const double n = static_cast<double>(workloads.size());
  result.once["tuned_sim_latency_us"] = tuned_us / n;
  result.once["tuned_sim_ios_per_op"] = tuned_ios / n;
  result.attempted += jobs.size();
  result.Check(tuned_us <= monkey_us,
               "tune-offline: tuned mean " + std::to_string(tuned_us / n) +
                   " us above Monkey's " + std::to_string(monkey_us / n));
  char note[160];
  std::snprintf(note, sizeof note,
                "tune-offline: tuned %.3f us/op vs Monkey %.3f us/op (sim)",
                tuned_us / n, monkey_us / n);
  result.notes.push_back(note);
  return result;
}

}  // namespace perfbench
