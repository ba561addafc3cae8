// serve-gateway: open-loop Poisson arrivals at a fixed absolute rate go
// through `serve::Gateway` into a 4-shard durable `FileEngine`. The mix is
// Table-2 phase 8 (read-mostly), Zipf-skewed, with tenant skew; the memory
// arbiter rides gateway batch boundaries as the observer. No engine pool
// is attached: at this rate batches hold about one op, and fanning scans
// across a pool made the loop slower and its wall time vary several-fold
// between runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "camal/memory_arbiter.h"
#include "serve/gateway.h"
#include "util/random.h"
#include "workload/tables.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eng = camal::engine;
namespace tune = camal::tune;
namespace wl = camal::workload;

constexpr size_t kShards = 4;
constexpr uint64_t kEntries = 100000;  // 12.8 MB of 128-byte entries
/// Block cache over all shards: about 40% of the 2.4 MB of run-file data.
constexpr uint64_t kCacheBytes = 1 << 20;
/// Requests per round and the fixed offered rate (requests per second of
/// the gateway's virtual clock, which advances by measured service).
constexpr size_t kRequests = 200000;
constexpr double kRatePerS = 10000.0;
/// Table-2 phase 8: 15% absent-key lookups, 75% present-key lookups, 5%
/// scans, 5% updates.
constexpr size_t kPhase = 7;
/// Zipf skew of key choice: YCSB's default Zipfian constant.
constexpr double kKeySkew = 0.99;
/// Zipf hotness of tenants over shard index (shard s gets traffic in
/// proportion to 1/(s+1)); a chosen value, not taken from a source.
constexpr double kTenantSkew = 1.0;

void RunRound(const Args& args, int index, RunResult* result) {
  Metrics m;
  tune::SystemSetup setup;
  setup.num_entries = kEntries;
  setup.num_shards = kShards;
  setup.seed = args.seed;
  setup.total_memory_bits = 16 * kEntries + 8 * kCacheBytes;
  camal::model::WorkloadSpec mix = wl::ShiftingWorkloads()[kPhase];
  mix.skew = kKeySkew;
  const tune::TuningConfig pick =
      ChooseConfig(setup, mix, 8.0 * kCacheBytes, &m);
  const camal::lsm::Options options = pick.ToOptions(setup);

  const std::string dir = args.workdir + "/serve-" + std::to_string(index);
  std::filesystem::remove_all(dir);

  // --- Set-up: engine construction + bulk load ---------------------------
  wl::KeySpace keys(setup.num_entries, setup.seed);
  FileStore store = TimedSetup(kShards, options, dir, keys, args.trace,
                               kEntries + kRequests, &m);
  RecordingEngine& rec = *store.rec;

  // --- Serving loop --------------------------------------------------------
  tune::MemoryArbiter arbiter(setup, options, kShards, tune::ArbiterOptions{});
  RecordingObserver observer(&arbiter, args.trace,
                             [&arbiter] { return arbiter.rounds(); });
  camal::serve::GatewayConfig gcfg;
  gcfg.num_tenants = kShards;
  // Unbounded queues: a stall on a busy machine shows up as latency, never
  // as a run-dependent count of shed requests.
  gcfg.admission_control = false;
  wl::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  gen_cfg.shard_skew = kTenantSkew;
  gen_cfg.num_shards = kShards;
  wl::OperationGenerator gen(mix, &keys, gen_cfg, DeriveSeed(args.seed, 1));
  camal::util::Random arrivals(DeriveSeed(args.seed, 2));
  const double gap_ns = 1e9 / kRatePerS;

  const size_t logged_before = rec.log().size();
  const eng::EngineCounters counters_before = rec.AggregateCounters();
  const camal::sim::DeviceSnapshot cost_before = rec.CostSnapshot();
  rec.ResetTrace();
  std::vector<uint64_t> ids;
  ids.reserve(kRequests);
  std::vector<camal::serve::Completion> done;
  camal::serve::GatewayStats stats;
  double generate_s = 0.0;
  double serve_s = 0.0;
  {
    camal::serve::Gateway gateway(&rec, gcfg);
    gateway.set_observer(&observer);
    double clock_ns = 0.0;
    const double t_serve = NowS();
    for (size_t i = 0; i < kRequests; ++i) {
      wl::Operation op;
      if (args.trace) {
        const double t0 = NowS();
        op = gen.Next();
        generate_s += Since(t0);
      } else {
        op = gen.Next();
      }
      clock_ns -= gap_ns * std::log(1.0 - arrivals.NextDouble());
      const eng::Op engine_op = wl::ToEngineOp(op);
      const camal::serve::SubmitResult submitted = gateway.Submit(
          static_cast<uint32_t>(rec.ShardIndex(engine_op.key)), engine_op,
          static_cast<uint64_t>(clock_ns));
      if (submitted.status == camal::serve::AdmitStatus::kAdmitted) {
        ids.push_back(submitted.id);
      } else {
        result->failed += 1;
      }
    }
    gateway.Flush();
    serve_s = Since(t_serve);
    gateway.PollCompletions(&done);
    stats = gateway.StatsSnapshot();
  }
  result->attempted += kRequests;

  m["ops_per_s"] = static_cast<double>(kRequests) / serve_s;
  std::vector<double> latency_us;
  latency_us.reserve(done.size());
  for (const camal::serve::Completion& c : done) {
    latency_us.push_back(c.TotalNs() / 1e3);
  }
  m["latency_p50_us"] = Quantile(latency_us, 0.50);
  m["latency_p99_us"] = Quantile(latency_us, 0.99);
  if (index == 0) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "serve-gateway: latency p50/p99 over %zu completions per "
                  "round",
                  latency_us.size());
    result->notes.push_back(line);
  }

  // --- Checks: completions, arbiter conservation, oracle ------------------
  // Equal sorted id lists: every admitted request completed exactly once.
  std::vector<uint64_t> completed;
  completed.reserve(done.size());
  for (const camal::serve::Completion& c : done) completed.push_back(c.id);
  std::sort(completed.begin(), completed.end());
  std::sort(ids.begin(), ids.end());
  result->Check(completed == ids,
                "serve-gateway: " + std::to_string(done.size()) +
                    " completions for " + std::to_string(ids.size()) +
                    " admitted requests");
  uint64_t ledger = 0;
  uint64_t applied = 0;
  for (size_t s = 0; s < kShards; ++s) {
    ledger += arbiter.BudgetBits(s);
    applied += rec.ShardBudgetSnapshot(s).TotalBits();
  }
  result->Check(ledger == arbiter.total_bits() &&
                    applied <= arbiter.total_bits(),
                "serve-gateway: shard budgets (ledger " +
                    std::to_string(ledger) + ", applied " +
                    std::to_string(applied) + ") do not conserve total " +
                    std::to_string(arbiter.total_bits()));
  result->Check(observer.ops_observed() == rec.log().size() - logged_before,
                "serve-gateway: the observer saw " +
                    std::to_string(observer.ops_observed()) +
                    " ops, the engine executed " +
                    std::to_string(rec.log().size() - logged_before));
  const Oracle oracle = CheckAgainstOracle(rec, result);

  // --- Per-layer metrics -----------------------------------------------------
  AddEngineMetrics(rec, counters_before, cost_before, 4096, kUserEntryBytes,
                   &m);
  m["serve.self_s"] =
      serve_s - rec.execute_s() - observer.busy_s() - generate_s;
  m["serve.batches"] = static_cast<double>(stats.batches);
  m["serve.ops_per_batch"] = stats.batches == 0
                                 ? 0.0
                                 : static_cast<double>(stats.completed) /
                                       static_cast<double>(stats.batches);
  m["serve.queue_p99_us"] = stats.queue_latency_ns.Quantile(0.99) / 1e3;
  m["workload.generate_ns"] =
      generate_s * 1e9 / static_cast<double>(kRequests);
  m["camal.arbiter.round_us"] =
      observer.rounds_seen() == 0
          ? 0.0
          : observer.round_s() * 1e6 /
                static_cast<double>(observer.rounds_seen());
  m["camal.arbiter.moves"] = static_cast<double>(arbiter.moves());

  // --- Clean close, space, timed reopen -------------------------------------
  CloseAndMeasure(&store, dir, oracle.live(), &m);
  m["engine.recovery_ms"] = TimedReopen(
      kShards, options, dir, [&](eng::FileEngine& reopened) {
        // Spot-check the reopened store against the oracle.
        uint64_t wrong = 0;
        for (uint64_t r = 0; r < 2000; ++r) {
          const uint64_t key = keys.KeyAt(r * (keys.num_keys() / 2000));
          wrong += reopened.Get(key, nullptr) != oracle.Contains(key);
          wrong += reopened.Get(key | 1, nullptr);
        }
        result->Check(wrong == 0, "serve-gateway: " + std::to_string(wrong) +
                                      " wrong lookups after reopen");
      });
  std::filesystem::remove_all(dir);
  result->rounds.push_back(std::move(m));
}

}  // namespace

RunResult RunServeGateway(const Args& args) {
  RunResult result;
  RunRounds(args.seconds, 3, [&](int i) { RunRound(args, i, &result); });
  return result;
}

}  // namespace perfbench
