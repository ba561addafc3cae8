#include "shim.h"

#include <algorithm>

#include "bench_util.h"

namespace perfbench {

using camal::engine::Op;
using camal::engine::OpKind;
using camal::engine::OpResult;

void RecordingEngine::Log(OpKind kind, uint64_t key, size_t scan_len,
                          size_t answer) {
  LoggedOp op;
  op.key = key;
  op.answer = static_cast<uint32_t>(answer);
  // Scans longer than the field can hold are logged as 0, which the
  // oracle then flags instead of checking a truncated length.
  op.scan_len = scan_len <= UINT16_MAX ? static_cast<uint16_t>(scan_len) : 0;
  op.kind = kind;
  log_.push_back(op);
}

void RecordingEngine::Put(uint64_t key, uint64_t value) {
  inner_->Put(key, value);
  if (trace_) writes_ += 1;
  Log(OpKind::kPut, key, 0, 0);
}

void RecordingEngine::Delete(uint64_t key) {
  inner_->Delete(key);
  if (trace_) writes_ += 1;
  Log(OpKind::kDelete, key, 0, 0);
}

bool RecordingEngine::Get(uint64_t key, uint64_t* value) {
  const bool found = inner_->Get(key, value);
  Log(OpKind::kGet, key, 0, found);
  return found;
}

size_t RecordingEngine::Scan(uint64_t start_key, size_t max_entries,
                             std::vector<camal::lsm::Entry>* out) {
  const size_t hits = inner_->Scan(start_key, max_entries, out);
  Log(OpKind::kScan, start_key, max_entries, hits);
  return hits;
}

void RecordingEngine::ExecuteOps(const Op* ops, size_t count,
                                 OpResult* results) {
  if (!trace_) {
    inner_->ExecuteOps(ops, count, results);
  } else {
    const double t0 = NowS();
    inner_->ExecuteOps(ops, count, results);
    const double dt = Since(t0);
    execute_s_ += dt;
    execute_calls_ += 1;
    batch_max_s_ = std::max(batch_max_s_, dt);
    for (size_t i = 0; i < count; ++i) {
      KindTotals& k = kinds_[static_cast<size_t>(ops[i].kind)];
      k.ops += 1;
      k.ios += results[i].ios;
      k.latency_ns += results[i].latency_ns;
      writes_ += ops[i].kind == OpKind::kPut || ops[i].kind == OpKind::kDelete;
    }
  }
  for (size_t i = 0; i < count; ++i) {
    Log(ops[i].kind, ops[i].key, ops[i].scan_len,
        ops[i].kind == OpKind::kScan ? results[i].scan_hits
                                     : static_cast<size_t>(results[i].found));
    if (keep_latencies_) {
      latencies_ns_.push_back(static_cast<float>(results[i].latency_ns));
    }
  }
}

void RecordingEngine::Reconfigure(const camal::lsm::Options& options) {
  const double t0 = trace_ ? NowS() : 0.0;
  inner_->Reconfigure(options);
  if (trace_) reconfigure_s_ += Since(t0);
}

void RecordingEngine::ReconfigureShard(size_t shard,
                                       const camal::lsm::Options& options) {
  const double t0 = trace_ ? NowS() : 0.0;
  inner_->ReconfigureShard(shard, options);
  if (trace_) reconfigure_s_ += Since(t0);
}

void RecordingEngine::ResetTrace() {
  execute_s_ = 0.0;
  execute_calls_ = 0;
  batch_max_s_ = 0.0;
  reconfigure_s_ = 0.0;
  writes_ = 0;
  kinds_ = {};
}

void RecordingObserver::OnBatchEvent(
    camal::engine::StorageEngine* engine,
    const camal::workload::BatchEvent& event) {
  ops_observed_ += event.count;
  if (!trace_) {
    inner_->OnBatchEvent(engine, event);
    return;
  }
  const size_t rounds_before = rounds_();
  const double t0 = NowS();
  inner_->OnBatchEvent(engine, event);
  const double dt = Since(t0);
  busy_s_ += dt;
  if (rounds_() != rounds_before) {
    round_s_ += dt;
    rounds_seen_ += 1;
  }
}

uint64_t Oracle::Replay(const std::vector<LoggedOp>& log,
                        std::string* first) {
  uint64_t mismatches = 0;
  auto report = [&](size_t i, const std::string& what) {
    if (mismatches++ == 0 && first != nullptr) {
      *first = "op " + std::to_string(i) + " key " +
               std::to_string(log[i].key) + ": " + what;
    }
  };
  for (size_t i = 0; i < log.size(); ++i) {
    const LoggedOp& op = log[i];
    switch (op.kind) {
      case OpKind::kPut:
        live_.insert(op.key);
        break;
      case OpKind::kDelete:
        live_.erase(op.key);
        break;
      case OpKind::kGet: {
        const bool want = live_.count(op.key) != 0;
        if ((op.answer != 0) != want) {
          report(i, want ? "live key not found" : "absent key found");
        }
        break;
      }
      case OpKind::kScan: {
        if (op.scan_len == 0) {
          report(i, "scan length not logged");
          break;
        }
        size_t want = 0;
        for (auto it = live_.lower_bound(op.key);
             it != live_.end() && want < op.scan_len; ++it) {
          ++want;
        }
        if (op.answer != want) {
          report(i, "scan_hits " + std::to_string(op.answer) + ", oracle " +
                        std::to_string(want));
        }
        break;
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
