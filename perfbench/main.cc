// End-to-end benchmark entry point: runs one workload for a fixed wall
// time and prints, as its last line, one JSON object with the run's
// correctness, operation counts and every value it measured (median over
// rounds).
// `run.py` selects and labels the metrics BENCHMARK.json names.
//
//   camal_perfbench --workload <tune-offline|serve-gateway|ingest-shift>
//                   --seed <n> --seconds <s> --trace <0|1> --workdir <dir>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: camal_perfbench --workload "
               "<tune-offline|serve-gateway|ingest-shift> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");

  RunResult result;
  std::filesystem::create_directories(args.workdir);
  if (args.workload == "tune-offline") {
    result = RunTuneOffline(args);
  } else if (args.workload == "serve-gateway") {
    result = RunServeGateway(args);
  } else if (args.workload == "ingest-shift") {
    result = RunIngestShift(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::filesystem::remove_all(args.workdir);
  result.once["peak_rss_mib"] = PeakRssMib();

  // Report the median over rounds of every metric; once-per-run values win.
  Metrics report = result.once;
  for (const auto& [name, value] : result.rounds.front()) {
    (void)value;
    if (report.count(name) != 0) continue;
    std::vector<double> values;
    for (const Metrics& round : result.rounds) values.push_back(round.at(name));
    report[name] = Median(values);
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%s: %zu rounds, seed %llu, %s\n", args.workload.c_str(),
              result.rounds.size(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"values\": {";
  for (const auto& [name, value] : report) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += (json.back() == '{' ? "\"" : ", \"") + name + "\": " + number;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.check_failures.empty() ? 0 : 1;
}
