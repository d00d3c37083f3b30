// aim_perfbench — the AIM benchmark driver (run it through run.py).
//
//   aim_perfbench --workload <htap_200k|htap_10k|ingest_durable>
//                 --seed N --seconds S --trace <0|1>
//                 [--entities N] [--plant oracle|digest]
//                 [--work-dir DIR] [--out-dir DIR]
//
// Prints human-readable provenance and tables first, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
// Exits 1 when any answer or digest check fails.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "aim/common/logging.h"
#include "aim/rta/simd.h"
#include "aim/workload/benchmark_schema.h"
#include "aim/workload/rules_generator.h"
#include "bench.h"

namespace aim {
namespace perfbench {

Env MakeEnv() {
  Env env;
  env.schema = MakeBenchmarkSchema();
  env.dims = MakeBenchmarkDims();
  RulesGeneratorOptions ropts;
  ropts.num_rules = kRules;
  env.rules = MakeBenchmarkRules(*env.schema, ropts);
  env.sys.entity_id = env.schema->FindAttribute("entity_id");
  env.sys.last_event_ts = env.schema->FindAttribute("last_event_ts");
  env.sys.preferred_number = env.schema->FindAttribute("preferred_number");
  return env;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::vector<double> SpanLog::DurationsMicros(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_nanos - s.start_nanos) / 1e3);
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"request\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_nanos),
                 static_cast<long long>(s.end_nanos));
  }
  return std::fclose(f) == 0;
}

namespace {

bool MakeDirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string prefix = path.substr(0, i);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "aim_perfbench: %s\nusage: aim_perfbench --workload "
               "<htap_200k|htap_10k|ingest_durable> --seed N --seconds S "
               "--trace <0|1> [--entities N] "
               "[--plant oracle|digest] [--work-dir DIR] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--entities") {
      a.entities = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--plant") {
      a.plant = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (!a.plant.empty() && a.plant != "oracle" && a.plant != "digest") {
    Usage("--plant takes oracle or digest");
  }
  return a;
}

const char* GitShaOrUnknown() {
  const char* sha = std::getenv("AIM_PERFBENCH_GIT_SHA");
  return sha != nullptr && *sha != '\0' ? sha : "unknown";
}

void PrintJsonMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace aim

int main(int argc, char** argv) {
  using namespace aim::perfbench;
  const Args args = ParseArgs(argc, argv);

  std::uint64_t entities = 0;
  double eps = 0;
  if (args.workload == "htap_200k") {
    entities = 200000;
    eps = 5000;
  } else if (args.workload == "htap_10k") {
    entities = 10000;
    eps = 2000;
  } else if (args.workload == "ingest_durable") {
    entities = 20000;
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.entities != 0) entities = args.entities;
  if (!MakeDirs(args.work_dir) || !MakeDirs(args.out_dir)) {
    std::fprintf(stderr, "aim_perfbench: cannot create %s or %s\n",
                 args.work_dir.c_str(), args.out_dir.c_str());
    return 2;
  }

  std::printf(
      "provenance {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"host_cores\": %u, \"simd_tier\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"entities\": %llu, "
      "\"offered_eps\": %g, \"nodes\": 1, \"partitions\": %u, "
      "\"esp_threads\": %u, \"rules\": %zu, \"query_clients\": %d}\n",
      GitShaOrUnknown(), AIM_PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(),
      aim::simd::SimdLevelName(aim::simd::ActiveLevel()),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      static_cast<unsigned long long>(entities), eps, kPartitions,
      kEspThreads, kRules, kQueryClients);
  std::fflush(stdout);

  Report report;
  if (eps > 0) {
    RunHtap(args, entities, eps, &report);
  } else {
    RunIngestDurable(args, entities, &report);
  }

  if (args.trace) {
    PrintTable("per-layer metrics (traced run)", report.layers);
  } else {
    PrintTable("end-to-end metrics", report.end_to_end);
  }
  for (const std::string& m : report.mismatches) {
    std::printf("MISMATCH %s\n", m.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintJsonMetrics(args.trace ? report.layers : report.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
