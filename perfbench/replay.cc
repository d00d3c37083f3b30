// "Replay" per-layer metrics: single-threaded calls into the ESP, storage
// and RTA layers on a standalone partition that holds the workload's own
// profiles, so each layer's cost per unit of work is measured without the
// other threads of a live node.

#include <span>
#include <vector>

#include "aim/common/hash.h"
#include "aim/common/logging.h"
#include "aim/esp/esp_engine.h"
#include "aim/rta/compiled_query.h"
#include "aim/rta/shared_scan.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/query_workload.h"
#include "bench.h"

namespace aim {
namespace perfbench {
namespace {

// Q1-Q2 aggregate, Q3-Q5 group by, Q6-Q7 top-k (workload/query_workload.cc).
int KindOf(int qnum) { return qnum <= 2 ? 0 : (qnum <= 5 ? 1 : 2); }
const char* const kKindNames[3] = {"agg", "group_by", "top_k"};

constexpr std::size_t kReplayEvents = 16384;
constexpr std::size_t kReplayBatch = 64;
constexpr int kCompileReps = 200;
constexpr int kScanReps = 5;
constexpr int kMergeReps = 50;

/// `n` events of the seeded stream whose caller lives in `partition`.
std::vector<Event> PartitionEvents(std::uint64_t entities, std::uint64_t seed,
                                   std::uint32_t partition, std::size_t n) {
  CdrGenerator::Options g;
  g.num_entities = entities;
  g.seed = seed;
  CdrGenerator gen(g);
  // Later than any live-run timestamp, so replayed events never arrive
  // out of order for a record the live stream already touched.
  Timestamp ts = 1'000'000'000;
  std::vector<Event> out;
  out.reserve(n);
  while (out.size() < n) {
    Event e = gen.Next(ts += 10);
    if (PartitionHash(e.caller, /*node_id=*/0, kPartitions) == partition) {
      out.push_back(e);
    }
  }
  return out;
}

CompiledQuery MustCompile(const Env& env, const Query& q) {
  StatusOr<CompiledQuery> cq =
      CompiledQuery::Compile(q, env.schema.get(), &env.dims.catalog);
  AIM_CHECK_MSG(cq.ok(), "compile: %s", cq.status().ToString().c_str());
  return std::move(cq).value();
}

/// One scan step plus TakePartial over `batch`, in nanoseconds.
double TimedScan(SharedScan* scan, std::vector<CompiledQuery>& batch,
                 std::vector<PartialResult>* partials) {
  for (CompiledQuery& q : batch) q.Reset();
  Stopwatch sw;
  scan->ScanStep(batch);
  partials->clear();
  for (CompiledQuery& q : batch) partials->push_back(q.TakePartial());
  return static_cast<double>(sw.ElapsedNanos());
}

}  // namespace

void ReplayLayers(const Env& env, DeltaMainStore* store,
                  std::uint32_t partition, std::uint64_t entities,
                  std::uint64_t seed, Report* report) {
  EspEngine engine(env.schema.get(), store, &env.rules, env.sys,
                   EspEngine::Options{});

  // ESP: ProcessBatch in batches of 64, then the merge of what it wrote.
  const std::vector<Event> batched =
      PartitionEvents(entities, seed * 31 + 1, partition, kReplayEvents);
  EspEngine::BatchResult result;
  std::uint64_t esp_failed = 0;
  Stopwatch batch_timer;
  for (std::size_t i = 0; i < batched.size(); i += kReplayBatch) {
    const std::size_t n = std::min(kReplayBatch, batched.size() - i);
    engine.ProcessBatch(std::span<const Event>(batched.data() + i, n),
                        &result);
    for (std::size_t k = 0; k < n; ++k) esp_failed += !result.statuses[k].ok();
  }
  const double batch_us = batch_timer.ElapsedMicros() / batched.size();
  Stopwatch merge_timer;
  store->SwitchDeltas();
  const std::size_t merged = store->MergeStep();
  const double merge_us = merge_timer.ElapsedMicros();

  // ESP: one ProcessEvent per event.
  const std::vector<Event> singles =
      PartitionEvents(entities, seed * 31 + 2, partition, kReplayEvents);
  std::vector<std::uint32_t> fired;
  Stopwatch single_timer;
  for (const Event& e : singles) {
    esp_failed += !engine.ProcessEvent(e, &fired).ok();
  }
  const double single_us = single_timer.ElapsedMicros() / singles.size();
  store->SwitchDeltas();
  store->MergeStep();
  report->attempted += batched.size() + singles.size();
  report->failed += esp_failed;

  report->Layer("esp.process_us_per_event", batch_us, "us");
  report->Layer("esp.process_us_per_event_single", single_us, "us");
  report->Layer("storage.merge_us_per_record",
                Ratio(merge_us, static_cast<double>(merged)), "us");

  // RTA: compile, scan and partial merge per query kind.
  const double records = static_cast<double>(store->main_records());
  SharedScan scan(store);
  QueryWorkload workload(env.schema.get(), &env.dims, seed * 31 + 3);
  std::vector<double> compile_us[3];
  std::vector<double> scan_ns[3];
  std::vector<double> partial_merge_us;
  std::vector<PartialResult> partials;
  std::vector<Query> per_kind;  // one query of each kind, for the batch
  for (int qnum = 1; qnum <= 7; ++qnum) {
    const Query q = workload.Make(qnum);
    const int kind = KindOf(qnum);
    if (static_cast<int>(per_kind.size()) == kind) per_kind.push_back(q);

    std::vector<double> reps;
    for (int r = 0; r < kCompileReps; ++r) {
      Stopwatch sw;
      StatusOr<CompiledQuery> cq =
          CompiledQuery::Compile(q, env.schema.get(), &env.dims.catalog);
      reps.push_back(sw.ElapsedMicros());
      AIM_CHECK(cq.ok());
    }
    compile_us[kind].push_back(Median(reps));

    std::vector<CompiledQuery> batch;
    batch.push_back(MustCompile(env, q));
    reps.clear();
    for (int r = 0; r < kScanReps; ++r) {
      reps.push_back(TimedScan(&scan, batch, &partials) / records);
    }
    scan_ns[kind].push_back(Median(reps));

    // Front-end merge of two node partials plus finalization.
    reps.clear();
    for (int r = 0; r < kMergeReps; ++r) {
      PartialResult a = partials[0];
      const PartialResult b = partials[0];
      Stopwatch sw;
      a.MergeFrom(b, q);
      QueryResult final_result =
          FinalizeResult(q, &env.dims.catalog, std::move(a));
      reps.push_back(sw.ElapsedMicros());
      AIM_CHECK(final_result.status.ok());
    }
    partial_merge_us.push_back(Median(reps));
  }
  for (int k = 0; k < 3; ++k) {
    report->Layer(std::string("rta.compile_us.") + kKindNames[k],
                  Mean(compile_us[k]), "us");
    report->Layer(std::string("rta.scan_ns_per_record.") + kKindNames[k],
                  Mean(scan_ns[k]), "ns");
  }
  report->Layer("rta.partial_merge_us", Mean(partial_merge_us), "us");

  // Shared scan: one pass for a 3-query batch against three single passes.
  std::vector<CompiledQuery> shared;
  std::vector<std::vector<CompiledQuery>> alone(per_kind.size());
  for (std::size_t i = 0; i < per_kind.size(); ++i) {
    shared.push_back(MustCompile(env, per_kind[i]));
    alone[i].push_back(MustCompile(env, per_kind[i]));
  }
  std::vector<double> shared_ns;
  std::vector<double> alone_ns;
  for (int r = 0; r < kScanReps; ++r) {
    shared_ns.push_back(TimedScan(&scan, shared, &partials));
    double sum = 0;
    for (std::vector<CompiledQuery>& one : alone) {
      sum += TimedScan(&scan, one, &partials);
    }
    alone_ns.push_back(sum);
  }
  report->Layer("rta.shared_scan_gain",
                Ratio(Median(alone_ns), Median(shared_ns)), "ratio");
}

double ScanSkew(const Env& env, const StorageNode& node, std::uint64_t seed) {
  AIM_CHECK(!node.running());
  QueryWorkload workload(env.schema.get(), &env.dims, seed * 31 + 4);
  std::vector<double> per_partition;
  std::vector<PartialResult> partials;
  for (std::uint32_t p = 0; p < node.options().num_partitions; ++p) {
    // ScanStep only reads the main; the node is stopped, so nothing else
    // touches the store.
    SharedScan scan(const_cast<DeltaMainStore*>(&node.partition(p)));
    std::vector<CompiledQuery> batch;
    for (int qnum = 1; qnum <= 7; ++qnum) {
      batch.push_back(MustCompile(env, workload.Make(qnum)));
    }
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) reps.push_back(TimedScan(&scan, batch, &partials));
    per_partition.push_back(Median(reps));
  }
  const auto [lo, hi] =
      std::minmax_element(per_partition.begin(), per_partition.end());
  return Ratio(*hi, *lo);
}

}  // namespace perfbench
}  // namespace aim
