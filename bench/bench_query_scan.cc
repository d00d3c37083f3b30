// bench_query_scan — per-query cost of the RTA scan path: compile time and
// scan nanoseconds per record for each of the seven benchmark queries
// (Q1-Q7) over one partition, single-threaded. The partition holds
// `entities` benchmark profiles, updated by `events` CDR events through the
// ESP engine and merged into the main, so the indicators the queries filter,
// group and rank on carry workload values.
//
// Flags: --entities=N (100000) --events=N (2 x entities) --seed=S (1)
//        --reps=R (7; the median rep is reported)

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "aim/common/clock.h"
#include "aim/esp/esp_engine.h"
#include "aim/rta/compiled_query.h"
#include "aim/workload/cdr_generator.h"
#include "bench_common.h"

using namespace aim;
using namespace aim::bench;

namespace {

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t entities = FlagUint(argc, argv, "entities", 100000);
  const std::uint64_t events = FlagUint(argc, argv, "events", 2 * entities);
  const std::uint64_t seed = FlagUint(argc, argv, "seed", 1);
  const int reps = static_cast<int>(FlagUint(argc, argv, "reps", 7));

  WorkloadSetup s = MakeSetup();
  DeltaMainStore::Options sopts;
  sopts.max_records = entities + 4096;
  DeltaMainStore store(s.schema.get(), sopts);
  std::vector<std::uint8_t> row(s.schema->record_size(), 0);
  for (EntityId e = 1; e <= entities; ++e) {
    std::fill(row.begin(), row.end(), 0);
    PopulateEntityProfile(*s.schema, s.dims, e, entities, row.data());
    AIM_CHECK(store.BulkInsert(e, row.data()).ok());
  }

  SystemAttrs sys;
  sys.entity_id = s.schema->FindAttribute("entity_id");
  sys.last_event_ts = s.schema->FindAttribute("last_event_ts");
  sys.preferred_number = s.schema->FindAttribute("preferred_number");
  EspEngine engine(s.schema.get(), &store, &s.rules, sys,
                   EspEngine::Options{});
  CdrGenerator::Options gopts;
  gopts.num_entities = entities;
  gopts.seed = seed;
  CdrGenerator gen(gopts);
  std::vector<Event> batch;
  EspEngine::BatchResult result;
  Timestamp ts = 1'000'000;
  for (std::uint64_t done = 0; done < events;) {
    batch.clear();
    for (; batch.size() < 256 && done < events; ++done) {
      batch.push_back(gen.Next(ts += 10));
    }
    engine.ProcessBatch(std::span<const Event>(batch), &result);
    if (store.delta_size() > 4096) store.Merge();
  }
  store.Merge();

  const ColumnMap& main = store.main();
  const double records = static_cast<double>(main.num_records());
  std::printf("query  compile_us  scan_ns_per_record  (%llu records, %d reps)\n",
              static_cast<unsigned long long>(main.num_records()), reps);
  QueryWorkload workload(s.schema.get(), &s.dims, seed * 31 + 3);
  ScanScratch scratch;
  for (int qnum = 1; qnum <= 7; ++qnum) {
    const Query q = workload.Make(qnum);
    std::vector<double> compile_us;
    for (int r = 0; r < 200; ++r) {
      Stopwatch sw;
      StatusOr<CompiledQuery> cq =
          CompiledQuery::Compile(q, s.schema.get(), &s.dims.catalog);
      compile_us.push_back(sw.ElapsedMicros());
      AIM_CHECK(cq.ok());
    }
    CompiledQuery cq =
        *CompiledQuery::Compile(q, s.schema.get(), &s.dims.catalog);
    std::vector<double> scan_ns;
    for (int r = 0; r < reps; ++r) {
      cq.Reset();
      Stopwatch sw;
      for (std::uint32_t b = 0; b < main.num_buckets(); ++b) {
        cq.ProcessBucket(main, main.bucket(b), &scratch);
      }
      const PartialResult partial = cq.TakePartial();
      scan_ns.push_back(static_cast<double>(sw.ElapsedNanos()) / records);
      AIM_CHECK(partial.query_id == q.id);
    }
    std::printf("Q%d     %10.2f  %18.2f\n", qnum, MedianOf(compile_us),
                MedianOf(scan_ns));
  }
  return 0;
}
