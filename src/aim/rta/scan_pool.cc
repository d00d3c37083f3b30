#include "aim/rta/scan_pool.h"

#include <algorithm>
#include <utility>

#include "aim/common/clock.h"
#include "aim/common/logging.h"

namespace aim {

/// One executor's private view of a job: lazily-created accumulators for
/// the batch's plans plus scan scratch. Slot w belongs to pool worker w;
/// the extra slot [num_threads] belongs to the job's coordinator — no two
/// threads ever share a context, so morsel execution needs no locking
/// beyond the board's task handoff.
struct ScanPool::ExecutorContext {
  std::vector<CompiledQuery> queries;
  ScanScratch scratch;
  bool used = false;
  std::uint32_t morsels = 0;
};

struct ScanPool::Job {
  Board::JobTicket ticket;
  const ColumnMap* map = nullptr;
  const std::vector<std::shared_ptr<const QueryPlan>>* plans = nullptr;
  std::uint32_t morsel_buckets = 1;
  std::uint32_t num_buckets = 0;
  std::vector<ExecutorContext> contexts;  // workers + 1 coordinator slot
};

ScanPool::ScanPool(const Options& options)
    : board_(options.num_threads == 0 ? 1 : options.num_threads) {
  if (options.metrics != nullptr) {
    const Labels node_labels = {{"node", options.node_label}};
    morsels_total_ =
        options.metrics->GetCounter("aim_scan_morsels_total", node_labels);
    steals_total_ =
        options.metrics->GetCounter("aim_scan_steals_total", node_labels);
    worker_scan_micros_.reserve(options.num_threads);
    for (std::size_t w = 0; w < options.num_threads; ++w) {
      Labels labels = node_labels;
      labels.emplace_back("worker", std::to_string(w));
      worker_scan_micros_.push_back(options.metrics->GetHistogram(
          "aim_scan_worker_morsel_micros", std::move(labels)));
    }
  }
  workers_.reserve(options.num_threads);
  for (std::size_t w = 0; w < options.num_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ScanPool::~ScanPool() {
  board_.Stop();
  for (std::thread& t : workers_) t.join();
}

void ScanPool::ExecuteMorsel(Job* job, std::uint32_t seq,
                             ExecutorContext* ctx) {
  if (!ctx->used) {
    // First morsel this executor takes from this job: accumulators for
    // every plan (the plans themselves are shared, read-only).
    ctx->queries.reserve(job->plans->size());
    for (const std::shared_ptr<const QueryPlan>& plan : *job->plans) {
      ctx->queries.emplace_back(plan);
    }
    ctx->used = true;
  }
  ++ctx->morsels;
  const std::uint32_t first = seq * job->morsel_buckets;
  const std::uint32_t last =
      std::min(first + job->morsel_buckets, job->num_buckets);
  for (std::uint32_t b = first; b < last; ++b) {
    const ColumnMap::BucketRef bucket = job->map->bucket(b);
    for (CompiledQuery& cq : ctx->queries) {
      cq.ProcessBucket(*job->map, bucket, &ctx->scratch);
    }
  }
}

void ScanPool::WorkerLoop(std::size_t worker) {
  AtomicHistogram* hist =
      worker < worker_scan_micros_.size() ? worker_scan_micros_[worker] : nullptr;
  Board::Task task;
  std::uint64_t stolen = 0;
  while (board_.AcquireTask(worker, &task, &stolen)) {
    if (stolen != 0) {
      // relaxed: monotonic statistic, no ordering required.
      steals_.fetch_add(stolen, std::memory_order_relaxed);
      if (steals_total_ != nullptr) steals_total_->Add(stolen);
      stolen = 0;
    }
    Job* job = static_cast<Job*>(task.job->owner);
    Stopwatch timer;
    ExecuteMorsel(job, task.seq, &job->contexts[worker]);
    if (hist != nullptr) hist->Record(timer.ElapsedMicros());
    board_.CompleteTask(task.job);
  }
}

ScanPool::ScanStats ScanPool::ScanPartition(
    const ColumnMap& main,
    const std::vector<std::shared_ptr<const QueryPlan>>& plans,
    const ScanOptions& options, std::vector<PartialResult>* results) {
  Job job;
  job.map = &main;
  job.plans = &plans;
  job.morsel_buckets = std::max<std::uint32_t>(1, options.morsel_buckets);
  job.num_buckets = main.num_buckets();
  job.contexts.resize(workers_.size() + 1);
  job.ticket.owner = &job;

  const std::uint32_t num_morsels =
      (job.num_buckets + job.morsel_buckets - 1) / job.morsel_buckets;

  ScanStats stats;
  stats.morsels = num_morsels;
  // relaxed: monotonic statistic, no ordering required.
  morsels_.fetch_add(num_morsels, std::memory_order_relaxed);
  if (morsels_total_ != nullptr) morsels_total_->Add(num_morsels);

  board_.Distribute(&job.ticket, num_morsels);

  // The coordinator burns down its own job alongside the workers (and IS
  // the whole pool when there are no workers). It only takes tasks still
  // on the board; once those run out it waits for in-flight morsels.
  if (options.coordinator_participates || workers_.empty()) {
    ExecutorContext* ctx = &job.contexts[workers_.size()];
    Board::Task task;
    while (board_.AcquireJobTask(&job.ticket, &task)) {
      ExecuteMorsel(&job, task.seq, ctx);
      board_.CompleteTask(&job.ticket);
    }
  }
  // AwaitJob's acquire pairs with the workers' release CompleteTasks:
  // every context (morsel counts included) is coherent to read from here.
  board_.AwaitJob(&job.ticket);
  stats.per_executor.reserve(job.contexts.size());
  for (std::size_t c = 0; c < job.contexts.size(); ++c) {
    const std::uint32_t n = job.contexts[c].morsels;
    stats.per_executor.push_back(n);
    if (c == workers_.size()) {
      stats.executed_by_coordinator = n;
    } else {
      stats.executed_by_workers += n;
    }
  }
  AIM_DCHECK(stats.executed_by_coordinator + stats.executed_by_workers ==
             num_morsels);

  // Merge step (coordinator-owned, see header): fold every executor's
  // per-query partial into one result per query. An executor that took no
  // morsel has no accumulators and contributes nothing; if *no* executor
  // ran (empty partition), queries still produce well-formed empty
  // partials from fresh accumulators.
  results->clear();
  results->resize(plans.size());
  bool any_used = false;
  for (ExecutorContext& ctx : job.contexts) {
    if (!ctx.used) continue;
    for (std::size_t q = 0; q < plans.size(); ++q) {
      PartialResult p = ctx.queries[q].TakePartial();
      if (!any_used) {
        (*results)[q] = std::move(p);
      } else {
        (*results)[q].MergeFrom(p, plans[q]->query);
      }
    }
    any_used = true;
  }
  if (!any_used) {
    for (std::size_t q = 0; q < plans.size(); ++q) {
      (*results)[q] = CompiledQuery(plans[q]).TakePartial();
    }
  }
  return stats;
}

std::uint64_t ScanPool::steals() const {
  // relaxed: monotonic statistic, no ordering required.
  return steals_.load(std::memory_order_relaxed);
}

std::uint64_t ScanPool::morsels() const {
  // relaxed: monotonic statistic, no ordering required.
  return morsels_.load(std::memory_order_relaxed);
}

ScanPool* ScanPool::Shared() {
  static ScanPool* pool = [] {
    Options options;
    const unsigned hw = std::thread::hardware_concurrency();
    options.num_threads = hw > 1 ? hw - 1 : 0;
    return new ScanPool(options);
  }();
  return pool;
}

}  // namespace aim
