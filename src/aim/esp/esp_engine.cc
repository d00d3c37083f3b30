#include "aim/esp/esp_engine.h"

#include <cstring>

#include "aim/common/logging.h"
#include "aim/schema/record.h"

namespace aim {

EspEngine::EspEngine(const Schema* schema, DeltaMainStore* store,
                     const std::vector<Rule>* rules, const SystemAttrs& sys,
                     const Options& options)
    : schema_(schema),
      store_(store),
      rules_(rules),
      sys_(sys),
      options_(options),
      program_(*schema, sys.preferred_number),
      rule_program_(*schema, *rules),
      row_buf_(schema->record_size(), 0) {
  set_use_rule_index(options.use_rule_index);
  if (options.keep_event_archive) {
    EventArchive::Options aopts;
    aopts.retention_ms = options.archive_retention_ms;
    archive_ = std::make_unique<EventArchive>(aopts);
  }

  MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  const Labels& labels = options_.metric_labels;
  events_ = metrics->GetCounter("aim_esp_events_total", labels);
  txn_conflicts_ = metrics->GetCounter("aim_esp_txn_conflicts_total", labels);
  rules_fired_ = metrics->GetCounter("aim_esp_rules_fired_total", labels);
  rules_suppressed_ =
      metrics->GetCounter("aim_esp_rules_suppressed_total", labels);
  rule_predicates_ =
      metrics->GetCounter("aim_esp_rule_predicates_total", labels);
  entities_created_ =
      metrics->GetCounter("aim_esp_entities_created_total", labels);
}

void EspEngine::set_use_rule_index(bool use) {
  options_.use_rule_index = use;
  if (use && rule_index_ == nullptr) {
    rule_index_ = std::make_unique<RuleIndex>(rules_);
  }
}

void EspEngine::FlushPredicates() {
  if (pending_predicates_ == 0) return;
  rule_predicates_->Add(pending_predicates_);
  pending_predicates_ = 0;
}

EspEngine::Stats EspEngine::stats() const {
  Stats s;
  s.events_processed = events_->Value();
  s.txn_conflicts = txn_conflicts_->Value();
  s.rules_fired = rules_fired_->Value();
  s.rules_suppressed = rules_suppressed_->Value();
  s.entities_created = entities_created_->Value();
  return s;
}

void EspEngine::InitFreshRecord(EntityId entity, const Event& event) {
  std::memset(row_buf_.data(), 0, row_buf_.size());
  RecordView rec(schema_, row_buf_.data());
  if (sys_.entity_id != kInvalidAttr) {
    rec.SetAs<std::uint64_t>(sys_.entity_id, entity);
  }
}

Status EspEngine::ProcessEvent(const Event& event,
                               std::vector<std::uint32_t>* fired) {
  const Status status = ProcessOne(event, fired);
  FlushPredicates();
  return status;
}

void EspEngine::ProcessBatch(std::span<const Event> events,
                             BatchResult* result) {
  const std::size_t n = events.size();
  result->Reset(n);
  const std::size_t d =
      options_.prefetch_distance > 0
          ? static_cast<std::size_t>(options_.prefetch_distance)
          : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d > 0) {
      // Two-stage group prefetch: warm the hash-index probe chain for the
      // event d ahead, and the record bytes (whose address the now-warm
      // index makes cheap to compute) for the next event. Hints only —
      // the transaction below never depends on them.
      if (i + d < n) store_->PrefetchIndex(events[i + d].caller);
      if (i + 1 < n) {
        store_->PrefetchRecord(events[i + 1].caller,
                               options_.prefetch_main_lines);
      }
    }
    result->statuses[i] = ProcessOne(events[i], &result->fired[i]);
  }
  FlushPredicates();
}

Status EspEngine::ProcessOne(const Event& event,
                             std::vector<std::uint32_t>* fired) {
  if (fired != nullptr) fired->clear();
  store_->EspCheckpoint();

  const EntityId entity = event.caller;
  Status result;
  bool updated = false;
  for (int attempt = 0; attempt < options_.max_txn_retries; ++attempt) {
    Version version = 0;
    Status get = store_->Get(entity, row_buf_.data(), &version);
    bool fresh = false;
    if (get.IsNotFound()) {
      if (!options_.create_missing_entities) return get;
      InitFreshRecord(entity, event);
      fresh = true;
    } else if (!get.ok()) {
      return get;
    }

    // Algorithm 1, steps 4-5: every attribute group's compiled update
    // function is applied to the record.
    program_.Apply(event, row_buf_.data());
    RecordView rec(schema_, row_buf_.data());
    if (sys_.last_event_ts != kInvalidAttr) {
      rec.SetAs<std::int64_t>(sys_.last_event_ts, event.timestamp);
    }

    Status put = fresh ? store_->Insert(entity, row_buf_.data())
                       : store_->Put(entity, row_buf_.data(), version);
    if (put.ok()) {
      if (fresh) entities_created_->Add();
      updated = true;
      break;
    }
    if (put.IsConflict()) {
      // Conditional write lost: restart the single-row transaction.
      txn_conflicts_->Add();
      continue;
    }
    return put;
  }
  if (!updated) {
    return Status::Conflict("single-row transaction retries exhausted");
  }
  events_->Add();
  if (archive_ != nullptr) archive_->Append(event);

  // Business rule evaluation against the event and the updated record.
  if (!rules_->empty()) {
    ConstRecordView rec(schema_, row_buf_.data());
    if (options_.use_rule_index) {
      rule_index_->EvaluatePositions(event, rec, &index_scratch_,
                                     &matched_buf_);
    } else {
      pending_predicates_ +=
          rule_program_.Evaluate(event, rec, &matched_buf_);
    }
    const std::size_t before = matched_buf_.size();
    policy_tracker_.Filter(rule_program_.rule_ids(),
                           rule_program_.policies(), entity,
                           event.timestamp, &matched_buf_);
    rules_suppressed_->Add(before - matched_buf_.size());
    rules_fired_->Add(matched_buf_.size());
    if (fired != nullptr) {
      fired->assign(matched_buf_.begin(), matched_buf_.end());
    }
  }
  return Status::OK();
}

}  // namespace aim
