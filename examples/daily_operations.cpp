// Daily operations walkthrough: watch the deployed classification system
// live through a multi-day trace — daily 05:00 retraining, per-day
// classifier quality, the history table correcting mistakes, and the final
// decision tree in human-readable form.
//
// With --checkpoint-dir=DIR the run becomes restartable: an existing
// checkpoint in DIR is validated and restored before the simulation
// (corrupt generations fall back previous -> cold start), and the final
// classifier state is persisted crash-safely on exit — rerun the binary to
// see day 0 start warm with the previous run's tree.
#include <iostream>
#include <optional>

#include "core/checkpoint.h"
#include "core/shard_engine.h"
#include "obs/report.h"
#include "trace/trace_generator.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace otac;

  const FlagParser flags{argc, argv};
  const std::string checkpoint_dir =
      flags.get("checkpoint-dir", std::string{});
  const std::string metrics_out = flags.get("metrics-out", std::string{});

  WorkloadConfig workload;
  workload.seed = 11;
  workload.num_owners = 3'000;
  workload.num_photos = 60'000;
  const Trace trace = TraceGenerator{workload}.generate();
  const IntelligentCache system{trace};

  // A cache of ~1.5% of the dataset; the engine derives the criteria from
  // a plain-LRU hit-rate estimate at that capacity.
  double dataset_bytes = 0.0;
  for (const auto& photo : trace.catalog.photos()) {
    dataset_bytes += photo.size_bytes;
  }
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = static_cast<std::uint64_t>(dataset_bytes * 0.015);
  config.mode = AdmissionMode::proposal;
  ShardEngine engine{system, config};

  const RunResult setup = engine.totals();
  const CriteriaResult& criteria = setup.criteria;
  std::cout << "criteria: M = " << TablePrinter::fmt(criteria.m, 0)
            << " requests  (h=" << TablePrinter::fmt(criteria.h, 3)
            << ", p=" << TablePrinter::fmt(criteria.p, 3)
            << ", mean photo = "
            << TablePrinter::fmt(criteria.mean_size / 1024.0, 1) << " KB)\n\n";
  std::cout << "history table capacity: " << setup.history_capacity
            << " entries (M(1-h)p x 0.05)\n\n";

  // Checkpoint durability telemetry lands in the engine's report.
  std::optional<CheckpointManager> manager;
  if (!checkpoint_dir.empty()) {
    manager.emplace(checkpoint_dir);
    manager->bind_metrics(engine.global_registry());
  }

  if (manager) {
    const CheckpointLoad loaded = manager->load();
    std::cout << "checkpoint load from " << checkpoint_dir << ": "
              << checkpoint_origin_name(loaded.origin);
    if (loaded.rejected_files > 0) {
      std::cout << " (" << loaded.rejected_files
                << " corrupt generation(s) rejected)";
    }
    std::cout << "\n";
    if (loaded.origin != CheckpointOrigin::none) {
      const bool model_ok = engine.restore(loaded.snapshot);
      std::cout << "  restored: " << loaded.snapshot.samples.size()
                << " trainer samples, " << loaded.snapshot.history.size()
                << " history entries, "
                << (loaded.snapshot.model_blob.empty()
                        ? std::string{"no model"}
                        : model_ok ? std::string{"model ok"}
                                   : std::string{"model REJECTED -> admit-all"})
                << "\n";
      if (loaded.snapshot.m != criteria.m) {
        std::cout << "  note: checkpointed M=" << loaded.snapshot.m
                  << " differs from this run's M=" << criteria.m << "\n";
      }
    }
    std::cout << "\n";
  }

  RunResult& result = engine.replay(1);
  const CacheStats& stats = result.stats;

  std::cout << "per-day classifier quality (raw tree vs after history "
               "table):\n";
  TablePrinter table{{"day", "precision", "recall", "accuracy",
                      "accuracy (corrected)"}};
  for (const DayClassifierMetrics& day : result.daily) {
    table.add_row({std::to_string(day.day),
                   TablePrinter::fmt(day.raw.precision(), 3),
                   TablePrinter::fmt(day.raw.recall(), 3),
                   TablePrinter::fmt(day.raw.accuracy(), 3),
                   TablePrinter::fmt(day.corrected.accuracy(), 3)});
  }
  std::cout << table.to_string() << "\n";

  const ClassifierSnapshot final_state = engine.snapshot();
  std::cout << "history table rectified " << final_state.history_rectified
            << " misclassifications; " << result.trainings
            << " daily trainings ran\n\n";
  std::cout << "final decision tree:\n";
  if (!final_state.model_blob.empty()) {
    std::cout << ml::DecisionTree::deserialize(final_state.model_blob)
                     .to_text(FeatureExtractor::feature_names());
  }

  std::cout << "\ncache outcome: hit rate "
            << TablePrinter::pct(stats.file_hit_rate()) << ", SSD writes "
            << stats.insertions << " (" << stats.rejected
            << " misses bypassed the cache)\n";

  const DegradationCounters& degraded = result.degradation;
  if (degraded.total() > 0) {
    std::cout << "serving degradations: " << degraded.retrain_failures
              << " retrain failures, " << degraded.rejected_models
              << " rejected models, " << degraded.nonfinite_feature_requests
              << " non-finite-feature fallbacks, "
              << degraded.predict_failures << " predict fallbacks\n";
  }

  if (manager) {
    try {
      manager->save(final_state);
      std::cout << "checkpoint saved to " << manager->current_path() << "\n";
    } catch (const std::exception& error) {
      // A failed save must not fail the run — the previous generation is
      // still intact on disk by construction.
      std::cout << "checkpoint save FAILED (" << error.what()
                << "); previous generation retained\n";
    }
  }

  if (!metrics_out.empty()) {
    result.obs.source = "daily_operations";
    const std::string failed = obs::write_report_files(result.obs, metrics_out);
    if (!failed.empty()) {
      std::cerr << "cannot open " << failed << "\n";
      return 1;
    }
    std::cout << "metrics: " << metrics_out << " + "
              << obs::prometheus_path_of(metrics_out) << "\n";
  }
  return 0;
}
