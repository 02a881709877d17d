// A complete synthetic trace: catalog + time-sorted requests.
#pragma once

#include <vector>

#include "trace/photo_catalog.h"
#include "trace/types.h"
#include "trace/workload_config.h"
#include "util/sim_time.h"

namespace otac {

struct Trace {
  WorkloadConfig config{};
  PhotoCatalog catalog;
  // Sorted by time. Generated traces are ordered by (time, photo,
  // terminal), pc before mobile: a total order on the request value, so any
  // correct sort yields the same bytes (DESIGN.md §6).
  std::vector<Request> requests;
  SimTime horizon{};              // requests all fall in [0, horizon)

  // Debug/analysis channel: standardized latent popularity score per photo.
  // Not visible to the classifier (it would be ground truth leakage).
  std::vector<float> latent_score;

  [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
  [[nodiscard]] bool empty() const noexcept { return requests.empty(); }

  /// Total bytes across all requests (denominator of byte rates).
  [[nodiscard]] double total_request_bytes() const;
};

}  // namespace otac
