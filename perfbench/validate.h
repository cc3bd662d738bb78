// Output validation, done from outside the service: every response is
// re-checked against its request with the library's own part:: objectives.
#pragma once

#include <string>

#include "service/protocol.h"

namespace perfbench {

struct Validation {
  /// Empty when the response is valid; otherwise the first failed check.
  std::string failure;
  /// part::conductance of a k = 2 partition (0 for k > 2 or on failure).
  double conductance = 0.0;
};

/// Checks: status ok or degraded; id and k echo the request; assignment
/// length n, ids < k, no empty cluster; k = 2 sides honour the request's
/// balance floor (ceil(balance * n), the splitter's own rule); cut,
/// scaled_cost and ratio_cut equal part::cut_nets / part::scaled_cost /
/// part::ratio_cut recomputed on the assignment, exactly.
Validation validate(const specpart::service::PartitionRequest& req,
                    const specpart::service::PartitionResponse& resp);

}  // namespace perfbench
