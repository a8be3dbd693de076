#pragma once

#include "harness.h"

namespace perfbench {

/// Time the linalg and GRAPE kernels and put linalg.* and qoc.grape_iter_*
/// metrics (wall time and operation count per call).
void kernel_sheet(Metrics& m, std::uint64_t seed);

} // namespace perfbench
