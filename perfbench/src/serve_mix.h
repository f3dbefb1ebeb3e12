#ifndef LIMA_PERFBENCH_SERVE_MIX_H_
#define LIMA_PERFBENCH_SERVE_MIX_H_

#include "util.h"

namespace perfbench {

/// Arrival rate of the serve-mix open loop, requests per second.
constexpr double kServeRateRps = 30;

/// serve-mix: an in-process LimaServer (Serving(), shared cache, pool of
/// nproc) restarted warm from a primed snapshot, driven by a seeded open-loop
/// arrival stream from 4 tenants. Oracle: each response's output against a
/// standalone Base() session run of the same script.
bool RunServeMix(const Options& options, Report* report);

}  // namespace perfbench

#endif  // LIMA_PERFBENCH_SERVE_MIX_H_
