// Test-only oracle for the critical-path analyzer (src/profile).
//
// oracle::analyze is the analyzer as it stood before the flat index: a
// Walker over per-rank and per-endpoint pointer vectors, three fresh binary
// searches per walk step, and the per-worker gap walks run worker by
// worker. The differential tests require profile::analyze to agree with it
// bit for bit. oracle::dump renders every RunProfile field as text with the
// doubles in %a (hex float), so two dumps are equal exactly when the
// profiles are bitwise equal; the RunProfile golden fixtures use it too.
#pragma once

#include <cstdint>
#include <string>

#include "profile/critical_path.hpp"
#include "profile/spans.hpp"

namespace dt::profile::oracle {

[[nodiscard]] RunProfile analyze(const SpanLog& log, double makespan,
                                 int num_workers,
                                 std::int64_t iterations_per_epoch);

[[nodiscard]] std::string dump(const RunProfile& p);

}  // namespace dt::profile::oracle
