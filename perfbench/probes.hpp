#pragma once

/**
 * @file probes.hpp
 * Layer probes: wall time of direct calls into each module's public
 * functions, on inputs drawn from the workload's own tasks and seed. They
 * locate a change inside a layer; the traced tune() split says how much of
 * the end-to-end wall that layer can move.
 */

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct ProbeValue
{
    std::string name;
    double value;
    std::string unit;
};

/** Run every probe in about @p budget_s seconds of wall time. */
std::vector<ProbeValue> runProbes(const PreparedWorkload& prepared,
                                  double budget_s);

} // namespace perfbench
