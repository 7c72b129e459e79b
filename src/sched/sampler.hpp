#pragma once

/**
 * @file sampler.hpp
 * Random schedule generation (Ansor's RandomInitSch / sketch sampling).
 *
 * The sampler draws structurally valid schedules for a task on a device:
 * per-axis tile factors, thread counts within launch limits, and loop
 * annotations. It corresponds to line 15 of the paper's Algorithm 2 and to
 * the random portion of S_draft in Algorithm 1 (line 10).
 */

#include <vector>

#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pruner {

/** Stateless-config random schedule generator. */
class ScheduleSampler
{
  public:
    ScheduleSampler(const SubgraphTask& task, const DeviceSpec& device);
    // Keeps pointers to both arguments: temporaries would dangle.
    ScheduleSampler(SubgraphTask&&, const DeviceSpec&) = delete;
    ScheduleSampler(const SubgraphTask&, DeviceSpec&&) = delete;
    ScheduleSampler(SubgraphTask&&, DeviceSpec&&) = delete;

    /** Draw one valid random schedule. */
    Schedule sample(Rng& rng) const;

    /** Draw @p n schedules, deduplicated by hash (best effort: gives up
     *  after a bounded number of redraws to stay fast on tiny spaces). */
    std::vector<Schedule> sampleMany(Rng& rng, size_t n) const;

    /** Clamp/repair an arbitrary schedule into validity (thread limits,
     *  outer-factor coverage). Returns false if it cannot be repaired. */
    bool repair(Schedule& sch) const;

    const SubgraphTask& task() const { return *task_; }
    const DeviceSpec& device() const { return *device_; }

  private:
    const SubgraphTask* task_;
    const DeviceSpec* device_;
};

} // namespace pruner
