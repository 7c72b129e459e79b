#pragma once

/**
 * @file round_stats.hpp
 * Per-round pipeline statistics: the paper's Table-1 cost split
 * (exploration / training / measurement / compile) at round granularity
 * instead of end-of-run aggregates, plus the round's draft/verify/measure
 * traffic.
 *
 * Collected by TuningRun when TuneOptions::collect_round_stats is set
 * and surfaced as TuneResult::round_stats. Everything here is a pure
 * function of the tuning trajectory (sim-clock deltas, measurer counter
 * deltas), so round stats are byte-identical at any worker count, like
 * every other deterministic output of the repo.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/sim_clock.hpp"

namespace pruner {

class Measurer; // search/measurer.hpp

namespace obs {

/** One tuning round's pipeline stats. */
struct RoundStats
{
    int round = 0;
    /** Scheduler-picked task indices, rank order. */
    std::vector<size_t> tasks;
    /** Simulated clock at round begin / end. */
    double begin_time_s = 0.0;
    double end_time_s = 0.0;
    /** Per-category sim-time deltas over the round (Table-1 split). */
    double exploration_s = 0.0;
    double training_s = 0.0;
    double measurement_s = 0.0;
    double compile_s = 0.0;
    double other_s = 0.0;
    /** Draft-stage candidates produced across the round's tasks. */
    uint64_t drafted = 0;
    /** Candidates selected for measurement. */
    uint64_t measured = 0;
    /** Measurer deltas over the round. */
    uint64_t trials = 0;
    uint64_t cache_hits = 0;
    uint64_t simulated_trials = 0;
    uint64_t failed_trials = 0;
    uint64_t injected_faults = 0;
    /** Weighted end-to-end best at round end; +inf while undefined. */
    double best_latency = std::numeric_limits<double>::infinity();
};

/**
 * Incremental collector the tune() loops drive: snapshot the clock and
 * the measurer's counters at round boundaries and store the deltas.
 * Inert (every call a no-op) when constructed disabled — the
 * observability-off fast path.
 */
class RoundStatsCollector
{
  public:
    /** @param enabled   TuneOptions::collect_round_stats
     *  @param clock     the run's sim clock (borrowed)
     *  @param measurer  the run's measurer (borrowed) */
    RoundStatsCollector(bool enabled, const SimClock* clock,
                        const Measurer* measurer);

    bool enabled() const { return enabled_; }

    void beginRound(int round, const std::vector<size_t>& tasks);
    void addDrafted(size_t n);
    void addMeasured(size_t n);
    void endRound(double best_latency);

    /** Move the collected rounds out (call once, at the end of tune()). */
    std::vector<RoundStats> take() { return std::move(rounds_); }

    /** Rounds collected so far (checkpoint snapshots copy these). */
    const std::vector<RoundStats>& rounds() const { return rounds_; }

    /** Reload rounds collected before a checkpoint (resume path; must
     *  run before the first beginRound of the resumed run). */
    void
    restore(std::vector<RoundStats> rounds)
    {
        if (enabled_) {
            rounds_ = std::move(rounds);
        }
    }

  private:
    struct Baseline
    {
        double per_category[kNumCostCategories] = {};
        uint64_t trials = 0;
        uint64_t cache_hits = 0;
        uint64_t simulated_trials = 0;
        uint64_t failed_trials = 0;
        uint64_t injected_faults = 0;
    };
    Baseline sample() const;

    bool enabled_;
    const SimClock* clock_;
    const Measurer* measurer_;
    std::vector<RoundStats> rounds_;
    RoundStats current_;
    Baseline baseline_;
    bool open_ = false;
};

} // namespace obs
} // namespace pruner
