#pragma once

/**
 * @file optimizer.hpp
 * Adam optimizer, gradient clipping, and the momentum (EMA) parameter
 * update used by the MoA Siamese strategy.
 */

#include <optional>
#include <vector>

#include "nn/layers.hpp"

namespace pruner {

namespace nnkernel {
/** Tier of Adam::stepClipped ("avx512" or "composed"); forces the
 *  dispatch. */
const char* adamTier();
} // namespace nnkernel

/** Adam over a set of registered parameters. */
class Adam
{
  public:
    explicit Adam(std::vector<ParamRef> params, double lr = 1e-3,
                  double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    /** Zero every registered gradient. */
    void zeroGrad();

    /** Scale gradients so their global L2 norm is at most @p max_norm. */
    void clipGradNorm(double max_norm);

    /** One Adam step from the accumulated gradients. */
    void step();

    /**
     * clipGradNorm(@p max_norm), step() and zeroGrad() in one pass over
     * each parameter: the clip scale, the moment and weight updates and
     * the gradient reset run per element, the global norm stays the
     * scalar in-order chain of clipGradNorm. Dispatched once per process
     * to an AVX-512 tier (self-checked bitwise against
     * stepClippedComposed() at first use, demoted on mismatch, see
     * nnkernel::kernelTierDemotions); byte-identical to the three calls.
     */
    void stepClipped(double max_norm);

    /** The three calls themselves: the fallback tier and the reference
     *  stepClipped() is checked against. */
    void stepClippedComposed(double max_norm);

    /** The fused tier's startup self-check: three stepClipped() steps
     *  (clipped and not, lengths 1, 8 and 19) compared bit for bit with
     *  stepClippedComposed(). */
    static bool fusedMatchesComposed();

    double lr() const { return lr_; }
    void setLr(double lr) { lr_ = lr; }

  private:
    /** Global-norm clip factor of clipGradNorm, or nothing when the norm
     *  is within @p max_norm (or zero). */
    std::optional<double> clipScale(double max_norm);

    /** stepClipped()'s AVX-512 tier. */
    void stepClippedFused(double max_norm);

    std::vector<ParamRef> params_;
    std::vector<Matrix> m_, v_;
    /** Up to four parameters of equal size whose gradient norms
     *  clipScale computes side by side (unused slots repeat the last). */
    struct NormGroup
    {
        size_t idx[4];
        size_t count;
    };
    std::vector<NormGroup> norm_groups_;
    std::vector<double> sq_; ///< per-parameter squared-norm scratch
    double lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
};

/** Flatten all parameter values into a single vector (MoA bookkeeping). */
std::vector<double> flattenParams(const std::vector<ParamRef>& params);

/** Write a flat vector back into the parameters (sizes must match). */
void unflattenParams(const std::vector<ParamRef>& params,
                     const std::vector<double>& flat);

/**
 * Momentum (EMA) update: siamese <- m * siamese + (1 - m) * target.
 * This is the MoCo-style update MoA applies to the Siamese cost model
 * after each online fine-tune of the target model (paper Section 4.3,
 * m = 0.99).
 */
void momentumUpdate(std::vector<double>& siamese,
                    const std::vector<double>& target, double m);

} // namespace pruner
