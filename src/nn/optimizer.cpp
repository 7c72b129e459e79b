#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PRUNER_ADAM_X86 1
#include <immintrin.h>
#endif

#include "support/logging.hpp"

namespace pruner {

namespace {

/** Per-step constants of the fused Adam pass. */
struct AdamStep
{
    double beta1, beta2, bc1, bc2, lr, eps;
    const double* clip; ///< gradient scale, or null when not clipping
};

#ifdef PRUNER_ADAM_X86
// _mm512_sqrt_pd's masked builtin takes _mm512_undefined_pd() as its
// unused pass-through source: a false-positive uninitialized-use warning.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/**
 * One parameter's Adam update with the clip scale in front and the
 * gradient reset behind, eight elements per ZMM (masked tail). Every
 * operation is the scalar path's, in its order: the clip multiply,
 * m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, the two bias
 * corrections, value -= (lr mhat) / (sqrt(vhat) + eps) — and vdivpd /
 * vsqrtpd round exactly like divsd / sqrtsd, so the bytes match.
 */
__attribute__((target("avx512f"))) void
adamUpdateAvx512(double* value, double* grad, double* m, double* v,
                 size_t n, const AdamStep& c)
{
    const __m512d b1 = _mm512_set1_pd(c.beta1);
    const __m512d omb1 = _mm512_set1_pd(1.0 - c.beta1);
    const __m512d b2 = _mm512_set1_pd(c.beta2);
    const __m512d omb2 = _mm512_set1_pd(1.0 - c.beta2);
    const __m512d bc1 = _mm512_set1_pd(c.bc1);
    const __m512d bc2 = _mm512_set1_pd(c.bc2);
    const __m512d lr = _mm512_set1_pd(c.lr);
    const __m512d eps = _mm512_set1_pd(c.eps);
    const __m512d scale = _mm512_set1_pd(c.clip != nullptr ? *c.clip : 1.0);
    for (size_t j = 0; j < n; j += 8) {
        const __mmask8 k = static_cast<__mmask8>(
            n - j >= 8 ? 0xFFu : (1u << (n - j)) - 1u);
        __m512d g = _mm512_maskz_loadu_pd(k, grad + j);
        if (c.clip != nullptr) {
            g = _mm512_mul_pd(g, scale);
        }
        const __m512d mj =
            _mm512_add_pd(_mm512_mul_pd(b1, _mm512_maskz_loadu_pd(k, m + j)),
                          _mm512_mul_pd(omb1, g));
        const __m512d vj = _mm512_add_pd(
            _mm512_mul_pd(b2, _mm512_maskz_loadu_pd(k, v + j)),
            _mm512_mul_pd(_mm512_mul_pd(omb2, g), g));
        const __m512d mhat = _mm512_div_pd(mj, bc1);
        const __m512d vhat = _mm512_div_pd(vj, bc2);
        const __m512d upd =
            _mm512_div_pd(_mm512_mul_pd(lr, mhat),
                          _mm512_add_pd(_mm512_sqrt_pd(vhat), eps));
        _mm512_mask_storeu_pd(
            value + j, k,
            _mm512_sub_pd(_mm512_maskz_loadu_pd(k, value + j), upd));
        _mm512_mask_storeu_pd(m + j, k, mj);
        _mm512_mask_storeu_pd(v + j, k, vj);
        _mm512_mask_storeu_pd(grad + j, k, _mm512_setzero_pd());
    }
}
#pragma GCC diagnostic pop
#endif

struct PickedAdam
{
    bool fused;
    const char* tier;
};

} // namespace

Adam::Adam(std::vector<ParamRef> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps)
{
    for (const auto& p : params_) {
        PRUNER_CHECK(p.value != nullptr && p.grad != nullptr);
        m_.emplace_back(p.value->rows(), p.value->cols());
        v_.emplace_back(p.value->rows(), p.value->cols());
    }
    std::vector<bool> grouped(params_.size(), false);
    for (size_t p = 0; p < params_.size(); ++p) {
        if (grouped[p]) {
            continue;
        }
        NormGroup g{{p, p, p, p}, 1};
        grouped[p] = true;
        for (size_t q = p + 1; q < params_.size() && g.count < 4; ++q) {
            if (!grouped[q] &&
                params_[q].grad->size() == params_[p].grad->size()) {
                g.idx[g.count++] = q;
                grouped[q] = true;
            }
        }
        for (size_t k = g.count; k < 4; ++k) {
            g.idx[k] = g.idx[g.count - 1];
        }
        norm_groups_.push_back(g);
    }
    sq_.resize(params_.size());
}

void
Adam::zeroGrad()
{
    for (auto& p : params_) {
        p.grad->zero();
    }
}

std::optional<double>
Adam::clipScale(double max_norm)
{
    // Each gradient's squared norm is Matrix::norm's in-order chain from
    // zero; gradients of equal size run four chains side by side so the
    // add latencies overlap, and the norms combine in parameter order.
    for (const NormGroup& g : norm_groups_) {
        const double* d[4];
        for (size_t k = 0; k < 4; ++k) {
            d[k] = params_[g.idx[k]].grad->data().data();
        }
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
        const size_t len = params_[g.idx[0]].grad->size();
        for (size_t e = 0; e < len; ++e) {
            for (size_t k = 0; k < 4; ++k) {
                acc[k] += d[k][e] * d[k][e];
            }
        }
        for (size_t k = 0; k < g.count; ++k) {
            sq_[g.idx[k]] = acc[k];
        }
    }
    double total = 0.0;
    for (const double sq : sq_) {
        const double n = std::sqrt(sq);
        total += n * n;
    }
    total = std::sqrt(total);
    if (total > max_norm && total > 0.0) {
        return max_norm / total;
    }
    return std::nullopt;
}

void
Adam::clipGradNorm(double max_norm)
{
    if (const std::optional<double> s = clipScale(max_norm)) {
        for (auto& p : params_) {
            p.grad->scale(*s);
        }
    }
}

void
Adam::step()
{
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
        auto& value = params_[i].value->data();
        const auto& grad = params_[i].grad->data();
        auto& m = m_[i].data();
        auto& v = v_[i].data();
        for (size_t j = 0; j < value.size(); ++j) {
            m[j] = beta1_ * m[j] + (1.0 - beta1_) * grad[j];
            v[j] = beta2_ * v[j] + (1.0 - beta2_) * grad[j] * grad[j];
            const double mhat = m[j] / bc1;
            const double vhat = v[j] / bc2;
            value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
    }
}

void
Adam::stepClippedComposed(double max_norm)
{
    clipGradNorm(max_norm);
    step();
    zeroGrad();
}

void
Adam::stepClippedFused(double max_norm)
{
#ifdef PRUNER_ADAM_X86
    const std::optional<double> clip = clipScale(max_norm);
    ++t_;
    const AdamStep c{beta1_,
                     beta2_,
                     1.0 - std::pow(beta1_, static_cast<double>(t_)),
                     1.0 - std::pow(beta2_, static_cast<double>(t_)),
                     lr_,
                     eps_,
                     clip ? &*clip : nullptr};
    for (size_t i = 0; i < params_.size(); ++i) {
        adamUpdateAvx512(params_[i].value->data().data(),
                         params_[i].grad->data().data(), m_[i].data().data(),
                         v_[i].data().data(), params_[i].value->size(), c);
    }
#else
    stepClippedComposed(max_norm);
#endif
}

bool
Adam::fusedMatchesComposed()
{
    // Lengths 1, 8 and 19: a lone masked lane, one full vector, two full
    // vectors plus a 3-lane tail. Three steps: the first clipped (large
    // gradients), the others not, from non-zero moments.
    const size_t lens[] = {1, 8, 19};
    Matrix w[2][3], g[2][3];
    std::vector<ParamRef> refs[2];
    uint64_t state = 0x5DEECE66Dull;
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(static_cast<int64_t>(state >> 11)) /
               static_cast<double>(1ll << 52);
    };
    for (size_t p = 0; p < 3; ++p) {
        w[0][p] = Matrix(1, lens[p]);
        for (double& x : w[0][p].data()) {
            x = next();
        }
        w[1][p] = w[0][p];
        g[0][p] = Matrix(1, lens[p]);
        g[1][p] = g[0][p];
        for (size_t s = 0; s < 2; ++s) {
            refs[s].push_back({&w[s][p], &g[s][p]});
        }
    }
    Adam fused(refs[0], 1e-3);
    Adam composed(refs[1], 1e-3);
    for (int step = 0; step < 3; ++step) {
        const double mag = step == 0 ? 10.0 : 0.01;
        for (size_t p = 0; p < 3; ++p) {
            for (size_t e = 0; e < lens[p]; ++e) {
                g[0][p].data()[e] = g[1][p].data()[e] = mag * next();
            }
        }
        fused.stepClippedFused(1.0);
        composed.stepClippedComposed(1.0);
        for (size_t p = 0; p < 3; ++p) {
            const size_t bytes = lens[p] * sizeof(double);
            if (std::memcmp(w[0][p].row(0), w[1][p].row(0), bytes) != 0 ||
                std::memcmp(g[0][p].row(0), g[1][p].row(0), bytes) != 0 ||
                std::memcmp(fused.m_[p].row(0), composed.m_[p].row(0),
                            bytes) != 0 ||
                std::memcmp(fused.v_[p].row(0), composed.v_[p].row(0),
                            bytes) != 0) {
                return false;
            }
        }
    }
    return true;
}

namespace {

const PickedAdam&
pickedAdam()
{
    static const PickedAdam picked = []() -> PickedAdam {
#ifdef PRUNER_ADAM_X86
        if (__builtin_cpu_supports("avx512f")) {
            if (Adam::fusedMatchesComposed()) {
                return {true, "avx512"};
            }
            nnkernel::noteTierDemotion();
        }
#endif
        return {false, "composed"};
    }();
    return picked;
}

} // namespace

const char*
nnkernel::adamTier()
{
    return pickedAdam().tier;
}

void
Adam::stepClipped(double max_norm)
{
    if (pickedAdam().fused) {
        stepClippedFused(max_norm);
    } else {
        stepClippedComposed(max_norm);
    }
}

std::vector<double>
flattenParams(const std::vector<ParamRef>& params)
{
    std::vector<double> flat;
    for (const auto& p : params) {
        flat.insert(flat.end(), p.value->data().begin(),
                    p.value->data().end());
    }
    return flat;
}

void
unflattenParams(const std::vector<ParamRef>& params,
                const std::vector<double>& flat)
{
    size_t offset = 0;
    for (const auto& p : params) {
        auto& data = p.value->data();
        PRUNER_CHECK_MSG(offset + data.size() <= flat.size(),
                         "flat parameter vector too short");
        std::copy(flat.begin() + offset, flat.begin() + offset + data.size(),
                  data.begin());
        offset += data.size();
    }
    PRUNER_CHECK_MSG(offset == flat.size(),
                     "flat parameter vector too long");
}

void
momentumUpdate(std::vector<double>& siamese,
               const std::vector<double>& target, double m)
{
    PRUNER_CHECK(siamese.size() == target.size());
    PRUNER_CHECK(m >= 0.0 && m <= 1.0);
    for (size_t i = 0; i < siamese.size(); ++i) {
        siamese[i] = m * siamese[i] + (1.0 - m) * target[i];
    }
}

} // namespace pruner
