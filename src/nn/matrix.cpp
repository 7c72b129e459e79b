#include "nn/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

// The vector tiers are compiled under GCC target pragmas (see "Vector
// tiers" below); other compilers get the scalar tiers.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PRUNER_NNKERNEL_X86 1
#include <immintrin.h>
#endif

#include "nn/optimizer.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace nnkernel {

namespace {

/** CPU-supported tiers rejected by their startup self-check (see
 *  kernelTierDemotions). Atomic: first-use dispatch can race across the
 *  pool's worker threads. */
std::atomic<size_t> g_tier_demotions{0};

} // namespace

void
noteTierDemotion()
{
    g_tier_demotions.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/**
 * Register-block shape of the scalar fallback kernel. 4x16 doubles of C
 * live in accumulators across the whole k loop (16 doubles = two cache
 * lines per C row), and a 64-wide hidden layer is exactly four j tiles, so
 * the B panel touched by one (i0, j0) tile — at most
 * 128 k x 16 doubles = 16 KiB — stays L1-resident while the four A rows
 * are streamed once.
 */
constexpr size_t kBlockI = 4;
constexpr size_t kBlockJ = 16;

/**
 * Store epilogue of matmul(), applied per element in the store step, in
 * this order: v = acc (+ bias[j]), v = C_old + v (accumulate), relu,
 * v * (mask > 0 ? 1 : 0). @p bias and @p mask point at the block's
 * first column (mask also at its first row; rows step by C's ldc).
 */
struct Epilogue
{
    const double* bias = nullptr;
    bool relu = false;
    bool accumulate = false;
    const double* mask = nullptr;

    /** The epilogue of the sub-block whose first element is C[i][j]. */
    Epilogue
    at(size_t i, size_t j, size_t ldc) const
    {
        return {bias != nullptr ? bias + j : nullptr, relu, accumulate,
                mask != nullptr ? mask + i * ldc + j : nullptr};
    }
};

/** Scalar store of @p nr accumulators into one C row (see Epilogue);
 *  @p ep is already offset to that row's first column. */
inline void
storeRow(const double* acc, double* crow, const Epilogue& ep, size_t nr)
{
    for (size_t jj = 0; jj < nr; ++jj) {
        double v = acc[jj];
        if (ep.bias != nullptr) {
            v += ep.bias[jj];
        }
        if (ep.accumulate) {
            v = crow[jj] + v;
        }
        if (ep.relu) {
            v = v > 0.0 ? v : 0.0;
        }
        if (ep.mask != nullptr) {
            v = v * (ep.mask[jj] > 0.0 ? 1.0 : 0.0);
        }
        crow[jj] = v;
    }
}

void
matmulScalarTile(const double* a, size_t m, size_t k, size_t lda,
                 const double* b, size_t n, size_t ldb, double* c,
                 size_t ldc, const Epilogue& ep)
{
    size_t i0 = 0;
    for (; i0 + kBlockI <= m; i0 += kBlockI) {
        const double* a0 = a + i0 * lda;
        for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
            const size_t nr = std::min(kBlockJ, n - j0);
            double acc[kBlockI][kBlockJ] = {};
            for (size_t kk = 0; kk < k; ++kk) {
                const double* brow = b + kk * ldb + j0;
                for (size_t ii = 0; ii < kBlockI; ++ii) {
                    const double aik = a0[ii * lda + kk];
                    for (size_t jj = 0; jj < nr; ++jj) {
                        acc[ii][jj] += aik * brow[jj];
                    }
                }
            }
            for (size_t ii = 0; ii < kBlockI; ++ii) {
                storeRow(acc[ii], c + (i0 + ii) * ldc + j0,
                         ep.at(i0 + ii, j0, ldc), nr);
            }
        }
    }
    // Remainder rows: one C row of accumulators at a time.
    for (; i0 < m; ++i0) {
        const double* arow = a + i0 * lda;
        for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
            const size_t nr = std::min(kBlockJ, n - j0);
            double acc[kBlockJ] = {};
            for (size_t kk = 0; kk < k; ++kk) {
                const double aik = arow[kk];
                const double* brow = b + kk * ldb + j0;
                for (size_t jj = 0; jj < nr; ++jj) {
                    acc[jj] += aik * brow[jj];
                }
            }
            storeRow(acc, c + i0 * ldc + j0, ep.at(i0, j0, ldc), nr);
        }
    }
}

using MatmulFn = void (*)(const double*, size_t, size_t, size_t,
                          const double*, size_t, size_t, double*, size_t,
                          const Epilogue&);
using MatmulNTFn = void (*)(const double*, size_t, size_t, size_t,
                            const double*, size_t, size_t, double*, size_t);
using MatmulTNSegFn = void (*)(const double*, size_t, const double*,
                               size_t, const size_t*, size_t, size_t,
                               size_t, double*, size_t);

/** Each kernel's vector tiers: {8 lanes, 4 lanes}. */
template <class Fn>
struct LaneTiers
{
    Fn lanes8;
    Fn lanes4;
};

#ifdef PRUNER_NNKERNEL_X86

/*
 * Vector tiers. Each kernel's vector code is written once, in
 * matrix_lanes.inc, over a lane trait `L` (load, store, zero, splat, add,
 * mul, the epilogue's relu and mask factor, and the NT B-panel transpose),
 * and compiled at 4 lanes in an "avx2" target region, at 8 lanes in an
 * "avx512f" one, and at 1 lane for the column tails. The vector traits
 * are explicit _mm256_* / _mm512_* intrinsics with separate mul and add
 * (no FMA), so every element keeps the scalar mul-round-add-round chain;
 * the byte-identity self-checks below hold each tier to its reference.
 * GCC vector extensions and <experimental/simd> were measured slower or
 * narrower (docs/KERNELS.md).
 */

namespace lanes1 {

/** The 1-lane (scalar) trait: the vector tiers' column tails, with the
 *  vector tiles' row blocking, so each tail still runs several
 *  independent accumulator chains. Compiled for the baseline ISA. */
struct L
{
    using V = double;
    static constexpr size_t kLanes = 1;
    static constexpr size_t kSegRows = 4;

    static V load(const double* p) { return *p; }
    static void store(double* p, V v) { *p = v; }
    static V zero() { return 0.0; }
    static V splat(double x) { return x; }
    static V add(V x, V y) { return x + y; }
    static V mul(V x, V y) { return x * y; }
    static V relu(V v) { return v > 0.0 ? v : 0.0; }
    static V positiveOnes(V m) { return m > 0.0 ? 1.0 : 0.0; }
    static void
    transpose4(const double* const* rows, size_t kk, V (&out)[4])
    {
        for (size_t s = 0; s < 4; ++s) {
            out[s] = rows[0][kk + s];
        }
    }
    static V
    gather(const double* const* rows, size_t kk)
    {
        return rows[0][kk];
    }
};

#include "nn/matrix_lanes.inc"

} // namespace lanes1

/** matmul()'s last odd column after the 1-lane panels: one scalar
 *  accumulator per element over ascending k, then the scalar epilogue. */
void
matmulColumns(const double* a, size_t m, size_t k, size_t lda,
              const double* b, size_t n, size_t ldb, double* c, size_t ldc,
              const Epilogue& ep)
{
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                acc += a[i * lda + kk] * b[kk * ldb + j];
            }
            storeRow(&acc, c + i * ldc + j, ep.at(i, j, ldc), 1);
        }
    }
}

#pragma GCC push_options
#pragma GCC target("avx2")

/** In-register transpose of four rows' k panels: lane q of out[s] is
 *  rows[q][kk + s]. */
[[gnu::always_inline]] inline void
transpose4x4(const double* const* rows, size_t kk, __m256d (&out)[4])
{
    const __m256d r0 = _mm256_loadu_pd(rows[0] + kk);
    const __m256d r1 = _mm256_loadu_pd(rows[1] + kk);
    const __m256d r2 = _mm256_loadu_pd(rows[2] + kk);
    const __m256d r3 = _mm256_loadu_pd(rows[3] + kk);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

namespace lanes4 {

/** The 4-lane (AVX2, YMM) trait. 16 YMM registers hold a 4-row
 *  seg-blocked tile (4 accumulators + 4 partials) but not an 8-row one. */
struct L
{
    using V = __m256d;
    static constexpr size_t kLanes = 4;
    static constexpr size_t kSegRows = 4;

    static V load(const double* p) { return _mm256_loadu_pd(p); }
    static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
    static V zero() { return _mm256_setzero_pd(); }
    static V splat(double x) { return _mm256_set1_pd(x); }
    static V add(V x, V y) { return _mm256_add_pd(x, y); }
    static V mul(V x, V y) { return _mm256_mul_pd(x, y); }
    /** v > 0 ? v : +0.0 per lane. */
    static V relu(V v) { return _mm256_max_pd(v, _mm256_setzero_pd()); }
    /** m > 0 ? 1.0 : +0.0 per lane (NaN gives +0.0). */
    static V
    positiveOnes(V m)
    {
        const V gt = _mm256_cmp_pd(m, _mm256_setzero_pd(), _CMP_GT_OQ);
        return _mm256_and_pd(gt, _mm256_set1_pd(1.0));
    }
    /** Lane q of out[s] is rows[q][kk + s], s = 0..3. */
    static void
    transpose4(const double* const* rows, size_t kk, V (&out)[4])
    {
        transpose4x4(rows, kk, out);
    }
    /** Lane q is rows[q][kk]. */
    static V
    gather(const double* const* rows, size_t kk)
    {
        return _mm256_set_pd(rows[3][kk], rows[2][kk], rows[1][kk],
                             rows[0][kk]);
    }
};

#include "nn/matrix_lanes.inc"

} // namespace lanes4

#pragma GCC pop_options

// GCC implements _mm512_max_pd and the masked moves through masked
// builtins whose unused pass-through source is _mm512_undefined_pd(),
// tripping a false-positive -Wmaybe-uninitialized at -O2.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC push_options
#pragma GCC target("avx512f")

namespace lanes8 {

/** The 8-lane (AVX-512, ZMM) trait. 32 ZMM registers hold an 8-row
 *  seg-blocked tile: one shared B vector feeds eight broadcast mul+add
 *  chains, half the B traffic per flop of a 4-row tile. */
struct L
{
    using V = __m512d;
    static constexpr size_t kLanes = 8;
    static constexpr size_t kSegRows = 8;

    static V load(const double* p) { return _mm512_loadu_pd(p); }
    static void store(double* p, V v) { _mm512_storeu_pd(p, v); }
    static V zero() { return _mm512_setzero_pd(); }
    static V splat(double x) { return _mm512_set1_pd(x); }
    static V add(V x, V y) { return _mm512_add_pd(x, y); }
    static V mul(V x, V y) { return _mm512_mul_pd(x, y); }
    /** v > 0 ? v : +0.0 per lane. */
    static V relu(V v) { return _mm512_max_pd(v, _mm512_setzero_pd()); }
    /** m > 0 ? 1.0 : +0.0 per lane (NaN gives +0.0). */
    static V
    positiveOnes(V m)
    {
        const __mmask8 gt =
            _mm512_cmp_pd_mask(m, _mm512_setzero_pd(), _CMP_GT_OQ);
        return _mm512_maskz_mov_pd(gt, _mm512_set1_pd(1.0));
    }
    /** Lane q of out[s] is rows[q][kk + s], s = 0..3: two 4x4 YMM
     *  transposes spliced into one ZMM each. */
    static void
    transpose4(const double* const* rows, size_t kk, V (&out)[4])
    {
        __m256d lo[4];
        __m256d hi[4];
        transpose4x4(rows, kk, lo);
        transpose4x4(rows + 4, kk, hi);
        for (size_t s = 0; s < 4; ++s) {
            out[s] = _mm512_insertf64x4(_mm512_castpd256_pd512(lo[s]),
                                        hi[s], 1);
        }
    }
    /** Lane q is rows[q][kk]. */
    static V
    gather(const double* const* rows, size_t kk)
    {
        return _mm512_set_pd(rows[7][kk], rows[6][kk], rows[5][kk],
                             rows[4][kk], rows[3][kk], rows[2][kk],
                             rows[1][kk], rows[0][kk]);
    }
};

#include "nn/matrix_lanes.inc"

} // namespace lanes8

#pragma GCC pop_options
#pragma GCC diagnostic pop

// A vector tier of each kernel: the lane widths' panels in turn, widest
// first, each starting at the first column the last one left. The 1-lane
// panels finish every column but matmul's last odd one. Which width
// computes an element changes none of its bytes.

template <auto... panels>
void
matmulTier(const double* a, size_t m, size_t k, size_t lda, const double* b,
           size_t n, size_t ldb, double* c, size_t ldc, const Epilogue& ep)
{
    size_t j = 0;
    ((j += panels(a, m, k, lda, b + j, n - j, ldb, c + j, ldc,
                  ep.at(0, j, ldc))),
     ...);
    matmulColumns(a, m, k, lda, b + j, n - j, ldb, c + j, ldc,
                  ep.at(0, j, ldc));
}

template <auto... panels>
void
matmulNTTier(const double* a, size_t m, size_t k, size_t lda,
             const double* b, size_t n, size_t ldb, double* c, size_t ldc)
{
    size_t j = 0;
    ((j += panels(a, m, k, lda, b + j * ldb, n - j, ldb, c + j, ldc)), ...);
}

template <auto... panels>
void
segBlockedTier(const double* a, size_t lda, const double* b, size_t ldb,
               const size_t* seg_rows, size_t nsegs, size_t acols,
               size_t bcols, double* c, size_t ldc)
{
    size_t j = 0;
    ((j += panels(a, lda, b + j, ldb, seg_rows, nsegs, acols, bcols - j,
                  c + j, ldc)),
     ...);
}

constexpr LaneTiers<MatmulFn> kMatmulTiers = {
    matmulTier<lanes8::matmulPanels, lanes4::matmulPanels,
               lanes1::matmulPanels>,
    matmulTier<lanes4::matmulPanels, lanes1::matmulPanels>};
constexpr LaneTiers<MatmulNTFn> kMatmulNTTiers = {
    matmulNTTier<lanes8::matmulNTPanels, lanes4::matmulNTPanels,
                 lanes1::matmulNTPanels>,
    matmulNTTier<lanes4::matmulNTPanels, lanes1::matmulNTPanels>};
constexpr LaneTiers<MatmulTNSegFn> kSegBlockedTiers = {
    segBlockedTier<lanes8::segBlockedPanels, lanes4::segBlockedPanels,
                   lanes1::segBlockedPanels>,
    segBlockedTier<lanes4::segBlockedPanels, lanes1::segBlockedPanels>};
#else
constexpr LaneTiers<MatmulFn> kMatmulTiers = {};
constexpr LaneTiers<MatmulNTFn> kMatmulNTTiers = {};
constexpr LaneTiers<MatmulTNSegFn> kSegBlockedTiers = {};
#endif // PRUNER_NNKERNEL_X86

/** Deterministic self-check data: doubles in [0, 2) with full mantissas,
 *  so any contraction of the mul/add roundings shows up immediately. */
class CheckRng
{
  public:
    explicit CheckRng(uint64_t seed) : state_(seed) {}

    double
    next()
    {
        state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(static_cast<int64_t>(state_ >> 11)) /
               static_cast<double>(1ll << 52);
    }

    /** Fill @p n values, every @p zero_every-th (if nonzero) with 0.0. */
    void
    fill(double* v, size_t n, size_t zero_every = 0)
    {
        for (size_t e = 0; e < n; ++e) {
            v[e] = zero_every != 0 && e % zero_every == 0 ? 0.0 : next();
        }
    }

  private:
    uint64_t state_;
};

/**
 * Dispatch self-check of matmul(): a tier is only used if it reproduces
 * the naive golden kernel bit for bit. This demotes a tier that a
 * compiler silently broke (e.g. contracting the explicit mul+add
 * intrinsics into FMAs under -ffp-contract=fast) instead of letting it
 * violate the engine's byte-identity guarantee. m = 9, n = 27 reach every
 * path of both tiers: 4-row tiles plus a row remainder; 16-, 8- and
 * 2-column panels and the last odd column.
 */
bool
matchesNaiveKernel(MatmulFn fn)
{
    constexpr size_t m = 9, k = 9, n = 27;
    double a[m * k], b[k * n], fast[m * n], naive[m * n];
    CheckRng rng(0x9E3779B97F4A7C15ull);
    rng.fill(a, m * k);
    rng.fill(b, k * n);
    fn(a, m, k, k, b, n, n, fast, n, Epilogue{});
    matmulNaive(a, m, k, k, b, n, n, naive, n);
    if (std::memcmp(fast, naive, sizeof(fast)) != 0) {
        return false;
    }
    // Fused bias+relu epilogue vs the standalone passes.
    double bias[n];
    rng.fill(bias, n);
    fn(a, m, k, k, b, n, n, fast, n, Epilogue{bias, true, false, nullptr});
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double v = naive[i * n + j] + bias[j];
            naive[i * n + j] = v > 0.0 ? v : 0.0;
        }
    }
    if (std::memcmp(fast, naive, sizeof(fast)) != 0) {
        return false;
    }
    // Accumulate-then-mask epilogue (the backward's dX stores) vs the
    // standalone add and ReLU-mask passes, on top of the last result,
    // with a mask laced with zeros, negatives and -0.0.
    double mask[m * n];
    for (size_t e = 0; e < m * n; ++e) {
        mask[e] = e % 3 == 0 ? 0.0 : (e % 5 == 0 ? -0.0 : rng.next());
    }
    double prod[m * n];
    matmulNaive(a, m, k, k, b, n, n, prod, n);
    fn(a, m, k, k, b, n, n, fast, n, Epilogue{nullptr, false, true, mask});
    for (size_t e = 0; e < m * n; ++e) {
        const double v = naive[e] + prod[e];
        naive[e] = v * (mask[e] > 0.0 ? 1.0 : 0.0);
    }
    return std::memcmp(fast, naive, sizeof(fast)) == 0;
}

/**
 * Same self-check for the NT kernel: m = 11 covers the 4-row blocks and a
 * 3-row remainder block; n = 15 the 8-, 4- and 1-wide column panels;
 * k = 9 the transposed four-step k panels and the gathered k tail.
 */
bool
matchesNaiveKernelNT(MatmulNTFn fn)
{
    constexpr size_t m = 11, k = 9, n = 15;
    double a[m * k], b[n * k], fast[m * n], naive[m * n];
    CheckRng rng(0xA5A5A5A55A5A5A5Aull);
    rng.fill(a, m * k);
    rng.fill(b, n * k);
    fn(a, m, k, k, b, n, k, fast, n);
    matmulNTNaive(a, m, k, k, b, n, k, naive, n);
    return std::memcmp(fast, naive, sizeof(fast)) == 0;
}

/**
 * Self-check for the segment-blocked dW kernel: a segment mix of one-row
 * runs and 2/3/4-row segments, zeros planted in A (the composed naive
 * reference's skip paths), accumulated twice so the second pass starts
 * from a non-zero C. acols = 7 covers a 4-row C block and 1-row
 * remainders; bcols = 15 covers the 8-, 4- and 1-wide column panels; a
 * second round runs at the models' layer width
 * (64 columns), a third with ten A columns (an 8-row block). Compared bit
 * for bit against matmulTNSegBlockedNaive.
 */
bool
matchesSegBlockedReference(MatmulTNSegFn fn)
{
    constexpr size_t segs[] = {1, 1, 3, 1, 2, 4, 2, 1};
    constexpr size_t nsegs = sizeof(segs) / sizeof(segs[0]);
    constexpr size_t rows = 15; // sum of segs
    constexpr size_t acols = 7, bcols = 15;
    double a[rows * acols], b[rows * bcols];
    double fast[acols * bcols] = {}, naive[acols * bcols] = {};
    CheckRng rng(0x5DEECE66D2B79F31ull);
    rng.fill(a, rows * acols, 5); // exercise the zero-skip paths
    rng.fill(b, rows * bcols);
    for (int pass = 0; pass < 2; ++pass) {
        fn(a, acols, b, bcols, segs, nsegs, acols, bcols, fast, bcols);
        matmulTNSegBlockedNaive(a, acols, b, bcols, segs, nsegs, acols,
                                bcols, naive, bcols);
        if (std::memcmp(fast, naive, sizeof(fast)) != 0) {
            return false;
        }
    }
    // Second round at the models' layer width (64 columns), plus a
    // one-row-only segment list: the collapsed-run shape whose reference
    // path is the direct one-row accumulation.
    constexpr size_t ones[] = {1, 1, 1, 1, 1};
    constexpr size_t wide = 64;
    double bw[rows * wide], fastw[acols * wide] = {},
                            naivew[acols * wide] = {};
    rng.fill(bw, rows * wide);
    for (int pass = 0; pass < 2; ++pass) {
        fn(a, acols, bw, wide, segs, nsegs, acols, wide, fastw, wide);
        matmulTNSegBlockedNaive(a, acols, bw, wide, segs, nsegs, acols,
                                wide, naivew, wide);
        if (std::memcmp(fastw, naivew, sizeof(fastw)) != 0) {
            return false;
        }
        fn(a, acols, bw, wide, ones, 5, acols, wide, fastw, wide);
        matmulTNSegBlockedNaive(a, acols, bw, wide, ones, 5, acols, wide,
                                naivew, wide);
        if (std::memcmp(fastw, naivew, sizeof(fastw)) != 0) {
            return false;
        }
    }
    // Third round with ten A columns: one 8-row i block plus a two-row
    // remainder, against both the ragged and layer-width column counts.
    constexpr size_t acols2 = 10;
    double a2[rows * acols2];
    rng.fill(a2, rows * acols2, 5);
    double fast2[acols2 * bcols] = {}, naive2[acols2 * bcols] = {};
    double fast2w[acols2 * wide] = {}, naive2w[acols2 * wide] = {};
    for (int pass = 0; pass < 2; ++pass) {
        fn(a2, acols2, b, bcols, segs, nsegs, acols2, bcols, fast2, bcols);
        matmulTNSegBlockedNaive(a2, acols2, b, bcols, segs, nsegs, acols2,
                                bcols, naive2, bcols);
        if (std::memcmp(fast2, naive2, sizeof(fast2)) != 0) {
            return false;
        }
        fn(a2, acols2, bw, wide, segs, nsegs, acols2, wide, fast2w, wide);
        matmulTNSegBlockedNaive(a2, acols2, bw, wide, segs, nsegs, acols2,
                                wide, naive2w, wide);
        if (std::memcmp(fast2w, naive2w, sizeof(fast2w)) != 0) {
            return false;
        }
    }
    return true;
}

/** A dispatched kernel plus its tier name (see nnkernel::kernelTiers). */
template <class Fn>
struct Picked
{
    Fn fn;
    const char* tier;
};

/**
 * Once-per-process dispatch of one kernel (@p matches is its self-check;
 * the static is per kernel). Every vector tier the CPU supports is
 * self-checked, not only the widest, so a width a toolchain broke counts
 * in kernelTierDemotions() even on a host that would never run it; the
 * widest tier that passes is used, else @p fallback.
 */
template <class Fn, bool (*matches)(Fn)>
const Picked<Fn>&
pickedTier(const LaneTiers<Fn>& tiers, Picked<Fn> fallback)
{
    static const Picked<Fn> picked = [&]() {
        Picked<Fn> best = fallback;
#ifdef PRUNER_NNKERNEL_X86
        const bool avx2 = __builtin_cpu_supports("avx2");
        const struct
        {
            Picked<Fn> tier;
            bool supported;
        } candidates[] = {
            // Narrowest first: the widest tier that passes is kept. The
            // 8-lane tier hands its column tails to the 4-lane code.
            {{tiers.lanes4, "avx2"}, avx2},
            {{tiers.lanes8, "avx512"},
             avx2 && __builtin_cpu_supports("avx512f")},
        };
        for (const auto& c : candidates) {
            if (!c.supported) {
                continue;
            }
            if (matches(c.tier.fn)) {
                best = c.tier;
            } else {
                noteTierDemotion();
            }
        }
#else
        (void)tiers;
#endif
        return best;
    }();
    return picked;
}

const Picked<MatmulFn>&
pickedMatmul()
{
    return pickedTier<MatmulFn, matchesNaiveKernel>(
        kMatmulTiers, {matmulScalarTile, "scalar"});
}

const Picked<MatmulNTFn>&
pickedMatmulNT()
{
    return pickedTier<MatmulNTFn, matchesNaiveKernelNT>(
        kMatmulNTTiers, {matmulNTNaive, "naive"});
}

const Picked<MatmulTNSegFn>&
pickedSegBlocked()
{
    return pickedTier<MatmulTNSegFn, matchesSegBlockedReference>(
        kSegBlockedTiers, {matmulTNSegBlockedNaive, "naive"});
}

/** The frozen naive accumulating TN loop (r outer, zero-skip on A[r,i]
 *  exactly like Matrix::matmulTN): the one-row-segment path of
 *  matmulTNSegBlockedNaive. */
void
matmulTNAccNaive(const double* a, size_t rows, size_t acols, size_t lda,
                 const double* b, size_t bcols, size_t ldb, double* c,
                 size_t ldc)
{
    for (size_t r = 0; r < rows; ++r) {
        const double* arow = a + r * lda;
        const double* brow = b + r * ldb;
        for (size_t i = 0; i < acols; ++i) {
            const double ari = arow[i];
            if (ari == 0.0) {
                continue;
            }
            double* crow = c + i * ldc;
            for (size_t j = 0; j < bcols; ++j) {
                crow[j] += ari * brow[j];
            }
        }
    }
}

} // namespace

KernelTiers
kernelTiers()
{
    return {pickedMatmul().tier, pickedMatmulNT().tier,
            pickedSegBlocked().tier, adamTier()};
}

size_t
kernelTierDemotions()
{
    kernelTiers(); // force every kernel's dispatch self-check
    return g_tier_demotions.load(std::memory_order_relaxed);
}

void
matmul(const double* a, size_t m, size_t k, size_t lda, const double* b,
       size_t n, size_t ldb, double* c, size_t ldc, const double* bias,
       bool relu, bool accumulate, const double* relu_mask)
{
    pickedMatmul().fn(a, m, k, lda, b, n, ldb, c, ldc,
                      Epilogue{bias, relu, accumulate, relu_mask});
}

void
matmulNaive(const double* a, size_t m, size_t k, size_t lda, const double* b,
            size_t n, size_t ldb, double* c, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        double* crow = c + i * ldc;
        std::fill(crow, crow + n, 0.0);
        const double* arow = a + i * lda;
        for (size_t kk = 0; kk < k; ++kk) {
            const double aik = arow[kk];
            if (aik == 0.0) {
                continue;
            }
            const double* brow = b + kk * ldb;
            for (size_t j = 0; j < n; ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
}

void
matmulNT(const double* a, size_t m, size_t k, size_t lda, const double* b,
         size_t n, size_t ldb, double* c, size_t ldc)
{
    pickedMatmulNT().fn(a, m, k, lda, b, n, ldb, c, ldc);
}

void
matmulNTNaive(const double* a, size_t m, size_t k, size_t lda,
              const double* b, size_t n, size_t ldb, double* c, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const double* arow = a + i * lda;
        double* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) {
            const double* brow = b + j * ldb;
            double acc = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                acc += arow[kk] * brow[kk];
            }
            crow[j] = acc;
        }
    }
}

void
matmulTNSegBlocked(const double* a, size_t lda, const double* b, size_t ldb,
                   const size_t* seg_rows, size_t nsegs, size_t acols,
                   size_t bcols, double* c, size_t ldc)
{
    const MatmulTNSegFn fn = pickedSegBlocked().fn;
    // Cache-block the segment list: the tier kernels walk every segment
    // once per C tile, so a pack larger than L2 would stream DRAM once
    // per tile. Splitting the run at whole-segment boundaries keeps each
    // chunk's A/B slices cache-resident; byte-identity is unaffected
    // because C passes through memory exactly (each chunk call resumes
    // the same per-element add chain the unchunked walk performs).
    const size_t bytes_per_row = (lda + ldb) * sizeof(double);
    const size_t kChunkBudget = size_t{384} * 1024;
    const size_t target_rows =
        std::max<size_t>(kChunkBudget / std::max<size_t>(bytes_per_row, 1),
                         64);
    size_t s = 0;
    while (s < nsegs) {
        size_t rows = 0;
        size_t count = 0;
        while (s + count < nsegs && (count == 0 || rows < target_rows)) {
            rows += seg_rows[s + count];
            ++count;
        }
        fn(a, lda, b, ldb, seg_rows + s, count, acols, bcols, c, ldc);
        a += rows * lda;
        b += rows * ldb;
        s += count;
    }
}

void
matmulTNSegBlockedNaive(const double* a, size_t lda, const double* b,
                        size_t ldb, const size_t* seg_rows, size_t nsegs,
                        size_t acols, size_t bcols, double* c, size_t ldc)
{
    for (size_t s = 0; s < nsegs; ++s) {
        const size_t rows = seg_rows[s];
        if (rows == 1) {
            // One-row segment: the batched backward's pre-seg-blocked
            // dispatch accumulated these straight into C.
            matmulTNAccNaive(a, 1, acols, lda, b, bcols, ldb, c, ldc);
        } else {
            // Multi-row segment: the matmulTN chain from zero (ascending
            // r, zero-skip), then one add into C.
            for (size_t i = 0; i < acols; ++i) {
                double* crow = c + i * ldc;
                for (size_t j = 0; j < bcols; ++j) {
                    double acc = 0.0;
                    for (size_t r = 0; r < rows; ++r) {
                        const double ari = a[r * lda + i];
                        if (ari == 0.0) {
                            continue;
                        }
                        acc += ari * b[r * ldb + j];
                    }
                    crow[j] += acc;
                }
            }
        }
        a += rows * lda;
        b += rows * ldb;
    }
}

} // namespace nnkernel

namespace {

/** Satellite guard: rows * cols must not wrap size_t. */
void
checkShapeFits(size_t rows, size_t cols)
{
    PRUNER_CHECK_MSG(cols == 0 ||
                         rows <= std::numeric_limits<size_t>::max() / cols,
                     "Matrix shape " << rows << "x" << cols
                                     << " overflows size_t");
}

} // namespace

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols)
{
    checkShapeFits(rows, cols);
    data_.assign(rows * cols, fill);
}

void
Matrix::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

void
Matrix::resize(size_t rows, size_t cols)
{
    checkShapeFits(rows, cols);
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::appendRows(const Matrix& src, size_t src_row, size_t n_rows)
{
    PRUNER_CHECK_MSG(&src != this,
                     "appendRows source must not alias the destination "
                     "(growth may reallocate the shared buffer)");
    PRUNER_CHECK_MSG(src.cols_ == cols_,
                     "appendRows column mismatch: dst has "
                         << cols_ << " cols, src has " << src.cols_);
    PRUNER_CHECK_MSG(src_row + n_rows <= src.rows_,
                     "appendRows rows [" << src_row << ", "
                                         << src_row + n_rows
                                         << ") out of src range "
                                         << src.rows_);
    const size_t r0 = rows_;
    resize(rows_ + n_rows, cols_);
    if (n_rows > 0 && cols_ > 0) {
        std::memcpy(row(r0), src.row(src_row),
                    n_rows * cols_ * sizeof(double));
    }
}

Matrix
Matrix::sliceRows(size_t row0, size_t n_rows) const
{
    PRUNER_CHECK_MSG(row0 + n_rows <= rows_,
                     "sliceRows [" << row0 << ", " << row0 + n_rows
                                   << ") out of range " << rows_);
    Matrix out(n_rows, cols_);
    if (n_rows > 0 && cols_ > 0) {
        std::memcpy(out.row(0), row(row0), n_rows * cols_ * sizeof(double));
    }
    return out;
}

Matrix
Matrix::randn(size_t rows, size_t cols, Rng& rng, double scale)
{
    Matrix m(rows, cols);
    for (double& v : m.data_) {
        v = rng.normal() * scale;
    }
    return m;
}

Matrix
Matrix::matmul(const Matrix& a, const Matrix& b)
{
    Matrix c;
    matmulInto(a, b, c);
    return c;
}

void
Matrix::matmulInto(const Matrix& a, const Matrix& b, Matrix& c)
{
    PRUNER_CHECK_MSG(a.cols_ == b.rows_,
                     "matmul shape mismatch: [" << a.rows_ << "x" << a.cols_
                                                << "] * [" << b.rows_ << "x"
                                                << b.cols_ << "]");
    PRUNER_CHECK_MSG(&c != &a && &c != &b,
                     "matmulInto output must not alias an input");
    c.resize(a.rows_, b.cols_);
    nnkernel::matmul(a.data_.data(), a.rows_, a.cols_, a.cols_,
                     b.data_.data(), b.cols_, b.cols_, c.data_.data(),
                     c.cols_);
}

Matrix
Matrix::matmulNT(const Matrix& a, const Matrix& b)
{
    PRUNER_CHECK_MSG(a.cols_ == b.cols_,
                     "matmulNT shape mismatch: [" << a.rows_ << "x"
                                                  << a.cols_ << "] * ["
                                                  << b.rows_ << "x"
                                                  << b.cols_ << "]^T");
    Matrix c(a.rows_, b.rows_);
    nnkernel::matmulNT(a.data_.data(), a.rows_, a.cols_, a.cols_,
                       b.data_.data(), b.rows_, b.cols_, c.data_.data(),
                       c.cols_);
    return c;
}

Matrix
Matrix::matmulTN(const Matrix& a, const Matrix& b)
{
    PRUNER_CHECK_MSG(a.rows_ == b.rows_,
                     "matmulTN shape mismatch: [" << a.rows_ << "x"
                                                  << a.cols_ << "]^T * ["
                                                  << b.rows_ << "x"
                                                  << b.cols_ << "]");
    Matrix c(a.cols_, b.cols_);
    for (size_t k = 0; k < a.rows_; ++k) {
        const double* arow = a.row(k);
        const double* brow = b.row(k);
        for (size_t i = 0; i < a.cols_; ++i) {
            const double aki = arow[i];
            if (aki == 0.0) {
                continue;
            }
            double* crow = c.row(i);
            for (size_t j = 0; j < b.cols_; ++j) {
                crow[j] += aki * brow[j];
            }
        }
    }
    return c;
}

void
Matrix::add(const Matrix& other)
{
    PRUNER_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                     "add shape mismatch: [" << rows_ << "x" << cols_
                                             << "] += [" << other.rows_
                                             << "x" << other.cols_ << "]");
    for (size_t i = 0; i < data_.size(); ++i) {
        data_[i] += other.data_[i];
    }
}

void
Matrix::addScaled(const Matrix& other, double scale)
{
    PRUNER_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                     "addScaled shape mismatch: ["
                         << rows_ << "x" << cols_ << "] += s * ["
                         << other.rows_ << "x" << other.cols_ << "]");
    for (size_t i = 0; i < data_.size(); ++i) {
        data_[i] += scale * other.data_[i];
    }
}

void
Matrix::addRowVector(const Matrix& bias)
{
    PRUNER_CHECK_MSG(bias.rows_ == 1 && bias.cols_ == cols_,
                     "addRowVector expects a [1x" << cols_ << "] bias, got ["
                                                  << bias.rows_ << "x"
                                                  << bias.cols_ << "]");
    for (size_t i = 0; i < rows_; ++i) {
        double* r = row(i);
        for (size_t j = 0; j < cols_; ++j) {
            r[j] += bias.data_[j];
        }
    }
}

void
Matrix::hadamard(const Matrix& other)
{
    PRUNER_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                     "hadamard shape mismatch: [" << rows_ << "x" << cols_
                                                  << "] .* ["
                                                  << other.rows_ << "x"
                                                  << other.cols_ << "]");
    for (size_t i = 0; i < data_.size(); ++i) {
        data_[i] *= other.data_[i];
    }
}

void
Matrix::scale(double s)
{
    for (double& v : data_) {
        v *= s;
    }
}

Matrix
Matrix::colSum() const
{
    Matrix out(1, cols_);
    for (size_t i = 0; i < rows_; ++i) {
        const double* r = row(i);
        for (size_t j = 0; j < cols_; ++j) {
            out.data_[j] += r[j];
        }
    }
    return out;
}

Matrix
Matrix::colMean() const
{
    Matrix out = colSum();
    if (rows_ > 0) {
        out.scale(1.0 / static_cast<double>(rows_));
    }
    return out;
}

void
Matrix::softmaxRows()
{
    if (cols_ == 0) {
        return; // nothing to normalize; avoids reading r[0] of empty rows
    }
    for (size_t i = 0; i < rows_; ++i) {
        double* r = row(i);
        double mx = r[0];
        for (size_t j = 1; j < cols_; ++j) {
            mx = std::max(mx, r[j]);
        }
        double sum = 0.0;
        for (size_t j = 0; j < cols_; ++j) {
            r[j] = std::exp(r[j] - mx);
            sum += r[j];
        }
        for (size_t j = 0; j < cols_; ++j) {
            r[j] /= sum;
        }
    }
}

double
Matrix::norm() const
{
    double acc = 0.0;
    for (double v : data_) {
        acc += v * v;
    }
    return std::sqrt(acc);
}

} // namespace pruner
