#include "support/rng.hpp"

#include <cmath>
#include <numbers>

namespace pruner {

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    return seed ^ (splitmix64(value) + 0x9E3779B97F4A7C15ull + (seed << 6) +
                   (seed >> 2));
}

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    // Seed the four xoshiro words through SplitMix64 as recommended by the
    // xoshiro authors; a zero state is impossible this way.
    uint64_t sm = seed;
    for (auto& word : s_) {
        sm = splitmix64(sm);
        word = sm;
    }
}

uint64_t
Rng::operator()()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    PRUNER_CHECK(lo <= hi);
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) { // full 64-bit range
        return static_cast<int64_t>((*this)());
    }
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = max() - max() % range;
    uint64_t draw;
    do {
        draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<int64_t>(draw % range);
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1 = uniform();
    double u2 = uniform();
    while (u1 <= 1e-300) {
        u1 = uniform();
    }
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stdev)
{
    return mean + stdev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

size_t
Rng::index(size_t n)
{
    PRUNER_CHECK(n > 0);
    return static_cast<size_t>(uniformInt(0, static_cast<int64_t>(n) - 1));
}

size_t
Rng::weightedIndex(const std::vector<double>& weights)
{
    return weightedIndex(weights, weightTotal(weights));
}

double
Rng::weightTotal(const std::vector<double>& weights)
{
    double total = 0.0;
    for (double w : weights) {
        PRUNER_CHECK_MSG(w >= 0.0, "negative weight " << w);
        total += w;
    }
    return total;
}

size_t
Rng::weightedIndex(const std::vector<double>& weights, double total)
{
    PRUNER_CHECK(!weights.empty());
    if (total <= 0.0) {
        return index(weights.size());
    }
    double draw = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw <= 0.0) {
            return i;
        }
    }
    return weights.size() - 1;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

RngState
Rng::state() const
{
    RngState out;
    for (size_t i = 0; i < 4; ++i) {
        out.s[i] = s_[i];
    }
    out.has_cached_normal = has_cached_normal_;
    out.cached_normal = cached_normal_;
    return out;
}

void
Rng::setState(const RngState& state)
{
    for (size_t i = 0; i < 4; ++i) {
        s_[i] = state.s[i];
    }
    has_cached_normal_ = state.has_cached_normal;
    cached_normal_ = state.cached_normal;
}

} // namespace pruner
