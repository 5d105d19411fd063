#include "nn/synthesis.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/worksteal.hpp"

namespace bitwave {

namespace {

using detail::FinishFn;
using detail::RefillVariant;

/// Kernel-chunk target so one huge layer (BERT's 3072x768 ffn) shards
/// into tens of independent synthesis tasks instead of one monolith.
constexpr std::int64_t kSynthesisChunkElements = 1 << 16;

/// Nonzero samples a batch holds before its log pass runs.
constexpr std::size_t kBatch = 256;

/// The walk's zero test settles a sample by its bracket only when |x|
/// lies further than this from 0.5, where neither the bracket's own
/// rounding nor the in-house log's error can carry it across; any other
/// sample is finished, and its value decides.
constexpr double kZeroBand = 1e-7;
constexpr double kBelowZeroBand = 0.5 - kZeroBand;
constexpr double kAboveZeroBand = 0.5 + kZeroBand;

/// A draw as both passes carry it: the value whose log the finishing
/// formula takes, and the rest of the draw.
struct Operands
{
    double arg;
    double other;
};

/// 1/3 rounded down, so d^3 * kThird stays a lower bound without a
/// division.
constexpr double kThird = 1.0 / 3.0;

/// Where a sample's |x| certainly lies, by bounds that take no log.
enum class Bracket { kZero, kNonzero, kUnsure };

/// Rng::laplacian at scale `scale`: operands (t, sign).
struct LaplacianAt
{
    static constexpr FinishFn RefillVariant::*kFinish =
        &RefillVariant::laplacian;
    double scale;

    static Operands draw(Rng &rng)
    {
        const Rng::LaplacianDraw d = rng.laplacian_draw();
        return {d.t, d.sign};
    }

    /// |x| = |scale| * -ln t, and -ln t lies in [d + d^2/2 + d^3/3,
    /// d/t].
    Bracket bracket(Operands o) const
    {
        const double t = o.arg, d = 1.0 - t, b = std::abs(scale);
        if (b * d < kBelowZeroBand * t) {
            return Bracket::kZero;
        }
        if (b * (d + d * d * (0.5 + d * kThird)) > kAboveZeroBand) {
            return Bracket::kNonzero;
        }
        return Bracket::kUnsure;
    }
};

/// Rng::gaussian at standard deviation `scale`: operands (r^2, y).
struct GaussianAt
{
    static constexpr FinishFn RefillVariant::*kFinish =
        &RefillVariant::gaussian;
    double scale;
    double two_sigma2 = 2.0 * scale * scale;

    static Operands draw(Rng &rng)
    {
        const Rng::PolarPair p = rng.polar_pair();
        return {p.r2, p.y};
    }

    /// x^2 = 2 sigma^2 y^2 (-ln r2) / r2, and -ln r2 lies in
    /// [d + d^2/2 + d^3/3, d/r2].
    Bracket bracket(Operands o) const
    {
        const double r2 = o.arg, d = 1.0 - r2;
        const double q = two_sigma2 * o.other * o.other;
        if (q * d < kBelowZeroBand * kBelowZeroBand * r2 * r2) {
            return Bracket::kZero;
        }
        if (q * (d + d * d * (0.5 + d * kThird)) >
            kAboveZeroBand * kAboveZeroBand * r2) {
            return Bracket::kNonzero;
        }
        return Bracket::kUnsure;
    }
};

/// One kernel's distribution, and the variant that finishes its draws.
template <class Dist>
struct Sampler
{
    Dist dist;
    const RefillVariant &variant;

    /// Finish @p n draws with the in-house log.
    void finish(const double *arg, const double *other, double *x,
                std::size_t n) const
    {
        (variant.*Dist::kFinish)(dist.scale, arg, other, x, n);
    }

    /// The walk's zero test: whether draw @p o rounds to a nonzero
    /// code. The bracket settles it, or else the sample's own value.
    bool nonzero(Operands o) const
    {
        const Bracket bracket = dist.bracket(o);
        if (bracket != Bracket::kUnsure) {
            return bracket == Bracket::kNonzero;
        }
        double x;
        finish(&o.arg, &o.other, &x, 1);
        return std::abs(x) >= 0.5;
    }
};

/// Nonzero samples awaiting their logs, and where each code goes.
struct Batch
{
    double arg[kBatch];
    double other[kBatch];
    std::uint32_t at[kBatch];
    std::size_t n = 0;

    /// Queue draw @p o, whose code goes to `out[where]`; a full batch
    /// is flushed.
    template <class Dist>
    void push(const Sampler<Dist> &sampler, std::int8_t *out, Operands o,
              std::uint32_t where)
    {
        arg[n] = o.arg;
        other[n] = o.other;
        at[n] = where;
        if (++n == kBatch) {
            flush(sampler, out);
        }
    }

    /// Finish and round every sample into @p out, and empty the batch.
    template <class Dist>
    void flush(const Sampler<Dist> &sampler, std::int8_t *out)
    {
        double x[kBatch];
        sampler.finish(arg, other, x, n);
        for (std::size_t i = 0; i < n; ++i) {
            // Half away from zero; past 128 every code clamps to 127. The
            // sign is a coin flip: a branch on it mispredicts every other
            // sample, so it multiplies.
            const double a = std::min(std::abs(x[i]), 128.0);
            const int whole = static_cast<int>(a);
            const int code = std::min(whole + (a - whole >= 0.5), kSignMagMax);
            const int sign = 1 - 2 * static_cast<int>(x[i] < 0);
            out[at[i]] = static_cast<std::int8_t>(sign * code);
        }
        n = 0;
    }
};

/// The walk over one kernel of @p n weights into @p out, zero-filled.
template <class Dist>
void
walk_kernel(std::int8_t *out, std::int64_t n, const Sampler<Dist> &sampler,
            const WeightProfile &profile, Rng &rng, Batch &batch)
{
    for (std::int64_t j = 0; j < n; ++j) {
        if (rng.bernoulli(profile.zero_probability)) {
            continue;
        }
        const Operands o = Dist::draw(rng);
        if (sampler.nonzero(o)) {
            batch.push(sampler, out, o, static_cast<std::uint32_t>(j));
        } else if (rng.bernoulli(profile.zero_avoidance)) {
            out[j] = rng.bernoulli(0.5) ? 1 : -1;
        }
    }
    batch.flush(sampler, out);
}

/// Synthesize kernels [k0, k1) of @p out from @p rng.
template <class Dist>
void
synthesize_kernel_range(std::int8_t *out, const WeightProfile &profile,
                        std::int64_t per_kernel, std::int64_t k0,
                        std::int64_t k1, Rng &rng,
                        const RefillVariant &variant)
{
    Batch batch;
    for (std::int64_t k = k0; k < k1; ++k) {
        const double gain =
            fdlibm_exp(rng.gaussian(profile.kernel_gain_sigma));
        const Sampler<Dist> sampler{Dist{profile.scale * gain}, variant};
        walk_kernel(out + k * per_kernel, per_kernel, sampler, profile, rng,
                    batch);
    }
}

}  // namespace

Int8Tensor
synthesize_weights(const LayerDesc &desc, const WeightProfile &profile,
                   Rng &rng)
{
    return detail::synthesize_weights(desc, profile, rng,
                                      detail::active_refill());
}

namespace detail {

Int8Tensor
synthesize_weights(const LayerDesc &desc, const WeightProfile &profile,
                   Rng &rng, const RefillVariant &variant)
{
    Int8Tensor out(WorkloadLayer::weight_shape(desc));
    const std::int64_t kernels = out.rank() > 0 ? out.dim(0) : 1;
    const std::int64_t per_kernel =
        kernels > 0 ? out.numel() / kernels : out.numel();

    // Every kernel chunk draws from its own stream derived from a base
    // seed pulled off the caller's generator: the result is a pure
    // function of (shape, profile, rng state) — independent of how many
    // workers run the chunks — and cold-start synthesis of one huge
    // layer is no longer a single monolithic task.
    const std::uint64_t base = rng.engine()();
    const std::int64_t chunk_kernels = std::max<std::int64_t>(
        1, kSynthesisChunkElements / std::max<std::int64_t>(per_kernel, 1));
    const std::int64_t chunks = ceil_div(std::max<std::int64_t>(kernels, 1),
                                         chunk_kernels);
    worksteal_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
        const std::int64_t k0 =
            static_cast<std::int64_t>(c) * chunk_kernels;
        const std::int64_t k1 =
            std::min<std::int64_t>(k0 + chunk_kernels, kernels);
        Rng chunk_rng(hash_combine(base, static_cast<std::uint64_t>(c)));
        if (profile.distribution == WeightDistribution::kLaplacian) {
            synthesize_kernel_range<LaplacianAt>(
                out.data(), profile, per_kernel, k0, k1, chunk_rng, variant);
        } else {
            synthesize_kernel_range<GaussianAt>(
                out.data(), profile, per_kernel, k0, k1, chunk_rng, variant);
        }
    });
    return out;
}

void
weight_codes(WeightDistribution distribution, double scale,
             std::span<const double> arg, std::span<const double> other,
             std::span<std::int8_t> codes, const RefillVariant &variant)
{
    const auto run = [&](auto dist) {
        const Sampler<decltype(dist)> sampler{dist, variant};
        Batch batch;
        for (std::size_t i = 0; i < codes.size(); ++i) {
            const Operands o{arg[i], other[i]};
            codes[i] = 0;
            if (sampler.nonzero(o)) {
                batch.push(sampler, codes.data(), o,
                           static_cast<std::uint32_t>(i));
            }
        }
        batch.flush(sampler, codes.data());
    };
    if (distribution == WeightDistribution::kLaplacian) {
        run(LaplacianAt{scale});
    } else {
        run(GaussianAt{scale});
    }
}

}  // namespace detail

Int8Tensor
synthesize_activations(const Shape &shape, double value_sparsity,
                       double scale, bool relu, Rng &rng)
{
    Int8Tensor out(shape);
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        if (rng.bernoulli(value_sparsity)) {
            out[i] = 0;
            continue;
        }
        double x = rng.laplacian(scale);
        if (relu) {
            x = std::abs(x);
        }
        out[i] = static_cast<std::int8_t>(std::clamp<int>(
            static_cast<int>(round_half_away(x)), kSignMagMin, kSignMagMax));
    }
    return out;
}

}  // namespace bitwave
