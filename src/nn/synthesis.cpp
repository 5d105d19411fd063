#include "nn/synthesis.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/worksteal.hpp"

namespace bitwave {

namespace {

/// Kernel-chunk target so one huge layer (BERT's 3072x768 ffn) shards
/// into tens of independent synthesis tasks instead of one monolith.
constexpr std::int64_t kSynthesisChunkElements = 1 << 16;

/// Synthesize kernels [k0, k1) of @p out from @p rng.
void
synthesize_kernel_range(Int8Tensor &out, const WeightProfile &profile,
                        std::int64_t per_kernel, std::int64_t k0,
                        std::int64_t k1, Rng &rng)
{
    std::int64_t i = k0 * per_kernel;
    for (std::int64_t k = k0; k < k1; ++k) {
        const double gain =
            std::exp(rng.gaussian(profile.kernel_gain_sigma));
        const double scale = profile.scale * gain;
        for (std::int64_t j = 0; j < per_kernel; ++j, ++i) {
            if (rng.bernoulli(profile.zero_probability)) {
                out[i] = 0;
                continue;
            }
            const double x =
                profile.distribution == WeightDistribution::kLaplacian
                ? rng.laplacian(scale) : rng.gaussian(scale);
            int code = static_cast<int>(round_half_away(x));
            if (code == 0 && rng.bernoulli(profile.zero_avoidance)) {
                code = rng.bernoulli(0.5) ? 1 : -1;
            }
            out[i] = static_cast<std::int8_t>(
                std::clamp(code, kSignMagMin, kSignMagMax));
        }
    }
}

}  // namespace

Int8Tensor
synthesize_weights(const LayerDesc &desc, const WeightProfile &profile,
                   Rng &rng)
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
        synthesize_kernel_range(out, profile, per_kernel, k0, k1,
                                chunk_rng);
    });
    return out;
}

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
