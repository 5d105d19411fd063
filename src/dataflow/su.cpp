#include "dataflow/su.hpp"

#include "common/bits.hpp"
#include "common/logging.hpp"

namespace bitwave {

const char *
dim_name(Dim dim)
{
    switch (dim) {
      case Dim::kK: return "K";
      case Dim::kC: return "C";
      case Dim::kOX: return "OX";
      case Dim::kOY: return "OY";
      case Dim::kFX: return "FX";
      case Dim::kFY: return "FY";
    }
    return "?";
}

std::int64_t
layer_dim(const LayerDesc &desc, Dim dim)
{
    switch (dim) {
      case Dim::kK: return desc.k;
      case Dim::kC: return desc.c;
      case Dim::kOX: return desc.ox;
      case Dim::kOY: return desc.oy;
      case Dim::kFX: return desc.fx;
      case Dim::kFY: return desc.fy;
    }
    return 1;
}

std::int64_t
SpatialUnrolling::factor(Dim dim) const
{
    const auto it = factors.find(dim);
    return it == factors.end() ? 1 : it->second;
}

std::int64_t
SpatialUnrolling::lanes() const
{
    std::int64_t n = 1;
    for (const auto &[dim, f] : factors) {
        n *= f;
    }
    return n;
}

std::int64_t
SpatialUnrolling::weight_bandwidth_bits() const
{
    // One bit per weight lane per cycle: the C x K (x F) cross section.
    return factor(Dim::kC) * factor(Dim::kK) * factor(Dim::kFX) *
        factor(Dim::kFY);
}

std::int64_t
SpatialUnrolling::activation_bandwidth_bits() const
{
    // Full-precision activations for the C x OX x OY cross section.
    // Depthwise SUs unroll channels along K, and every channel needs its
    // own activations (Table I: SU7 Act BW = 64 * 2 * 8 = 1024).
    const std::int64_t chan = depthwise_only ? factor(Dim::kK)
                                             : factor(Dim::kC);
    return kWordBits * chan * factor(Dim::kOX) * factor(Dim::kOY) *
        factor(Dim::kFX) * factor(Dim::kFY);
}

std::int64_t
SpatialUnrolling::group_size() const
{
    if (depthwise_only) {
        return factor(Dim::kK);
    }
    return factor(Dim::kC);
}

std::string
dataflows_error(const std::vector<SpatialUnrolling> &sus)
{
    if (sus.empty()) {
        return "no dataflows";
    }
    for (const auto &su : sus) {
        if (su.bit_columns < 1) {
            return su.name + ": bit_columns < 1";
        }
        for (const auto &[dim, f] : su.factors) {
            if (f < 1) {
                return su.name + ": " + dim_name(dim) + " factor < 1";
            }
        }
    }
    return {};
}

const std::vector<SpatialUnrolling> &
bitwave_sus()
{
    static const std::vector<SpatialUnrolling> sus = [] {
        std::vector<SpatialUnrolling> v;
        v.push_back({"SU1", {{Dim::kC, 8}, {Dim::kOX, 16}, {Dim::kK, 32}}});
        v.push_back({"SU2", {{Dim::kC, 16}, {Dim::kOX, 8}, {Dim::kK, 32}}});
        v.push_back({"SU3", {{Dim::kC, 32}, {Dim::kOX, 4}, {Dim::kK, 32}}});
        // SU4-SU6 unroll 1024 positions and process 4 bit columns per
        // cycle (Table I: 1024 weight bits/cycle).
        SpatialUnrolling su4{"SU4",
                             {{Dim::kC, 8}, {Dim::kOX, 1}, {Dim::kK, 128}}};
        su4.bit_columns = 4;
        v.push_back(std::move(su4));
        SpatialUnrolling su5{"SU5",
                             {{Dim::kC, 16}, {Dim::kOX, 1}, {Dim::kK, 64}}};
        su5.bit_columns = 4;
        v.push_back(std::move(su5));
        SpatialUnrolling su6{"SU6",
                             {{Dim::kC, 32}, {Dim::kOX, 1}, {Dim::kK, 32}}};
        su6.bit_columns = 4;
        v.push_back(std::move(su6));
        // SU7 [Gu = 64, OXu = 2, Ku = 1]: depthwise channels map onto K,
        // full bit-column parallelism per weight.
        SpatialUnrolling su7{"SU7", {{Dim::kK, 64}, {Dim::kOX, 2}}};
        su7.depthwise_only = true;
        su7.bit_columns = 8;
        v.push_back(std::move(su7));
        return v;
    }();
    return sus;
}

std::vector<SpatialUnrolling>
fixed_su_baselines(std::int64_t lanes)
{
    if (lanes == 4096) {
        return {
            {"XY", {{Dim::kOX, 32}, {Dim::kOY, 16}, {Dim::kK, 8}}},
            {"CK", {{Dim::kC, 64}, {Dim::kK, 64}}},
            {"XFx", {{Dim::kOX, 32}, {Dim::kFX, 8}, {Dim::kK, 16}}},
        };
    }
    if (lanes == 512) {
        return {
            {"XY", {{Dim::kOX, 16}, {Dim::kOY, 8}, {Dim::kK, 4}}},
            {"CK", {{Dim::kC, 32}, {Dim::kK, 16}}},
            {"XFx", {{Dim::kOX, 16}, {Dim::kFX, 4}, {Dim::kK, 8}}},
        };
    }
    fatal("fixed_su_baselines: unsupported lane count %lld",
          static_cast<long long>(lanes));
}

SpatialUnrolling
dense_reference_su()
{
    return {"Dense[K64,C64]", {{Dim::kK, 64}, {Dim::kC, 64}}};
}

double
spatial_utilization(const LayerDesc &desc, const SpatialUnrolling &su)
{
    double util = 1.0;
    for (const auto &[dim, f] : su.factors) {
        const std::int64_t d = layer_dim(desc, dim);
        const std::int64_t tiles = ceil_div(d, f);
        util *= static_cast<double>(d) / static_cast<double>(tiles * f);
    }
    return util;
}

std::int64_t
temporal_iterations(const LayerDesc &desc, const SpatialUnrolling &su)
{
    std::int64_t iters = desc.batch;
    for (Dim dim : {Dim::kK, Dim::kC, Dim::kOX, Dim::kOY, Dim::kFX,
                    Dim::kFY}) {
        iters *= ceil_div(layer_dim(desc, dim), su.factor(dim));
    }
    return iters;
}

LayerDesc
normalized_for_mapping(const LayerDesc &desc)
{
    LayerDesc norm = desc;
    if (desc.kind == LayerKind::kLinear || desc.kind == LayerKind::kLstm) {
        norm.ox = desc.batch;
        norm.batch = 1;
    }
    return norm;
}

const SpatialUnrolling &
select_su(const LayerDesc &desc,
          const std::vector<SpatialUnrolling> &candidates)
{
    if (candidates.empty()) {
        fatal("select_su: empty candidate set");
    }
    const bool depthwise = desc.kind == LayerKind::kDepthwiseConv;
    const SpatialUnrolling *best = nullptr;
    double best_util = -1.0;
    for (const auto &su : candidates) {
        if (su.depthwise_only && !depthwise) {
            continue;
        }
        const double util = spatial_utilization(desc, su);
        if (util > best_util) {
            best_util = util;
            best = &su;
        }
    }
    if (best == nullptr) {
        // Only depthwise-only SUs offered for a non-depthwise layer.
        return candidates.front();
    }
    return *best;
}

}  // namespace bitwave
