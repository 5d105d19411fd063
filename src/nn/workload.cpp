#include "nn/workload.hpp"

#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"

namespace bitwave {

std::uint64_t
WorkloadLayer::compute_weights_hash() const
{
    std::uint64_t h = fnv1a(weights.data(),
                            static_cast<std::size_t>(weights.numel()));
    h = fnv1a(desc.name.data(), desc.name.size(), h);
    h = hash_combine(h, static_cast<std::uint64_t>(weights.numel()));
    return h;
}

Shape
WorkloadLayer::weight_shape(const LayerDesc &desc)
{
    switch (desc.kind) {
      case LayerKind::kConv:
      case LayerKind::kPointwiseConv:
        return {desc.k, desc.fy, desc.fx, desc.c};
      case LayerKind::kDepthwiseConv:
        return {desc.k, desc.fy, desc.fx};
      case LayerKind::kLinear:
      case LayerKind::kLstm:
        return {desc.k, desc.c};
    }
    return {};
}

std::int64_t
Workload::total_macs() const
{
    std::int64_t n = 0;
    for (const auto &l : layers) {
        n += l.desc.macs();
    }
    return n;
}

std::int64_t
Workload::total_weights() const
{
    std::int64_t n = 0;
    for (const auto &l : layers) {
        n += l.desc.weight_count();
    }
    return n;
}

std::size_t
Workload::layer_index(const std::string &layer_name) const
{
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (layers[i].desc.name == layer_name) {
            return i;
        }
    }
    throw FaultError(ErrorKind::kInvalid,
                     strprintf("workload %s has no layer named %s",
                               name.c_str(), layer_name.c_str()));
}

}  // namespace bitwave
