#include "nn/workloads.hpp"

#include <array>
#include <iterator>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/lru.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/worksteal.hpp"
#include "nn/synthesis.hpp"

namespace bitwave {

namespace {

/// Append a layer: its shape, its synthesis profile and the activation
/// sparsity the models read. Weights stay empty until synthesize_layer().
void
add_layer(Workload &w, LayerDesc desc, const WeightProfile &profile,
          double act_sparsity)
{
    WorkloadLayer layer;
    layer.desc = std::move(desc);
    layer.profile = profile;
    layer.weight_scale = 0.02f;  // representative per-tensor scale
    layer.activation_sparsity = act_sparsity;
    w.layers.push_back(std::move(layer));
}

/**
 * Weight profile for a CNN layer at relative depth @p depth (0..1).
 * Later layers are trained toward smaller effective magnitudes (more
 * redundancy), which per-channel PTQ turns into more peaked Int8 codes —
 * the gradient that makes late layers flip-tolerant in Fig. 6.
 */
WeightProfile
cnn_profile(double depth, double zero_prob, double base_scale = 7.0,
            double scale_slope = 3.0)
{
    WeightProfile p;
    p.distribution = WeightDistribution::kLaplacian;
    p.scale = base_scale - scale_slope * depth;  // broader early, peaked late
    p.zero_probability = zero_prob;
    p.zero_avoidance = 0.8;
    return p;
}

/// ResNet18 for 224x224 ImageNet input (paper baseline top-1 69.8 %).
Workload
resnet18()
{
    Workload w;
    w.name = "ResNet18";
    w.metric_name = "top-1";
    w.base_metric = 69.8;
    w.error_sensitivity = 2.0;

    // Stem. Input image has no value sparsity.
    add_layer(w, make_conv("conv1", 64, 3, 112, 112, 7, 7, 2),
              cnn_profile(0.0, 0.03), 0.0);

    // Residual stages. Post-ReLU activation sparsity ~0.4 throughout.
    struct Stage { int channels, size, blocks; };
    const Stage stages[] = {{64, 56, 2}, {128, 28, 2},
                            {256, 14, 2}, {512, 7, 2}};
    int prev = 64;
    int conv_idx = 1;
    const int total_convs = 17;
    for (int s = 0; s < 4; ++s) {
        const auto &st = stages[s];
        for (int b = 0; b < st.blocks; ++b) {
            const bool down = s > 0 && b == 0;
            const int in_ch = b == 0 ? prev : st.channels;
            const double depth =
                static_cast<double>(conv_idx) / total_convs;
            // conv2 of the paper (first 3x3 of stage 1) carries ~20 %
            // zero values and a very peaked magnitude profile (Fig. 4).
            WeightProfile prof = cnn_profile(depth, 0.04);
            if (conv_idx == 1) {
                prof.scale = 3.0;
                prof.zero_probability = 0.05;
                prof.zero_avoidance = 0.0;
            }
            add_layer(w,
                      make_conv(strprintf("l%d.%d.conv1", s + 1, b),
                                st.channels, in_ch, st.size, st.size, 3, 3,
                                down ? 2 : 1),
                      prof, 0.4);
            ++conv_idx;
            add_layer(w,
                      make_conv(strprintf("l%d.%d.conv2", s + 1, b),
                                st.channels, st.channels, st.size, st.size,
                                3, 3, 1),
                      cnn_profile(static_cast<double>(conv_idx) / total_convs,
                                  0.04),
                      0.4);
            ++conv_idx;
            if (down) {
                add_layer(w,
                          make_pointwise(strprintf("l%d.%d.down", s + 1, b),
                                         st.channels, prev, st.size, st.size),
                          cnn_profile(depth, 0.04), 0.4);
            }
        }
        prev = st.channels;
    }

    add_layer(w, make_linear("fc", 1000, 512), cnn_profile(1.0, 0.04), 0.4);
    return w;
}

/// MobileNetV2 for 224x224 ImageNet input (top-1 71.9 %).
Workload
mobilenet_v2()
{
    Workload w;
    w.name = "MobileNetV2";
    w.metric_name = "top-1";
    w.base_metric = 71.9;
    w.error_sensitivity = 6.0;

    add_layer(w, make_conv("conv0", 32, 3, 112, 112, 3, 3, 2),
              cnn_profile(0.0, 0.03, 6.0), 0.0);

    // Inverted residual settings (t, c, n, s) from the MobileNetV2 paper.
    struct Block { int t, c, n, s; };
    const Block cfg[] = {{1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2},
                         {6, 64, 4, 2},  {6, 96, 3, 1},  {6, 160, 3, 2},
                         {6, 320, 1, 1}};
    int in_ch = 32;
    int size = 112;
    int layer_no = 1;
    const int total = 52;
    for (const auto &blk : cfg) {
        for (int r = 0; r < blk.n; ++r) {
            const int stride = r == 0 ? blk.s : 1;
            const int exp_ch = in_ch * blk.t;
            const int out_size = stride == 2 ? size / 2 : size;
            const double depth = static_cast<double>(layer_no) / total;
            if (blk.t != 1) {
                add_layer(w,
                          make_pointwise(strprintf("L.%d.pw_exp", layer_no),
                                         exp_ch, in_ch, size, size),
                          cnn_profile(depth, 0.03, 6.0), 0.35);
                ++layer_no;
            }
            add_layer(w,
                      make_depthwise(strprintf("L.%d.dw", layer_no), exp_ch,
                                     out_size, out_size, 3, stride),
                      cnn_profile(depth, 0.03, 6.0), 0.35);
            ++layer_no;
            // Projection layer has a linear (no ReLU) output, but its
            // *input* comes from ReLU6.
            add_layer(w,
                      make_pointwise(strprintf("L.%d.pw_proj", layer_no),
                                     blk.c, exp_ch, out_size, out_size),
                      cnn_profile(depth, 0.03, 6.0), 0.35);
            ++layer_no;
            in_ch = blk.c;
            size = out_size;
        }
    }

    add_layer(w, make_pointwise("L.51.conv_last", 1280, 320, 7, 7),
              cnn_profile(1.0, 0.03, 6.0), 0.35);
    add_layer(w, make_linear("fc", 1000, 1280),
              cnn_profile(1.0, 0.03, 6.0), 0.35);
    return w;
}

/// CNN-LSTM audio denoiser: conv front-end + 2 LSTM layers + FC (PESQ),
/// over 100 spectrogram frames.
Workload
cnn_lstm()
{
    const std::int64_t timesteps = 100;
    Workload w;
    w.name = "CNN-LSTM";
    w.metric_name = "PESQ";
    w.base_metric = 3.20;
    w.error_sensitivity = 1.6;

    // Conv front-end over the spectrogram (257 bins x T frames).
    add_layer(w, make_conv("conv1", 32, 1, 128, timesteps, 5, 5, 2),
              cnn_profile(0.1, 0.05, 5.0), 0.0);
    add_layer(w, make_conv("conv2", 64, 32, 64, timesteps, 3, 3, 2),
              cnn_profile(0.2, 0.05, 5.0), 0.4);
    // Feature projection into the recurrent stack.
    add_layer(w, make_linear("fc_in", 256, 256, timesteps),
              cnn_profile(0.4, 0.05, 4.0), 0.4);
    // LSTM stack: sigmoid/tanh gates yield near-zero activation sparsity,
    // the property that sinks value-sparsity accelerators on this net.
    add_layer(w, make_lstm("LSTM.0", 256, 256, timesteps),
              cnn_profile(0.7, 0.06, 2.8, 0.0), 0.05);
    add_layer(w, make_lstm("LSTM.1", 256, 256, timesteps),
              cnn_profile(0.9, 0.06, 2.8, 0.0), 0.05);
    add_layer(w, make_linear("fc_out", 257, 256, timesteps),
              cnn_profile(1.0, 0.05, 3.0), 0.05);
    return w;
}

/// BERT-Base encoder stack, 12 layers, hidden 768, token size 4 (F1).
Workload
bert_base()
{
    const std::int64_t tokens = 4;
    Workload w;
    w.name = "Bert-Base";
    w.metric_name = "F1";
    w.base_metric = 88.5;
    w.error_sensitivity = 0.25;

    // Transformer weights are broader / closer to Gaussian than conv
    // weights: the original Int8 model has few zero bit columns
    // (Section III-D), which is why BERT needs Bit-Flip to benefit.
    WeightProfile attn;
    attn.distribution = WeightDistribution::kGaussian;
    attn.scale = 28.0;
    attn.zero_probability = 0.005;
    attn.zero_avoidance = 0.5;
    attn.kernel_gain_sigma = 0.3;
    WeightProfile ffn = attn;
    ffn.scale = 24.0;

    const std::int64_t h = 768;
    for (int l = 0; l < 12; ++l) {
        // bert.encoder.layer.1 is especially flip-sensitive (Fig. 6(d)):
        // give the early layers slightly broader weights.
        WeightProfile layer_attn = attn;
        if (l >= 1 && l <= 3) {
            layer_attn.scale = 34.0;
        }
        add_layer(w, make_linear(strprintf("layer.%d.q", l), h, h, tokens),
                  layer_attn, 0.0);
        add_layer(w, make_linear(strprintf("layer.%d.k", l), h, h, tokens),
                  layer_attn, 0.0);
        add_layer(w, make_linear(strprintf("layer.%d.v", l), h, h, tokens),
                  layer_attn, 0.0);
        add_layer(w,
                  make_linear(strprintf("layer.%d.attn_out", l), h, h,
                              tokens),
                  layer_attn, 0.0);
        // GeLU leaves ~10 % exact zeros after quantization.
        add_layer(w,
                  make_linear(strprintf("layer.%d.ffn_in", l), 4 * h, h,
                              tokens),
                  ffn, 0.0);
        add_layer(w,
                  make_linear(strprintf("layer.%d.ffn_out", l), h, 4 * h,
                              tokens),
                  ffn, 0.10);
    }
    return w;
}

/// The structure of benchmark network @p id, without its seed.
Workload
network_structure(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kResNet18: return resnet18();
      case WorkloadId::kMobileNetV2: return mobilenet_v2();
      case WorkloadId::kCnnLstm: return cnn_lstm();
      case WorkloadId::kBertBase: return bert_base();
    }
    fatal("unknown workload id");
}

}  // namespace

const char *
workload_name(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kResNet18: return "ResNet18";
      case WorkloadId::kMobileNetV2: return "MobileNetV2";
      case WorkloadId::kCnnLstm: return "CNN-LSTM";
      case WorkloadId::kBertBase: return "Bert-Base";
    }
    return "?";
}

Workload
build_workload_skeleton(WorkloadId id, std::uint64_t seed)
{
    Workload w = network_structure(id);
    w.seed = seed;
    return w;
}

void
synthesize_layer(Workload &skeleton, std::size_t index)
{
    WorkloadLayer &layer = skeleton.layers[index];
    Rng rng(hash_combine(hash_combine(kFnvBasis, skeleton.seed),
                         static_cast<std::uint64_t>(index)));
    layer.weights = synthesize_weights(layer.desc, layer.profile, rng);
    layer.weights_hash = layer.compute_weights_hash();
}

Workload
build_workload(WorkloadId id, std::uint64_t seed)
{
    Workload w = build_workload_skeleton(id, seed);
    worksteal_for(w.layers.size(), [&](std::size_t i) {
        trace::Span span("workload.build", "workload");
        span.arg("network", static_cast<std::uint64_t>(id));
        span.arg("layer", i);
        synthesize_layer(w, i);
    });
    std::uint64_t h = fnv1a(w.name.data(), w.name.size());
    h = hash_combine(h, seed);
    for (const auto &layer : w.layers) {
        h = hash_combine(h, layer.weights_hash);
    }
    w.content_hash = h;
    return w;
}

std::shared_ptr<const Workload>
shared_workload(WorkloadId id)
{
    // One build-once slot per network, held for the process lifetime:
    // there are four networks, so a bounded cache over them bounds
    // nothing. Concurrent first touches of one network wait for its
    // build; different networks never serialize. A build that throws
    // leaves the slot unbuilt and the next call retries.
    static std::array<BuildOnce<Workload>, std::size(kAllWorkloads)> slots;
    return slots[static_cast<std::size_t>(id)].get([id] {
        metrics::counter("cache.workloads.misses").inc();
        return build_workload(id);
    });
}

const Workload &
get_workload(WorkloadId id)
{
    return *shared_workload(id);
}

}  // namespace bitwave
