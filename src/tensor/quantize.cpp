#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"

namespace bitwave {

Int8Tensor
requantize_to_bits(const Int8Tensor &input, int bits)
{
    if (bits < 2 || bits > 8) {
        fatal("requantize_to_bits: bits must be in [2, 8], got %d", bits);
    }
    Int8Tensor out(input.shape());
    if (bits == 8) {
        out = input;
        return out;
    }
    const int shift = 8 - bits;
    const int step = 1 << shift;
    const int max_code = kSignMagMax / step * step;
    for (std::int64_t i = 0; i < input.numel(); ++i) {
        const int v = input[i];
        // Round-to-nearest multiple of `step`, ties away from zero.
        int q = (std::abs(v) + step / 2) / step * step;
        q = std::min(q, max_code);
        out[i] = static_cast<std::int8_t>(v < 0 ? -q : q);
    }
    return out;
}

double
ptq_compression_ratio(int bits)
{
    if (bits <= 0) {
        fatal("ptq_compression_ratio: bits must be positive");
    }
    return 8.0 / static_cast<double>(bits);
}

double
rms_error(const Int8Tensor &a, const Int8Tensor &b)
{
    if (a.shape() != b.shape()) {
        fatal("rms_error: shape mismatch %s vs %s",
              shape_to_string(a.shape()).c_str(),
              shape_to_string(b.shape()).c_str());
    }
    if (a.numel() == 0) {
        return 0.0;
    }
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(a.numel()));
}

}  // namespace bitwave
