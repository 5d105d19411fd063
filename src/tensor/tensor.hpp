/**
 * @file
 * Lightweight dense N-dimensional tensor used for weights and activations.
 *
 * This is the storage substrate for the whole repository: quantization,
 * sparsity analysis, compression, the reference inference kernels, and the
 * simulator all operate on `Tensor<T>` instances in row-major layout.
 */
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/logging.hpp"

namespace bitwave {

/// A tensor shape: sizes of each dimension, outermost first.
using Shape = std::vector<std::int64_t>;

/// Total number of elements implied by @p shape (1 for a scalar shape).
std::int64_t shape_numel(const Shape &shape);

/// Render a shape as "[a, b, c]" for diagnostics.
std::string shape_to_string(const Shape &shape);

/**
 * Dense row-major tensor.
 *
 * @tparam T element type (float for pre-quantization data, int8_t for
 *           quantized operands, int32_t for accumulators).
 */
template <typename T>
class Tensor
{
  public:
    /// An empty 0-d tensor.
    Tensor() : shape_(), data_() {}

    /// Zero-initialized tensor of the given shape.
    explicit Tensor(Shape shape)
        : shape_(std::move(shape)),
          data_(static_cast<std::size_t>(shape_numel(shape_)), T{})
    {
    }

    /// Tensor wrapping explicit data, which must match the shape's numel.
    Tensor(Shape shape, std::vector<T> data)
        : shape_(std::move(shape)), data_(std::move(data))
    {
        if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
            panic("Tensor data size %zu does not match shape %s",
                  data_.size(), shape_to_string(shape_).c_str());
        }
    }

    const Shape &shape() const { return shape_; }
    std::int64_t numel() const
    {
        return static_cast<std::int64_t>(data_.size());
    }
    std::int64_t dim(std::size_t i) const
    {
        if (i >= shape_.size()) {
            panic("Tensor dim index %zu out of range (rank %zu)", i,
                  shape_.size());
        }
        return shape_[i];
    }
    std::size_t rank() const { return shape_.size(); }

    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }

    T &operator[](std::int64_t i)
    {
        return data_[static_cast<std::size_t>(i)];
    }
    const T &operator[](std::int64_t i) const
    {
        return data_[static_cast<std::size_t>(i)];
    }

    /// Flat offset of a multi-dimensional index (row-major).
    std::int64_t offset(const std::vector<std::int64_t> &index) const
    {
        if (index.size() != shape_.size()) {
            panic("index rank %zu does not match tensor rank %zu",
                  index.size(), shape_.size());
        }
        std::int64_t off = 0;
        for (std::size_t d = 0; d < shape_.size(); ++d) {
            if (index[d] < 0 || index[d] >= shape_[d]) {
                panic("index %lld out of range for dim %zu (size %lld)",
                      static_cast<long long>(index[d]), d,
                      static_cast<long long>(shape_[d]));
            }
            off = off * shape_[d] + index[d];
        }
        return off;
    }

    /// Element access by multi-dimensional index.
    T &at(const std::vector<std::int64_t> &index)
    {
        return data_[static_cast<std::size_t>(offset(index))];
    }
    const T &at(const std::vector<std::int64_t> &index) const
    {
        return data_[static_cast<std::size_t>(offset(index))];
    }

    /// Fill every element with @p value.
    void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

    bool operator==(const Tensor &other) const
    {
        return shape_ == other.shape_ && data_ == other.data_;
    }

  private:
    Shape shape_;
    std::vector<T> data_;
};

using Int8Tensor = Tensor<std::int8_t>;
using Int32Tensor = Tensor<std::int32_t>;

}  // namespace bitwave
