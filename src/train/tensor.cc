/**
 * @file
 * Implementation of the dense tensor.
 */

#include "train/tensor.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace rana {

namespace {

std::size_t
shapeSize(const std::vector<std::uint32_t> &shape)
{
    std::size_t total = 1;
    for (std::uint32_t extent : shape)
        total *= extent;
    return shape.empty() ? 0 : total;
}

} // namespace

Tensor::Tensor(std::vector<std::uint32_t> shape)
    : Tensor(uninitialized(std::move(shape)))
{
    fill(0.0f);
}

Tensor
Tensor::uninitialized(std::vector<std::uint32_t> shape)
{
    for (std::uint32_t extent : shape)
        RANA_ASSERT(extent > 0, "tensor dimensions must be positive");
    Tensor tensor;
    tensor.data_.resize(shapeSize(shape));
    tensor.shape_ = std::move(shape);
    return tensor;
}

std::uint32_t
Tensor::dim(std::size_t d) const
{
    RANA_ASSERT(d < shape_.size(), "tensor dimension out of range");
    return shape_[d];
}

float &
Tensor::at4(std::uint32_t n, std::uint32_t c, std::uint32_t h,
            std::uint32_t w)
{
    return data_[((static_cast<std::size_t>(n) * shape_[1] + c) *
                      shape_[2] +
                  h) *
                     shape_[3] +
                 w];
}

float
Tensor::at4(std::uint32_t n, std::uint32_t c, std::uint32_t h,
            std::uint32_t w) const
{
    return const_cast<Tensor *>(this)->at4(n, c, h, w);
}

float &
Tensor::at2(std::uint32_t r, std::uint32_t c)
{
    return data_[static_cast<std::size_t>(r) * shape_[1] + c];
}

float
Tensor::at2(std::uint32_t r, std::uint32_t c) const
{
    return const_cast<Tensor *>(this)->at2(r, c);
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Tensor
Tensor::reshaped(std::vector<std::uint32_t> new_shape) const &
{
    return Tensor(*this).reshaped(std::move(new_shape));
}

Tensor
Tensor::reshaped(std::vector<std::uint32_t> new_shape) &&
{
    RANA_ASSERT(shapeSize(new_shape) == size(),
                "reshape must preserve the element count");
    Tensor result = std::move(*this);
    result.shape_ = std::move(new_shape);
    return result;
}

std::string
Tensor::describeShape() const
{
    std::ostringstream oss;
    oss << "{";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << shape_[i];
    }
    oss << "}";
    return oss.str();
}

} // namespace rana
