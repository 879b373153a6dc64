/**
 * @file
 * A minimal dense float tensor for the from-scratch training
 * framework behind the retention-aware training method.
 *
 * The tensor is row-major with up to 4 dimensions; convolutional
 * activations use {batch, channels, height, width}.
 */

#ifndef RANA_TRAIN_TENSOR_HH_
#define RANA_TRAIN_TENSOR_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rana {

/**
 * An allocator whose value-less construct() default-initializes: a
 * vector<float> built or resized with it leaves its new elements
 * unwritten instead of zero-filling them. Storage for buffers a
 * kernel overwrites in full.
 */
template <typename T>
struct DefaultInitAllocator : std::allocator<T>
{
    using std::allocator<T>::allocator;

    template <typename U>
    void construct(U *p)
    {
        ::new (static_cast<void *>(p)) U;
    }

    template <typename U, typename... Args>
    void construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** Float storage whose sizing constructor and resize() do not zero. */
using UninitFloats = std::vector<float, DefaultInitAllocator<float>>;

/** Dense row-major float tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(std::vector<std::uint32_t> shape);

    /**
     * A tensor of the given shape whose elements are left unwritten:
     * the output of a kernel that writes every element.
     */
    static Tensor uninitialized(std::vector<std::uint32_t> shape);

    /** Total element count. */
    std::size_t size() const { return data_.size(); }

    /** The shape vector. */
    const std::vector<std::uint32_t> &shape() const { return shape_; }

    /** Extent of one dimension. @pre dim < shape().size(). */
    std::uint32_t dim(std::size_t d) const;

    /** Raw storage. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** 4-D element access for {n, c, h, w} tensors. */
    float &at4(std::uint32_t n, std::uint32_t c, std::uint32_t h,
               std::uint32_t w);
    float at4(std::uint32_t n, std::uint32_t c, std::uint32_t h,
              std::uint32_t w) const;

    /** 2-D element access for {rows, cols} tensors. */
    float &at2(std::uint32_t r, std::uint32_t c);
    float at2(std::uint32_t r, std::uint32_t c) const;

    /** Set every element to `value`. */
    void fill(float value);

    /**
     * Reinterpret with a new shape of identical element count: a
     * copy of an lvalue, and the moved storage of an rvalue.
     */
    Tensor reshaped(std::vector<std::uint32_t> new_shape) const &;
    Tensor reshaped(std::vector<std::uint32_t> new_shape) &&;

    /** "{2,16,12,12}" style description. */
    std::string describeShape() const;

  private:
    std::vector<std::uint32_t> shape_;
    UninitFloats data_;
};

} // namespace rana

#endif // RANA_TRAIN_TENSOR_HH_
