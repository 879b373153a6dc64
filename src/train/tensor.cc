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

/** One thread's kept buffers. */
struct RecyclerPool
{
    RecyclerPool() = default;
    RecyclerPool(const RecyclerPool &) = delete;
    RecyclerPool &operator=(const RecyclerPool &) = delete;

    /** (bytes, buffer), oldest first. */
    std::vector<std::pair<std::size_t, void *>> kept;
    std::size_t bytes = 0;

    ~RecyclerPool()
    {
        for (const auto &[size, buffer] : kept)
            ::operator delete(buffer, size);
    }
};

thread_local RecyclerPool recyclerPool;
/**
 * Whether a scope is open on this thread. A plain flag, so the
 * allocations outside a scope never touch the pool.
 */
thread_local bool recycling = false;

} // namespace

BufferRecycler::Scope::Scope()
{
    RANA_ASSERT(!recycling,
                "one buffer recycling scope per thread at a time");
    recycling = true;
}

BufferRecycler::Scope::~Scope()
{
    recycling = false;
}

void *
BufferRecycler::take(std::size_t bytes)
{
    if (!recycling)
        return nullptr;
    RecyclerPool &pool = recyclerPool;
    for (auto it = pool.kept.begin(); it != pool.kept.end(); ++it) {
        if (it->first == bytes) {
            void *buffer = it->second;
            pool.kept.erase(it);
            pool.bytes -= bytes;
            return buffer;
        }
    }
    return nullptr;
}

bool
BufferRecycler::keep(void *buffer, std::size_t bytes)
{
    if (!recycling || bytes > kMaxBytes)
        return false;
    RecyclerPool &pool = recyclerPool;
    while (pool.bytes + bytes > kMaxBytes) {
        const auto [size, oldest] = pool.kept.front();
        ::operator delete(oldest, size);
        pool.kept.erase(pool.kept.begin());
        pool.bytes -= size;
    }
    pool.kept.emplace_back(bytes, buffer);
    pool.bytes += bytes;
    return true;
}

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
