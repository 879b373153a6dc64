/**
 * @file
 * Kernel table of the traced campaign and serve runs. The MiniVgg
 * and MiniAlex layer shapes are replayed through the public lane-
 * major kernels (convolveTrialLanes, denseTrialLanes,
 * maxPoolTrialLanes) at 16 lanes over the campaign's test batch (the
 * fault-trial shape) and at 8 and 1 lanes over one sample per lane
 * (the serving shape), plus the scalar Conv2dLayer::forward over one
 * sample. Each row reports MACs and bytes moved; the bytes are
 * computed from the tensor shapes (operands read once, output
 * written once), not measured.
 */

#include <algorithm>
#include <memory>

#include "common.hh"
#include "train/layer.hh"
#include "train/layers.hh"
#include "train/trial_batch.hh"
#include "util/random.hh"

namespace perfbench {

namespace {

using namespace rana;

/** One layer of a mini model, in the model's order. */
struct Shape
{
    std::string model;
    std::string layer;
    enum Kind { Conv, Pool, Dense } kind = Conv;
    std::uint32_t inChannels = 0;
    std::uint32_t outChannels = 0;
    std::uint32_t size = 0;
    std::uint32_t kernel = 0;
    std::uint32_t pad = 0;
};

/**
 * MiniVgg and MiniAlex layer shapes for `image` x `image` inputs, as
 * train/mini_models.cc builds them (stride-1 convolutions, 2x2
 * pools, one dense head).
 */
std::vector<Shape>
miniShapes(std::uint32_t image, std::uint32_t classes)
{
    const std::uint32_t half = image / 2;
    const std::uint32_t quarter = image / 4;
    const std::uint32_t head = 16 * quarter * quarter;
    return {
        {"MiniVgg", "conv1", Shape::Conv, 1, 8, image, 3, 1},
        {"MiniVgg", "conv2", Shape::Conv, 8, 8, image, 3, 1},
        {"MiniVgg", "pool1", Shape::Pool, 8, 8, image, 0, 0},
        {"MiniVgg", "conv3", Shape::Conv, 8, 16, half, 3, 1},
        {"MiniVgg", "conv4", Shape::Conv, 16, 16, half, 3, 1},
        {"MiniVgg", "pool2", Shape::Pool, 16, 16, half, 0, 0},
        {"MiniVgg", "dense", Shape::Dense, head, classes, 1, 0, 0},
        {"MiniAlex", "conv1", Shape::Conv, 1, 8, image, 5, 2},
        {"MiniAlex", "pool1", Shape::Pool, 8, 8, image, 0, 0},
        {"MiniAlex", "conv2", Shape::Conv, 8, 16, half, 5, 2},
        {"MiniAlex", "pool2", Shape::Pool, 16, 16, half, 0, 0},
        {"MiniAlex", "dense", Shape::Dense, head, classes, 1, 0, 0},
    };
}

std::vector<float>
randomBuffer(std::size_t count, Rng &rng)
{
    std::vector<float> data(count);
    for (float &value : data)
        value = static_cast<float>(rng.uniform(-1.0, 1.0));
    return data;
}

/**
 * Call `kernel` until `min_seconds` pass (at least three calls);
 * returns the calls made and their wall seconds.
 */
template <typename Fn>
std::pair<std::uint64_t, double>
timeCalls(double min_seconds, Fn &&kernel)
{
    std::uint64_t calls = 0;
    const Clock::time_point start = Clock::now();
    double seconds = 0.0;
    while (calls < 3 || seconds < min_seconds) {
        kernel();
        ++calls;
        seconds = secondsSince(start);
    }
    return {calls, seconds};
}

KernelRow
laneKernel(const Shape &shape, std::uint32_t lanes, std::uint32_t batch,
           double min_seconds, Rng &rng)
{
    KernelRow row;
    row.model = shape.model;
    row.layer = shape.layer;
    row.lanes = lanes;
    row.batch = batch;
    const std::uint64_t L = lanes;
    const std::uint64_t B = batch;
    const std::uint64_t N = shape.inChannels;
    const std::uint64_t M = shape.outChannels;
    const std::uint64_t S = shape.size;
    std::uint64_t macs = 0;
    std::uint64_t elements = 0;
    std::pair<std::uint64_t, double> timed;
    if (shape.kind == Shape::Conv) {
        row.kernel = "conv";
        const std::uint64_t K = shape.kernel;
        const std::vector<float> in = randomBuffer(B * N * S * S * L, rng);
        const std::vector<float> wt = randomBuffer(M * N * K * K * L, rng);
        const std::vector<float> bias = randomBuffer(M * L, rng);
        std::vector<float> out(B * M * S * S * L);
        macs = B * M * S * S * N * K * K * L;
        elements = in.size() + wt.size() + bias.size() + out.size();
        timed = timeCalls(min_seconds, [&] {
            convolveTrialLanes(in.data(), wt.data(), bias.data(),
                               out.data(), batch, shape.inChannels,
                               shape.size, shape.size,
                               shape.outChannels, shape.size,
                               shape.size, shape.kernel, 1, shape.pad,
                               lanes);
        });
    } else if (shape.kind == Shape::Dense) {
        row.kernel = "dense";
        const std::vector<float> in = randomBuffer(B * N * L, rng);
        const std::vector<float> wt = randomBuffer(M * N * L, rng);
        const std::vector<float> bias = randomBuffer(M * L, rng);
        std::vector<float> out(B * M * L);
        macs = B * M * N * L;
        elements = in.size() + wt.size() + bias.size() + out.size();
        timed = timeCalls(min_seconds, [&] {
            denseTrialLanes(in.data(), wt.data(), bias.data(),
                            out.data(), batch, shape.inChannels,
                            shape.outChannels, lanes);
        });
    } else {
        row.kernel = "maxpool";
        const std::vector<float> in = randomBuffer(B * N * S * S * L, rng);
        std::vector<float> out(B * N * (S / 2) * (S / 2) * L);
        elements = in.size() + out.size();
        timed = timeCalls(min_seconds, [&] {
            maxPoolTrialLanes(in.data(), out.data(), batch,
                              shape.inChannels, shape.size, shape.size,
                              lanes);
        });
    }
    row.calls = timed.first;
    row.seconds = timed.second;
    row.macs = macs * row.calls;
    row.bytes = elements * sizeof(float) * row.calls;
    return row;
}

KernelRow
scalarConv(const Shape &shape, double min_seconds, Rng &rng)
{
    KernelRow row;
    row.model = shape.model;
    row.layer = shape.layer;
    row.kernel = "conv_scalar";
    row.lanes = 1;
    row.batch = 1;
    const std::uint64_t N = shape.inChannels;
    const std::uint64_t M = shape.outChannels;
    const std::uint64_t S = shape.size;
    const std::uint64_t K = shape.kernel;
    Conv2dLayer layer(shape.inChannels, shape.outChannels, shape.kernel,
                      1, shape.pad, rng);
    Tensor input({1, shape.inChannels, shape.size, shape.size});
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    ForwardContext ctx;
    ctx.training = false;
    const auto timed = timeCalls(min_seconds, [&] {
        const Tensor out = layer.forward(input, ctx);
        (void)out;
    });
    row.calls = timed.first;
    row.seconds = timed.second;
    row.macs = M * S * S * N * K * K * row.calls;
    row.bytes = (N * S * S + M * N * K * K + M + M * S * S) *
                sizeof(float) * row.calls;
    return row;
}

} // namespace

std::vector<KernelRow>
runKernelTable(Tracer &tracer, std::uint32_t image_size,
               std::uint32_t num_classes, std::uint32_t campaign_batch,
               bool smallest)
{
    const double min_seconds = smallest ? 0.001 : 0.02;
    Timed table(tracer, "train.kernel_table");
    Rng rng(0x6b65726e656cULL);
    std::vector<KernelRow> rows;
    for (const Shape &shape : miniShapes(image_size, num_classes)) {
        for (const auto &[lanes, batch] :
             {std::pair<std::uint32_t, std::uint32_t>{16, campaign_batch},
              {8, 1},
              {1, 1}}) {
            Timed span(tracer, "train.kernel");
            rows.push_back(laneKernel(shape, lanes, batch, min_seconds, rng));
        }
        if (shape.kind == Shape::Conv) {
            Timed span(tracer, "train.kernel");
            rows.push_back(scalarConv(shape, min_seconds, rng));
        }
    }
    return rows;
}

void
kernelMetrics(const std::vector<KernelRow> &rows,
              std::map<std::string, double> &per_layer)
{
    auto rate = [&](const std::string &kernel, std::uint32_t lanes,
                    bool bytes) {
        double work = 0.0;
        double seconds = 0.0;
        for (const KernelRow &row : rows) {
            if (row.kernel == kernel && row.lanes == lanes) {
                work += static_cast<double>(bytes ? row.bytes : row.macs);
                seconds += row.seconds;
            }
        }
        return seconds > 0.0 ? work / seconds / 1e9 : 0.0;
    };
    per_layer["train.conv_l16_gmacs"] = rate("conv", 16, false);
    per_layer["train.conv_l8_gmacs"] = rate("conv", 8, false);
    per_layer["train.conv_l1_gmacs"] = rate("conv", 1, false);
    per_layer["train.conv_scalar_gmacs"] = rate("conv_scalar", 1, false);
    per_layer["train.dense_l16_gmacs"] = rate("dense", 16, false);
    per_layer["train.pool_l16_gbs"] = rate("maxpool", 16, true);
}

void
writeKernelRows(rana::JsonWriter &json, const std::string &key,
                const std::vector<KernelRow> &rows)
{
    json.field("kernel_bytes_note",
               "bytes are computed from tensor shapes (each operand "
               "read once, the output written once), not measured");
    json.beginArray(key);
    for (const KernelRow &row : rows) {
        json.beginObject();
        json.field("model", row.model);
        json.field("layer", row.layer);
        json.field("kernel", row.kernel);
        json.field("lanes", static_cast<std::uint64_t>(row.lanes));
        json.field("batch", static_cast<std::uint64_t>(row.batch));
        json.field("calls", row.calls);
        json.field("seconds", row.seconds);
        json.field("macs", row.macs);
        json.field("computed_bytes", row.bytes);
        json.field("gmacs_per_s",
                   row.seconds > 0.0 ? static_cast<double>(row.macs) /
                                           row.seconds / 1e9
                                     : 0.0);
        json.field("computed_gb_per_s",
                   row.seconds > 0.0 ? static_cast<double>(row.bytes) /
                                           row.seconds / 1e9
                                     : 0.0);
        json.endObject();
    }
    json.endArray();
}

} // namespace perfbench
