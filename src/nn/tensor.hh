/**
 * @file
 * A minimal dense 2-D float tensor for the offline learning models.
 *
 * The paper's offline model (embedding 128 -> 1-layer LSTM 128 ->
 * scaled attention -> binary output, Table 5) is small enough that a
 * straightforward row-major CPU tensor with explicit loops trains it
 * in seconds; no BLAS or autograd framework is needed, and the
 * hand-written backward passes are themselves exercised by
 * finite-difference tests.
 */

#ifndef GLIDER_NN_TENSOR_HH
#define GLIDER_NN_TENSOR_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace glider {
namespace nn {

/** Row-major 2-D float tensor (vectors are 1xN or Nx1 as convenient). */
class Tensor
{
  public:
    Tensor() = default;

    Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {
    }

    /** Xavier/Glorot-uniform initialisation. */
    static Tensor
    xavier(std::size_t rows, std::size_t cols, Rng &rng)
    {
        Tensor t(rows, cols);
        float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
        for (auto &v : t.data_) {
            v = static_cast<float>(rng.uniform() * 2.0 - 1.0) * limit;
        }
        return t;
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &
    operator()(std::size_t r, std::size_t c)
    {
        GLIDER_ASSERT(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float
    operator()(std::size_t r, std::size_t c) const
    {
        GLIDER_ASSERT(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float *row(std::size_t r) { return &data_[r * cols_]; }
    const float *row(std::size_t r) const { return &data_[r * cols_]; }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** A learnable parameter: value plus accumulated gradient. */
struct Param
{
    Tensor value;
    Tensor grad;

    Param() = default;
    explicit Param(Tensor v) : value(std::move(v))
    {
        grad = Tensor(value.rows(), value.cols());
    }

    void zeroGrad() { grad.zero(); }
};

/** y += W x (W: m x n, x: n, y: m). Raw float spans for hot loops. */
void matvecAccum(const Tensor &w, const float *x, float *y);

/** Backward of y = W x: dW += dy xT, dx += WT dy. */
void matvecBackward(const Tensor &w, const float *x, const float *dy,
                    Tensor &dw, float *dx);

/** Dot product of two n-length spans. */
float dot(const float *a, const float *b, std::size_t n);

/** In-place numerically-stable softmax over @p n entries. */
void softmaxInPlace(float *x, std::size_t n);

} // namespace nn
} // namespace glider

#endif // GLIDER_NN_TENSOR_HH
