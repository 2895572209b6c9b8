/**
 * @file
 * Layers of the offline caching model: embedding, linear, and the
 * LSTM cell, each with explicit forward/backward and parameter
 * enumeration for the optimizer.
 */

#ifndef GLIDER_NN_LAYERS_HH
#define GLIDER_NN_LAYERS_HH

#include <cstdint>
#include <vector>

#include "tensor.hh"

namespace glider {
namespace nn {

/** Lookup table turning categorical ids (PCs) into dense vectors. */
class Embedding
{
  public:
    Embedding(std::size_t vocab, std::size_t dim, Rng &rng)
        : weight_(Tensor::xavier(vocab, dim, rng)), dim_(dim)
    {
    }

    std::size_t dim() const { return dim_; }
    std::size_t vocab() const { return weight_.value.rows(); }

    /** Row view of the embedding for id @p id. */
    const float *
    forward(std::size_t id) const
    {
        GLIDER_ASSERT(id < weight_.value.rows());
        return weight_.value.row(id);
    }

    /** Accumulate gradient @p dvec into row @p id. */
    void
    backward(std::size_t id, const float *dvec)
    {
        float *g = weight_.grad.row(id);
        for (std::size_t j = 0; j < dim_; ++j)
            g[j] += dvec[j];
    }

    std::vector<Param *> params() { return {&weight_}; }

  private:
    Param weight_;
    std::size_t dim_;
};

/** Fully-connected layer y = W x + b. */
class Linear
{
  public:
    Linear(std::size_t in, std::size_t out, Rng &rng)
        : w_(Tensor::xavier(out, in, rng)), b_(Tensor(1, out))
    {
    }

    std::size_t outDim() const { return w_.value.rows(); }

    /** y (out) = W x + b. @p y is overwritten. */
    void
    forward(const float *x, float *y) const
    {
        for (std::size_t i = 0; i < outDim(); ++i)
            y[i] = b_.value.data()[i];
        matvecAccum(w_.value, x, y);
    }

    /** Accumulate parameter grads and (optionally) input grads. */
    void
    backward(const float *x, const float *dy, float *dx)
    {
        matvecBackward(w_.value, x, dy, w_.grad, dx);
        for (std::size_t i = 0; i < outDim(); ++i)
            b_.grad.data()[i] += dy[i];
    }

    std::vector<Param *> params() { return {&w_, &b_}; }

  private:
    Param w_;
    Param b_;
};

/** Cached activations for one LSTM time step (needed by backward). */
struct LstmStepCache
{
    std::vector<float> x;      //!< input
    std::vector<float> h_prev; //!< previous hidden
    std::vector<float> c_prev; //!< previous cell
    std::vector<float> gates;  //!< post-activation [i, f, g, o]
    std::vector<float> c;      //!< new cell
    std::vector<float> tanh_c; //!< tanh(c)
};

/**
 * Standard LSTM cell (Hochreiter & Schmidhuber) with the common
 * [input, forget, cell, output] gate packing. The forget-gate bias
 * is initialised to 1 (standard practice for trainability).
 */
class LstmCell
{
  public:
    LstmCell(std::size_t in_dim, std::size_t hidden, Rng &rng);

    std::size_t hidden() const { return hidden_; }

    /**
     * One step: consumes x, (h_prev, c_prev); produces (h, c) and a
     * cache used by backwardStep.
     */
    void forwardStep(const float *x, const float *h_prev,
                     const float *c_prev, float *h, float *c,
                     LstmStepCache &cache) const;

    /**
     * Backward through one step.
     * @param dh Gradient wrt this step's hidden output.
     * @param dc In/out: gradient wrt the cell state (accumulates the
     *        chain from later steps; on return, wrt c_prev).
     * @param dx Out: gradient wrt the input (accumulated).
     * @param dh_prev Out: gradient wrt the previous hidden
     *        (accumulated).
     */
    void backwardStep(const LstmStepCache &cache, const float *dh,
                      float *dc, float *dx, float *dh_prev);

    std::vector<Param *> params() { return {&wx_, &wh_, &b_}; }

  private:
    std::size_t in_dim_;
    std::size_t hidden_;
    Param wx_; //!< 4H x in
    Param wh_; //!< 4H x H
    Param b_;  //!< 1 x 4H
};

} // namespace nn
} // namespace glider

#endif // GLIDER_NN_LAYERS_HH
