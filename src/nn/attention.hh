/**
 * @file
 * Scaled dot-product attention (Eq. 3 of the paper, after Vaswani et
 * al.): for a target hidden state h_t and source states h_1..h_S,
 *
 *     a_t(s) = softmax_s( f * (h_t . h_s) ),   c_t = sum_s a_t(s) h_s
 *
 * The scaling factor f is the interpretability dial of §4.2: raising
 * it forces the attention distribution toward sparsity, exposing the
 * few source accesses that drive each decision (Figures 4/5).
 * Dot-product attention has no learnable parameters.
 */

#ifndef GLIDER_NN_ATTENTION_HH
#define GLIDER_NN_ATTENTION_HH

#include <vector>

#include "tensor.hh"

namespace glider {
namespace nn {

/** Cached state for one attention application. */
struct AttentionCache
{
    std::vector<float> weights; //!< a_t(s), post-softmax
};

/** Parameter-free scaled dot-product attention over source states. */
class ScaledDotAttention
{
  public:
    /** @param scale The scaling factor f (paper sweeps 1..5). */
    explicit ScaledDotAttention(float scale = 1.0f) : scale_(scale) {}

    float scale() const { return scale_; }

    /**
     * Compute the context vector for target @p h_t over @p sources.
     * @param sources S source hidden states, each @p dim floats.
     * @param h_t Target hidden state (@p dim floats).
     * @param context Out: c_t (@p dim floats, overwritten).
     * @param cache Out: attention weights for backward/analysis.
     */
    void
    forward(const std::vector<const float *> &sources, const float *h_t,
            std::size_t dim, float *context, AttentionCache &cache) const
    {
        std::size_t S = sources.size();
        cache.weights.assign(S, 0.0f);
        for (std::size_t s = 0; s < S; ++s)
            cache.weights[s] = scale_ * dot(h_t, sources[s], dim);
        softmaxInPlace(cache.weights.data(), S);
        for (std::size_t j = 0; j < dim; ++j)
            context[j] = 0.0f;
        for (std::size_t s = 0; s < S; ++s) {
            float a = cache.weights[s];
            const float *hs = sources[s];
            for (std::size_t j = 0; j < dim; ++j)
                context[j] += a * hs[j];
        }
    }

    /**
     * Backward: accumulate gradients into the target and source
     * hidden states given dL/dcontext.
     * @param d_sources Gradient accumulators matching @p sources.
     * @param d_ht Gradient accumulator for the target state.
     */
    void
    backward(const std::vector<const float *> &sources, const float *h_t,
             std::size_t dim, const float *d_context,
             const AttentionCache &cache,
             const std::vector<float *> &d_sources, float *d_ht) const
    {
        std::size_t S = sources.size();
        GLIDER_ASSERT(cache.weights.size() == S);
        GLIDER_ASSERT(d_sources.size() == S);

        // dL/da_s = dc . h_s ; plus the direct path dh_s += a_s dc.
        std::vector<float> da(S, 0.0f);
        for (std::size_t s = 0; s < S; ++s) {
            da[s] = dot(d_context, sources[s], dim);
            float a = cache.weights[s];
            float *dhs = d_sources[s];
            for (std::size_t j = 0; j < dim; ++j)
                dhs[j] += a * d_context[j];
        }
        // Softmax backward: dscore_s = a_s (da_s - sum_k a_k da_k).
        float mix = 0.0f;
        for (std::size_t s = 0; s < S; ++s)
            mix += cache.weights[s] * da[s];
        for (std::size_t s = 0; s < S; ++s) {
            float dscore = cache.weights[s] * (da[s] - mix) * scale_;
            const float *hs = sources[s];
            float *dhs = d_sources[s];
            for (std::size_t j = 0; j < dim; ++j) {
                d_ht[j] += dscore * hs[j];
                dhs[j] += dscore * h_t[j];
            }
        }
    }

  private:
    float scale_;
};

} // namespace nn
} // namespace glider

#endif // GLIDER_NN_ATTENTION_HH
