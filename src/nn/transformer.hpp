/**
 * @file
 * Minimal transformer inference substrate with quantization hooks.
 *
 * The model is a stack of post-LN encoder (or causally masked decoder)
 * layers operating on a (seq, d_model) tensor.  Every GEMM input can be
 * fake-quantized through a Scheme: weights are quantized once up front
 * (see quantizeTransformer), activations on the fly during forward when
 * an activation scheme is supplied.  This is the functional-evaluation
 * path; the cycle-level simulators consume the same architecture through
 * models/workload.hpp instead.
 */

#ifndef OLIVE_NN_TRANSFORMER_HPP
#define OLIVE_NN_TRANSFORMER_HPP

#include <vector>

#include "quant/scheme.hpp"
#include "tensor/tensor.hpp"
#include "util/random.hpp"

namespace olive {

namespace serve {
class KvCache;
struct DecodeState;
} // namespace serve

namespace nn {

/**
 * Granularity of activation fake-quantization during forward.
 *
 * PerTensor calibrates each activation tensor as a whole (the PTQ
 * evaluation flow).  PerToken calibrates every (1, d) token row
 * independently — the only granularity an incremental decoder can
 * realize, since a chunk never sees future tokens.  forwardChunk always
 * quantizes per token; forward(..., PerToken) is its bit-exact
 * full-sequence counterpart (see tests/test_decode_parity.cpp).
 */
enum class ActQuant
{
    PerTensor,
    PerToken,
};

/** One linear layer: y = x W^T + b, with W stored (out, in). */
struct Linear
{
    Tensor w; //!< (out_features, in_features)
    Tensor b; //!< (out_features)

    /** Forward through this layer. */
    Tensor forward(const Tensor &x) const;
};

/** Weights of one transformer encoder/decoder layer (post-LN). */
struct Layer
{
    Linear q, k, v, o;   //!< Attention projections.
    Linear ff1, ff2;     //!< Feed-forward network.
    Tensor ln1Gamma, ln1Beta; //!< Post-attention LayerNorm.
    Tensor ln2Gamma, ln2Beta; //!< Post-FFN LayerNorm.
};

/** A full transformer backbone. */
struct Transformer
{
    size_t dModel = 0;
    size_t nHeads = 0;
    size_t dFf = 0;
    bool causal = false; //!< Apply a causal mask (decoder-only models).
    std::vector<Layer> layers;

    /**
     * Forward pass.  @p x is (seq, dModel).  If @p act_scheme is
     * non-null every linear-layer input is fake-quantized as an
     * activation first, at the given granularity.
     */
    Tensor forward(const Tensor &x, Scheme *act_scheme = nullptr,
                   ActQuant act_granularity = ActQuant::PerTensor) const;

    /**
     * Incremental forward: process @p x_rows (m, dModel) token rows in
     * ONE pass against the KV caches in @p state — a prefill chunk, a
     * single decode token (m = 1), or a decode token plus speculative
     * drafts.  Requires a causal model.  Each layer bulk-appends all m
     * K/V rows (KvCache::appendRows) and attends every row i over
     * cached positions [0, pos0+i+1) via an intra-chunk causal mask.
     * Activations quantize per token (the only granularity a decoder
     * can realize).  With the FP32 cache scheme row i is bit-identical
     * to row pos0+i of forward(..., ActQuant::PerToken) over the same
     * prefix, for every split of a sequence into chunks
     * (tests/test_decode_parity.cpp); quantized cache schemes trade
     * that exactness for cache bytes, measured by serve::cacheImpact.
     * Advances state.position by m; returns the (m, d) hidden rows.
     */
    Tensor forwardChunk(const Tensor &x_rows, serve::DecodeState &state,
                        Scheme *act_scheme = nullptr) const;

    /** Total parameter count. */
    size_t parameterCount() const;

    /** Collect mutable views of every weight matrix (not biases/LN). */
    std::vector<Tensor *> weightMatrices();
    std::vector<const Tensor *> weightMatrices() const;
};

/**
 * Return a copy of @p model whose weight matrices are fake-quantized
 * with @p scheme (biases and LayerNorm parameters stay FP32, as all
 * studied quantization methods do).
 */
Transformer quantizeTransformer(const Transformer &model, Scheme &scheme);

/** Multi-head self-attention used by Transformer::forward. */
Tensor selfAttention(const Tensor &x, const Layer &layer, size_t n_heads,
                     bool causal, Scheme *act_scheme,
                     ActQuant act_granularity = ActQuant::PerTensor);

/**
 * Chunked self-attention over a KV cache, used by forwardChunk: the K/V
 * rows of all m rows of @p x (m, d) are bulk-appended to @p cache, then
 * row i attends over cached positions [0, pos0+i+1) — the intra-chunk
 * causal mask — where pos0 is the cache length before the call.
 * Masked tail positions softmax to exact zero (see attendRow's
 * comment), so the result does not depend on how a sequence is split
 * into chunks.
 */
Tensor selfAttentionChunk(const Tensor &x, const Layer &layer,
                          size_t n_heads, serve::KvCache &cache,
                          Scheme *act_scheme);

} // namespace nn
} // namespace olive

#endif // OLIVE_NN_TRANSFORMER_HPP
