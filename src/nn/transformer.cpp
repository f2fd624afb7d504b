#include "transformer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "serve/kv_cache.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace olive {
namespace nn {

namespace {

/**
 * Fake-quantize a tensor as an activation if a scheme is given.
 * PerToken calibrates each row independently — for a (1, d) tensor the
 * two granularities coincide.
 */
Tensor
maybeQuantAct(const Tensor &x, Scheme *scheme,
              ActQuant granularity = ActQuant::PerTensor)
{
    if (!scheme)
        return x.clone();
    if (granularity == ActQuant::PerTensor || x.dim(0) == 1) {
        auto q = scheme->apply(x.data(), TensorKind::Activation);
        return Tensor(x.shape(), std::move(q));
    }
    Tensor out(x.shape());
    for (size_t i = 0; i < x.dim(0); ++i) {
        const auto q = scheme->apply(x.row(i), TensorKind::Activation);
        std::copy(q.begin(), q.end(), out.row(i).begin());
    }
    return out;
}

/**
 * One (head, query-row) attention: scores against K rows
 * [0, attend_len), masked fill up to row.size(), softmax, context over
 * row.size() V rows.  @p qrow / @p pk / @p pv are already offset to
 * the head (column h*dh); K/V rows are strided by @p d.
 *
 * Used by selfAttention (attend_len = causal ? i+1 : seq, row length
 * seq), the full forward that the incremental path is checked against:
 * masked positions softmax to exactly zero and contribute exact-zero
 * context terms, which is what lets attendRowSpans (below) reproduce it
 * bit for bit over any cache length (tests/test_decode_parity.cpp
 * asserts the resulting parity exhaustively).
 *
 * Both inner products are register-tiled like tensor/gemm: four score
 * columns share one pass over the query row, and four context lanes
 * share one pass over the softmaxed row.  Each output accumulates in
 * double over the same ascending index as the scalar remainder loops,
 * so the tiling never changes a bit.
 */
void
attendRow(const float *qrow, const float *pk, const float *pv, size_t d,
          size_t dh, size_t attend_len, float inv_sqrt_dh,
          std::span<float> row, float *crow)
{
    const size_t row_len = row.size();
    size_t j = 0;
    for (; j + 4 <= attend_len; j += 4) {
        const float *k0 = pk + j * d;
        const float *k1 = k0 + d;
        const float *k2 = k1 + d;
        const float *k3 = k2 + d;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (size_t e = 0; e < dh; ++e) {
            const double qv = qrow[e];
            a0 += qv * k0[e];
            a1 += qv * k1[e];
            a2 += qv * k2[e];
            a3 += qv * k3[e];
        }
        row[j + 0] = static_cast<float>(a0) * inv_sqrt_dh;
        row[j + 1] = static_cast<float>(a1) * inv_sqrt_dh;
        row[j + 2] = static_cast<float>(a2) * inv_sqrt_dh;
        row[j + 3] = static_cast<float>(a3) * inv_sqrt_dh;
    }
    for (; j < attend_len; ++j) {
        const float *krow = pk + j * d;
        double acc = 0.0;
        for (size_t e = 0; e < dh; ++e)
            acc += static_cast<double>(qrow[e]) * krow[e];
        row[j] = static_cast<float>(acc) * inv_sqrt_dh;
    }
    for (; j < row_len; ++j)
        row[j] = -1e30f;
    ops::softmaxRow(row);
    size_t e = 0;
    for (; e + 4 <= dh; e += 4) {
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (size_t jj = 0; jj < row_len; ++jj) {
            const double r = row[jj];
            const float *vrow = pv + jj * d + e;
            a0 += r * vrow[0];
            a1 += r * vrow[1];
            a2 += r * vrow[2];
            a3 += r * vrow[3];
        }
        crow[e + 0] = static_cast<float>(a0);
        crow[e + 1] = static_cast<float>(a1);
        crow[e + 2] = static_cast<float>(a2);
        crow[e + 3] = static_cast<float>(a3);
    }
    for (; e < dh; ++e) {
        double acc = 0.0;
        for (size_t jj = 0; jj < row_len; ++jj)
            acc += static_cast<double>(row[jj]) * pv[jj * d + e];
        crow[e] = static_cast<float>(acc);
    }
}

/**
 * attendRow generalized to an ordered span list: the cache's rows
 * [0, len) arrive as consecutive runs (serve::KvSpan) instead of one
 * contiguous block — one run per KV block of a paged cache.  @p col is
 * the head's column offset (h * dh); span rows are strided by @p d.
 *
 * Bit-identical to attendRow on the concatenation of the spans: every
 * score row[base + j] accumulates in double over the same ascending e
 * independently of its neighbours (the 4-wide tile restarting at span
 * boundaries therefore cannot change a bit), and every context lane
 * accumulates in double over the same ascending global jj — the span
 * walk preserves the iteration order, it only changes how the row
 * pointer is derived.  tests/test_decode_parity.cpp pins this against
 * the single-span contiguous oracle (tests/oracle/) across codecs and
 * block sizes.
 *
 * @p attend_len caps the scored positions: global columns
 * [attend_len, row.size()) get the same -1e30 masked fill attendRow
 * applies, which softmaxes to exactly 0 and contributes exact-zero
 * context terms.  Batched prefill uses this as the intra-chunk causal
 * mask (row i of a chunk attends [0, pos0+i+1) out of pos0+m cached
 * rows); the last row of a chunk — all of a 1-row decode chunk —
 * passes attend_len == row.size(), the no-mask case.
 */
void
attendRowSpans(const float *qrow, const serve::KvSpan *spans, size_t nspans,
               size_t col, size_t d, size_t dh, size_t attend_len,
               float inv_sqrt_dh, std::span<float> row, float *crow)
{
    size_t base = 0;
    for (size_t s = 0; s < nspans; ++s) {
        const float *pk = spans[s].k + col;
        const size_t full = spans[s].rows;
        // Rows of this span at global columns >= attend_len are masked:
        // score them with the fill value instead of a dot product.
        const size_t n = attend_len > base
                             ? std::min(full, attend_len - base)
                             : 0;
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const float *k0 = pk + j * d;
            const float *k1 = k0 + d;
            const float *k2 = k1 + d;
            const float *k3 = k2 + d;
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            for (size_t e = 0; e < dh; ++e) {
                const double qv = qrow[e];
                a0 += qv * k0[e];
                a1 += qv * k1[e];
                a2 += qv * k2[e];
                a3 += qv * k3[e];
            }
            row[base + j + 0] = static_cast<float>(a0) * inv_sqrt_dh;
            row[base + j + 1] = static_cast<float>(a1) * inv_sqrt_dh;
            row[base + j + 2] = static_cast<float>(a2) * inv_sqrt_dh;
            row[base + j + 3] = static_cast<float>(a3) * inv_sqrt_dh;
        }
        for (; j < n; ++j) {
            const float *krow = pk + j * d;
            double acc = 0.0;
            for (size_t e = 0; e < dh; ++e)
                acc += static_cast<double>(qrow[e]) * krow[e];
            row[base + j] = static_cast<float>(acc) * inv_sqrt_dh;
        }
        for (; j < full; ++j)
            row[base + j] = -1e30f;
        base += full;
    }
    OLIVE_ASSERT(base == row.size(), "spans must cover the score row");
    ops::softmaxRow(row);
    size_t e = 0;
    for (; e + 4 <= dh; e += 4) {
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        size_t jj = 0;
        for (size_t s = 0; s < nspans; ++s) {
            const float *pv = spans[s].v + col + e;
            for (size_t i = 0; i < spans[s].rows; ++i, ++jj) {
                const double r = row[jj];
                const float *vrow = pv + i * d;
                a0 += r * vrow[0];
                a1 += r * vrow[1];
                a2 += r * vrow[2];
                a3 += r * vrow[3];
            }
        }
        crow[e + 0] = static_cast<float>(a0);
        crow[e + 1] = static_cast<float>(a1);
        crow[e + 2] = static_cast<float>(a2);
        crow[e + 3] = static_cast<float>(a3);
    }
    for (; e < dh; ++e) {
        double acc = 0.0;
        size_t jj = 0;
        for (size_t s = 0; s < nspans; ++s) {
            const float *pv = spans[s].v + col + e;
            for (size_t i = 0; i < spans[s].rows; ++i, ++jj)
                acc += static_cast<double>(row[jj]) * pv[i * d];
        }
        crow[e] = static_cast<float>(acc);
    }
}

} // namespace

Tensor
Linear::forward(const Tensor &x) const
{
    return linearForward(x, w, b);
}

Tensor
selfAttention(const Tensor &x, const Layer &layer, size_t n_heads,
              bool causal, Scheme *act_scheme, ActQuant act_granularity)
{
    const size_t seq = x.dim(0);
    const size_t d = x.dim(1);
    OLIVE_ASSERT(d % n_heads == 0, "d_model must divide by heads");
    const size_t dh = d / n_heads;
    const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

    const Tensor xq = maybeQuantAct(x, act_scheme, act_granularity);
    Tensor q = layer.q.forward(xq);
    Tensor k = layer.k.forward(xq);
    Tensor v = layer.v.forward(xq);

    Tensor ctx({seq, d});
    // Per-head attention: scores = Q_h K_h^T / sqrt(dh), softmax, * V_h.
    // The softmax and context of output row (h, i) depend only on that
    // row's scores, so the (head, row) pairs flatten into one parallel
    // index space with an O(seq) score row as the only scratch, reused
    // across a chunk (grain = seq: one head per chunk); each index
    // computes exactly the serial expression, keeping the forward
    // bit-exact at any thread count (see util/parallel.hpp).
    const float *pq = q.raw();
    const float *pk = k.raw();
    const float *pv = v.raw();
    float *pctx = ctx.raw();
    par::parallelFor(0, n_heads * seq, seq, [&](size_t b, size_t e_) {
        std::vector<float> row(seq);
        for (size_t idx = b; idx < e_; ++idx) {
            const size_t h = idx / seq;
            const size_t i = idx % seq;
            attendRow(pq + i * d + h * dh, pk + h * dh, pv + h * dh, d,
                      dh, causal ? i + 1 : seq, inv_sqrt_dh, row,
                      pctx + i * d + h * dh);
        }
    });

    const Tensor ctxq = maybeQuantAct(ctx, act_scheme, act_granularity);
    return layer.o.forward(ctxq);
}

Tensor
selfAttentionChunk(const Tensor &x, const Layer &layer, size_t n_heads,
                   serve::KvCache &cache, Scheme *act_scheme)
{
    OLIVE_ASSERT(x.rank() == 2 && x.dim(0) >= 1,
                 "chunk input must be (m, d)");
    const size_t m = x.dim(0);
    const size_t d = x.dim(1);
    OLIVE_ASSERT(d == cache.dModel(), "cache width must match the model");
    OLIVE_ASSERT(d % n_heads == 0, "d_model must divide by heads");
    const size_t dh = d / n_heads;
    const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

    // Per-token quantization: each (1, d) row calibrates independently,
    // so a row's codes do not depend on which chunk carries it.
    const Tensor xq = maybeQuantAct(x, act_scheme, ActQuant::PerToken);
    Tensor q = layer.q.forward(xq);
    Tensor k = layer.k.forward(xq);
    Tensor v = layer.v.forward(xq);

    // Persist the whole chunk's K/V rows through the cache codec, then
    // attend block-by-block over the decoded spans the cache serves:
    // per-block spans pinned in the engine's DecodedBlockCache, where
    // only the rows appended since the last call need decoding, so a
    // 1-row decode chunk costs O(1) amortized codec work.  Appending
    // before attending is safe because row i's masked score range
    // [0, pos0+i+1) never reaches the chunk rows after it — the
    // intra-chunk causal mask below.
    const size_t pos0 = cache.length();
    cache.appendRows(k, v);
    const size_t len = pos0 + m;

    // Query row i of the chunk is row pos0+i of the equivalent full
    // forward: it attends [0, pos0+i+1) and sees rows (pos0+i+1, len)
    // only through the -1e30 fill, which softmaxes to exactly zero —
    // bit-identical to the full forward (see attendRowSpans).  (head, row)
    // pairs flatten into one parallel index space, grain m = one head
    // per chunk, reusing an O(len) score row.
    Tensor ctx({m, d});
    const float *pq = q.raw();
    float *pctx = ctx.raw();
    cache.withDecoded([&](std::span<const serve::KvSpan> spans) {
        par::parallelFor(0, n_heads * m, m, [&](size_t b, size_t e_) {
            std::vector<float> row(len);
            for (size_t idx = b; idx < e_; ++idx) {
                const size_t h = idx / m;
                const size_t i = idx % m;
                attendRowSpans(pq + i * d + h * dh, spans.data(),
                               spans.size(), h * dh, d, dh, pos0 + i + 1,
                               inv_sqrt_dh, row, pctx + i * d + h * dh);
            }
        });
    });

    const Tensor ctxq = maybeQuantAct(ctx, act_scheme, ActQuant::PerToken);
    return layer.o.forward(ctxq);
}

Tensor
Transformer::forward(const Tensor &x, Scheme *act_scheme,
                     ActQuant act_granularity) const
{
    OLIVE_ASSERT(x.rank() == 2 && x.dim(1) == dModel,
                 "input must be (seq, d_model)");
    Tensor h = x.clone();
    for (const Layer &layer : layers) {
        // Attention block with residual + post-LN.
        Tensor attn = selfAttention(h, layer, nHeads, causal, act_scheme,
                                    act_granularity);
        Tensor res = ops::add(h, attn);
        h = ops::layerNorm(res, layer.ln1Gamma, layer.ln1Beta);

        // FFN block with residual + post-LN.
        const Tensor hq = maybeQuantAct(h, act_scheme, act_granularity);
        Tensor f = layer.ff1.forward(hq);
        ops::gelu(f);
        const Tensor fq = maybeQuantAct(f, act_scheme, act_granularity);
        Tensor f2 = layer.ff2.forward(fq);
        Tensor res2 = ops::add(h, f2);
        h = ops::layerNorm(res2, layer.ln2Gamma, layer.ln2Beta);
    }
    return h;
}

Tensor
Transformer::forwardChunk(const Tensor &x_rows, serve::DecodeState &state,
                          Scheme *act_scheme) const
{
    OLIVE_ASSERT(x_rows.rank() == 2 && x_rows.dim(0) >= 1 &&
                     x_rows.dim(1) == dModel,
                 "chunk input must be (m, d_model)");
    OLIVE_ASSERT(causal, "incremental decode requires a causal model");
    OLIVE_ASSERT(state.layers.size() == layers.size(),
                 "decode state must have one cache per layer");
    // Layer l's input row i depends only on layer l-1's rows [0, i] —
    // all inside this chunk or already cached — so the whole chunk can
    // advance layer by layer exactly like the full forward.  Every
    // non-attention op (residual add, LayerNorm, GELU, the linear
    // layers, per-token activation quant) is row-wise, so each row of h
    // stays bit-identical to the same row computed in any other chunk
    // split, 1-row chunks included (ExhaustiveArchitectureSweep pins it
    // against forward(), BatchedPrefillMatchesStepLoop across codecs).
    const size_t m = x_rows.dim(0);
    Tensor h = x_rows.clone();
    for (size_t li = 0; li < layers.size(); ++li) {
        const Layer &layer = layers[li];
        serve::KvCache &cache = *state.layers[li];
        OLIVE_ASSERT(cache.length() == state.position,
                     "cache length is out of sync with the decode position");

        Tensor attn =
            selfAttentionChunk(h, layer, nHeads, cache, act_scheme);
        Tensor res = ops::add(h, attn);
        h = ops::layerNorm(res, layer.ln1Gamma, layer.ln1Beta);

        const Tensor hq = maybeQuantAct(h, act_scheme, ActQuant::PerToken);
        Tensor f = layer.ff1.forward(hq);
        ops::gelu(f);
        const Tensor fq = maybeQuantAct(f, act_scheme, ActQuant::PerToken);
        Tensor f2 = layer.ff2.forward(fq);
        Tensor res2 = ops::add(h, f2);
        h = ops::layerNorm(res2, layer.ln2Gamma, layer.ln2Beta);
    }
    state.position += m;
    return h;
}

size_t
Transformer::parameterCount() const
{
    size_t n = 0;
    for (const Layer &l : layers) {
        for (const Linear *lin : {&l.q, &l.k, &l.v, &l.o, &l.ff1, &l.ff2})
            n += lin->w.size() + lin->b.size();
        n += l.ln1Gamma.size() + l.ln1Beta.size() + l.ln2Gamma.size() +
             l.ln2Beta.size();
    }
    return n;
}

std::vector<Tensor *>
Transformer::weightMatrices()
{
    std::vector<Tensor *> out;
    for (Layer &l : layers) {
        for (Linear *lin : {&l.q, &l.k, &l.v, &l.o, &l.ff1, &l.ff2})
            out.push_back(&lin->w);
    }
    return out;
}

std::vector<const Tensor *>
Transformer::weightMatrices() const
{
    std::vector<const Tensor *> out;
    for (const Layer &l : layers) {
        for (const Linear *lin : {&l.q, &l.k, &l.v, &l.o, &l.ff1, &l.ff2})
            out.push_back(&lin->w);
    }
    return out;
}

Transformer
quantizeTransformer(const Transformer &model, Scheme &scheme)
{
    Transformer q = model; // deep copies tensors via std::vector copy
    for (Tensor *w : q.weightMatrices()) {
        auto fq = scheme.applyMatrix(w->data(), w->dim(0), w->dim(1),
                                     TensorKind::Weight);
        *w = Tensor(w->shape(), std::move(fq));
    }
    return q;
}

} // namespace nn
} // namespace olive
