/**
 * @file
 * Decode-vs-full-forward parity: nn::Transformer::forwardChunk over an
 * FP32 KV cache must reproduce Transformer::forward bit-exactly on
 * every prefix and for every chunk size, 1-row decode chunks included
 * — the contract the serving engine is built on.  The sweep is
 * exhaustive over small causal architectures (layer counts, head
 * counts, widths, sequence lengths spanning the attention kernel's
 * 4-wide tile boundaries), with and without activation quantization
 * schemes (which quantize per token in both paths:
 * forward(..., ActQuant::PerToken)).
 *
 * BlockTableAttentionMatchesScratchPath extends the contract to the
 * storage/read-path axis: block-table attention over DecodedBlockCache
 * leases must match the contiguous oracle's single scratch span
 * (tests/oracle/) bitwise, across all four KV codecs, blockRows 1..5
 * and every prefix length.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "baselines/uniform.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "nn/transformer.hpp"
#include "oracle/reference.hpp"
#include "quant/scheme.hpp"
#include "serve/block_pool.hpp"
#include "serve/decoded_cache.hpp"
#include "serve/kv_cache.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

bool
bitIdentical(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

nn::Transformer
causalBackbone(size_t layers, size_t d_model, size_t heads, size_t d_ff,
               u64 seed)
{
    auto config = models::bertBase();
    config.evalLayers = layers;
    config.evalDModel = d_model;
    config.evalHeads = heads;
    config.evalDFf = d_ff;
    nn::Transformer m = models::makeBackbone(config, seed);
    m.causal = true;
    return m;
}

Tensor
randomInput(size_t seq, size_t d, u64 seed)
{
    Tensor x({seq, d});
    Rng rng(seed);
    for (auto &v : x.data())
        v = static_cast<float>(rng.gaussian());
    return x;
}

/** Copy rows [pos, pos + n) of @p x into a fresh (n, d) slab. */
Tensor
rowsOf(const Tensor &x, size_t pos, size_t n)
{
    Tensor slab({n, x.dim(1)});
    for (size_t i = 0; i < n; ++i) {
        auto src = x.row(pos + i);
        std::copy(src.begin(), src.end(), slab.row(i).begin());
    }
    return slab;
}

/**
 * Assert that feeding @p x through an FP32 cache in @p chunk-row
 * forwardChunk calls (chunk = 1 is token-by-token decode) reproduces
 * the full forward bit-exactly at every prefix length.
 */
void
expectParity(const nn::Transformer &model, const Tensor &x,
             Scheme *act_scheme, size_t chunk)
{
    const Tensor full =
        model.forward(x, act_scheme, nn::ActQuant::PerToken);

    const serve::Fp32KvScheme fp32;
    serve::DecodeState state = oracle::makeReferenceState(model, fp32);
    for (size_t pos = 0; pos < x.dim(0);) {
        const size_t n = std::min(chunk, x.dim(0) - pos);
        const Tensor h =
            model.forwardChunk(rowsOf(x, pos, n), state, act_scheme);
        // Causality makes row t of the full forward the ground truth
        // for position t, for every prefix.
        for (size_t i = 0; i < n; ++i)
            ASSERT_TRUE(bitIdentical(h.row(i), full.row(pos + i)))
                << "prefix " << pos + i + 1 << " of " << x.dim(0)
                << ", chunk " << chunk;
        pos += n;
    }
    EXPECT_EQ(state.position, x.dim(0));
}

TEST(DecodeParity, ExhaustiveArchitectureSweep)
{
    // (layers, d_model, heads, d_ff) spanning single/multi layer,
    // single/multi head, and head widths that hit the 4-wide context
    // tile (dh = 4, 8) and its scalar remainder (dh = 3, 6).
    const struct
    {
        size_t layers, d, heads, ff;
    } archs[] = {
        {1, 8, 1, 16}, {1, 8, 2, 16},  {2, 12, 4, 24},
        {2, 16, 2, 32}, {3, 12, 2, 20}, {1, 6, 2, 12},
    };
    // Sequence lengths around the 4-wide score tile boundary, each fed
    // token by token, in 2- and 3-row chunks, and as one whole chunk.
    const size_t seqs[] = {1, 2, 3, 4, 5, 7, 9};
    u64 seed = 100;
    for (const auto &a : archs) {
        const nn::Transformer m =
            causalBackbone(a.layers, a.d, a.heads, a.ff, ++seed);
        for (size_t seq : seqs) {
            const Tensor x = randomInput(seq, a.d, seed * 31 + seq);
            for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, seq}) {
                SCOPED_TRACE(testing::Message()
                             << "layers=" << a.layers << " d=" << a.d
                             << " heads=" << a.heads << " seq=" << seq
                             << " chunk=" << chunk);
                expectParity(m, x, nullptr, chunk);
            }
        }
    }
}

TEST(DecodeParity, WithOliveActivationScheme)
{
    OliveScheme olive4(4);
    const nn::Transformer m = causalBackbone(2, 12, 2, 24, 7);
    for (size_t seq : {1u, 3u, 5u, 8u}) {
        SCOPED_TRACE(seq);
        expectParity(m, randomInput(seq, 12, 900 + seq), &olive4, 1);
    }
}

TEST(DecodeParity, WithInt8ActivationScheme)
{
    UniformIntScheme int8(8);
    const nn::Transformer m = causalBackbone(2, 16, 4, 32, 8);
    for (size_t seq : {2u, 4u, 6u}) {
        SCOPED_TRACE(seq);
        expectParity(m, randomInput(seq, 16, 1700 + seq), &int8, 1);
    }
}

TEST(DecodeParity, RealisticBackboneWithOutlierInput)
{
    // The synthetic eval backbone at its real eval dims, with the
    // model's own outlier-bearing input distribution.
    auto config = models::byName("GPT2-XL");
    nn::Transformer m = models::makeBackbone(config, 21);
    m.causal = true;
    Rng rng(22);
    const Tensor x = models::makeInputSequence(config, 10, rng);
    expectParity(m, x, nullptr, 1);
}

TEST(DecodeParity, PerTokenGranularityMatchesPerTensorOnSingleRows)
{
    // For a one-token sequence the two activation granularities are
    // the same computation by construction.
    OliveScheme olive4(4);
    const nn::Transformer m = causalBackbone(1, 8, 2, 16, 40);
    const Tensor x = randomInput(1, 8, 41);
    const Tensor a = m.forward(x, &olive4, nn::ActQuant::PerTensor);
    const Tensor b = m.forward(x, &olive4, nn::ActQuant::PerToken);
    EXPECT_TRUE(bitIdentical(a.data(), b.data()));
}

TEST(DecodeParity, BlockTableAttentionMatchesScratchPath)
{
    // Block-table attention (attendRowSpans over DecodedBlockCache
    // leases) against the contiguous oracle's single scratch span,
    // bitwise on every 1-row decode output: architectures x all four KV
    // codecs x blockRows 1..5 (span boundaries landing on, inside, and
    // past the kernel's 4-wide tiles) x every prefix of a 9-token
    // sequence.  Three cache paths step in lockstep — contiguous
    // reference, paged with an unbounded working set, and paged with a
    // single-block working set (maximum eviction churn mid-sequence) —
    // and all must agree on every bit: partitioning the attention reads
    // can move work, never a value.
    const struct
    {
        size_t layers, d, heads, ff;
    } archs[] = {{2, 12, 4, 24}, {1, 8, 2, 16}};
    const serve::KvCacheFormat fmts[] = {
        serve::KvCacheFormat::Fp32, serve::KvCacheFormat::Olive4,
        serve::KvCacheFormat::Olive8, serve::KvCacheFormat::Int8};
    const size_t seq = 9;
    u64 seed = 7000;
    for (const auto &a : archs) {
        const nn::Transformer m =
            causalBackbone(a.layers, a.d, a.heads, a.ff, ++seed);
        const Tensor x = randomInput(seq, a.d, seed * 13);
        for (const auto fmt : fmts) {
            const auto scheme = serve::makeKvScheme(fmt);
            u64 evictions = 0, decoded_rows = 0;
            for (size_t block_rows = 1; block_rows <= 5; ++block_rows) {
                SCOPED_TRACE(testing::Message()
                             << scheme->name() << " d=" << a.d
                             << " blockRows=" << block_rows);
                // Declaration order is the lifecycle contract: caches
                // (states) die first, their block releases fire the
                // pool hook into the still-live working set, the pool
                // dies last — exactly how the engine orders members.
                serve::BlockPool pool_u(*scheme, a.d, block_rows);
                serve::BlockPool pool_1(*scheme, a.d, block_rows);
                serve::DecodedBlockCache dc_u(pool_u, 0);
                serve::DecodedBlockCache dc_1(pool_1, 1);
                pool_u.setReleaseHook(
                    [&dc_u](u32 id) { dc_u.invalidate(id); });
                pool_1.setReleaseHook(
                    [&dc_1](u32 id) { dc_1.invalidate(id); });
                serve::DecodeState ref =
                    oracle::makeReferenceState(m, *scheme);
                serve::DecodeState unbounded =
                    serve::makePagedDecodeState(m, pool_u, &dc_u);
                serve::DecodeState tiny =
                    serve::makePagedDecodeState(m, pool_1, &dc_1);

                for (size_t t = 0; t < seq; ++t) {
                    const Tensor x_t = rowsOf(x, t, 1);
                    const Tensor h0 = m.forwardChunk(x_t, ref, nullptr);
                    const Tensor h2 =
                        m.forwardChunk(x_t, unbounded, nullptr);
                    const Tensor h3 = m.forwardChunk(x_t, tiny, nullptr);
                    ASSERT_TRUE(bitIdentical(h2.row(0), h0.row(0)))
                        << "block-table diverged at prefix " << t + 1;
                    ASSERT_TRUE(bitIdentical(h3.row(0), h0.row(0)))
                        << "tiny working set diverged at prefix "
                        << t + 1;
                    dc_u.checkInvariants();
                    dc_1.checkInvariants();
                }
                evictions += dc_1.evictions();
                decoded_rows += dc_u.decodedRows();
                // Unbounded working set: every (block, slot) decodes
                // exactly once per plane pair — seq rows per layer.
                EXPECT_EQ(dc_u.decodedRows(), seq * a.layers);
                EXPECT_EQ(dc_u.evictions(), 0u);
            }
            // The tiny-capacity sweep must actually have churned.
            EXPECT_GT(evictions, 0u) << scheme->name();
            EXPECT_GT(decoded_rows, 0u);
        }
    }
}

/**
 * Assert that two decode states hold bitwise-identical KV planes at
 * every layer (decoded through each cache's own codec — decode is a
 * pure function of the stored bytes, so equal planes certify the
 * chunked writes landed the same values the 1-row loop wrote).
 */
void
expectCachesMatch(const serve::DecodeState &a, const serve::DecodeState &b)
{
    ASSERT_EQ(a.position, b.position);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t l = 0; l < a.layers.size(); ++l) {
        const serve::KvCache &ca = *a.layers[l];
        const serve::KvCache &cb = *b.layers[l];
        ASSERT_EQ(ca.length(), cb.length()) << "layer " << l;
        if (ca.length() == 0)
            continue;
        const oracle::KvPlanes pa = oracle::decodePlanes(ca);
        const oracle::KvPlanes pb = oracle::decodePlanes(cb);
        ASSERT_TRUE(bitIdentical(pa.k.data(), pb.k.data()))
            << "K plane diverged at layer " << l;
        ASSERT_TRUE(bitIdentical(pa.v.data(), pb.v.data()))
            << "V plane diverged at layer " << l;
    }
}

TEST(DecodeParity, BatchedPrefillMatchesStepLoop)
{
    // forwardChunk over an m-row slab must equal m consecutive 1-row
    // forwardChunk calls (the decode step) bit-for-bit: every hidden
    // row AND every cache byte.  Swept over architectures x prompt
    // lengths x all four KV codecs x chunk sizes (chunks that divide
    // the prompt, leave a remainder, and exceed it — the last is the
    // whole-prompt-at-once case).  The 1-row loop runs on the
    // contiguous reference cache; the chunked run is repeated on
    // reference AND paged storage, so the sweep pins both
    // oracle::KvCacheReference::appendRows (sequential) and
    // PagedKvCache::appendRows (parallel bulk encode) against the same
    // oracle.
    const struct
    {
        size_t layers, d, heads, ff;
    } archs[] = {{2, 12, 4, 24}, {1, 8, 2, 16}};
    const serve::KvCacheFormat fmts[] = {
        serve::KvCacheFormat::Fp32, serve::KvCacheFormat::Olive4,
        serve::KvCacheFormat::Olive8, serve::KvCacheFormat::Int8};
    const size_t seqs[] = {2, 3, 5, 8, 9};
    const size_t chunks[] = {2, 3, 4, 16};
    u64 seed = 9000;
    for (const auto &a : archs) {
        const nn::Transformer m =
            causalBackbone(a.layers, a.d, a.heads, a.ff, ++seed);
        for (const auto fmt : fmts) {
            const auto scheme = serve::makeKvScheme(fmt);
            for (size_t seq : seqs) {
                const Tensor x =
                    randomInput(seq, a.d, seed * 17 + seq);
                // 1-row oracle: outputs recorded per position.
                serve::DecodeState stepped =
                    oracle::makeReferenceState(m, *scheme);
                std::vector<Tensor> outs;
                for (size_t t = 0; t < seq; ++t)
                    outs.push_back(
                        m.forwardChunk(rowsOf(x, t, 1), stepped, nullptr));
                for (size_t chunk : chunks) {
                    SCOPED_TRACE(testing::Message()
                                 << scheme->name() << " d=" << a.d
                                 << " seq=" << seq
                                 << " chunk=" << chunk);
                    serve::BlockPool pool(*scheme, a.d, 3);
                    serve::DecodedBlockCache dcache(pool, 0);
                    serve::DecodeState ref =
                        oracle::makeReferenceState(m, *scheme);
                    serve::DecodeState paged =
                        serve::makePagedDecodeState(m, pool, &dcache);
                    for (serve::DecodeState *st : {&ref, &paged}) {
                        size_t pos = 0;
                        while (pos < seq) {
                            const size_t mm =
                                std::min(chunk, seq - pos);
                            const Tensor h = m.forwardChunk(
                                rowsOf(x, pos, mm), *st, nullptr);
                            for (size_t i = 0; i < mm; ++i)
                                ASSERT_TRUE(bitIdentical(
                                    h.row(i), outs[pos + i].row(0)))
                                    << "hidden row diverged at position "
                                    << pos + i;
                            pos += mm;
                        }
                        expectCachesMatch(*st, stepped);
                    }
                }
            }
        }
    }
}

TEST(DecodeParity, BatchedPrefillMatchesStepLoopWithActScheme)
{
    // Per-token activation quantization: the chunked path quantizes
    // each row independently (ActQuant::PerToken), so the slab sees
    // the same codes the 1-row loop produced row by row.
    OliveScheme olive4(4);
    const nn::Transformer m = causalBackbone(2, 12, 2, 24, 77);
    const size_t seq = 7;
    const Tensor x = randomInput(seq, 12, 770);
    const serve::Fp32KvScheme fp32;

    serve::DecodeState stepped = oracle::makeReferenceState(m, fp32);
    std::vector<Tensor> outs;
    for (size_t t = 0; t < seq; ++t)
        outs.push_back(m.forwardChunk(rowsOf(x, t, 1), stepped, &olive4));
    for (size_t chunk : {2u, 3u, 7u}) {
        SCOPED_TRACE(chunk);
        serve::DecodeState st = oracle::makeReferenceState(m, fp32);
        size_t pos = 0;
        while (pos < seq) {
            const size_t mm = std::min<size_t>(chunk, seq - pos);
            const Tensor h = m.forwardChunk(rowsOf(x, pos, mm), st, &olive4);
            for (size_t i = 0; i < mm; ++i)
                ASSERT_TRUE(
                    bitIdentical(h.row(i), outs[pos + i].row(0)))
                    << "position " << pos + i;
            pos += mm;
        }
        expectCachesMatch(st, stepped);
    }
}

TEST(DecodeParity, StepOutputsAreIndependentOfLaterTokens)
{
    // Decoding a longer sequence never revises earlier outputs: the
    // cache-append-only design is prefix-stable like the causal mask.
    const nn::Transformer m = causalBackbone(2, 12, 4, 24, 50);
    const Tensor x = randomInput(6, 12, 51);

    const serve::Fp32KvScheme fp32;
    serve::DecodeState s1 = oracle::makeReferenceState(m, fp32);
    serve::DecodeState s2 = oracle::makeReferenceState(m, fp32);
    std::vector<Tensor> outs;
    for (size_t t = 0; t < 6; ++t)
        outs.push_back(m.forwardChunk(rowsOf(x, t, 1), s1, nullptr));
    for (size_t t = 0; t < 3; ++t) {
        const Tensor h = m.forwardChunk(rowsOf(x, t, 1), s2, nullptr);
        EXPECT_TRUE(bitIdentical(h.row(0), outs[t].row(0))) << t;
    }
}

} // namespace
} // namespace olive
