#include "oracle/reference.hpp"

#include <algorithm>

#include "serve/block_pool.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace olive {
namespace oracle {

KvCacheReference::KvCacheReference(const serve::KvScheme &scheme, size_t d)
    : KvCache(scheme, d)
{
}

void
KvCacheReference::appendRows(const Tensor &k, const Tensor &v)
{
    OLIVE_ASSERT(k.rank() == 2 && v.rank() == 2 && k.dim(0) == v.dim(0) &&
                     k.dim(1) == d_ && v.dim(1) == d_,
                 "append needs matching (m, d) K and V");
    const size_t rb = scheme_->rowBytes(d_);
    for (size_t i = 0; i < k.dim(0); ++i) {
        serve::KvRowMeta km, vm;
        scheme_->encodeRow(k.row(i), kBytes_, km);
        scheme_->encodeRow(v.row(i), vBytes_, vm);
        OLIVE_ASSERT(kBytes_.size() == (kMeta_.size() + 1) * rb &&
                         vBytes_.size() == (vMeta_.size() + 1) * rb,
                     "KV codec appended a payload of unexpected size");
        kMeta_.push_back(km);
        vMeta_.push_back(vm);
    }
}

void
KvCacheReference::truncate(size_t new_len)
{
    OLIVE_ASSERT(new_len <= kMeta_.size(), "truncate cannot grow the cache");
    const size_t rb = scheme_->rowBytes(d_);
    kBytes_.resize(new_len * rb);
    vBytes_.resize(new_len * rb);
    kMeta_.resize(new_len);
    vMeta_.resize(new_len);
}

void
KvCacheReference::decodePlane(bool k_plane, Tensor &out) const
{
    const std::vector<u8> &bytes = k_plane ? kBytes_ : vBytes_;
    const std::vector<serve::KvRowMeta> &meta = k_plane ? kMeta_ : vMeta_;
    OLIVE_ASSERT(out.rank() == 2 && out.dim(0) == meta.size() &&
                     out.dim(1) == d_,
                 "decode target must be (length, d)");
    const size_t rb = scheme_->rowBytes(d_);
    // Rows are independent pure functions of their bytes, so the
    // decode parallelizes deterministically.
    par::parallelFor(0, meta.size(), 1, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            scheme_->decodeRow(
                std::span<const u8>(bytes.data() + i * rb, rb), meta[i],
                out.row(i));
    });
}

void
KvCacheReference::withDecoded(
    const std::function<void(std::span<const serve::KvSpan>)> &fn) const
{
    const size_t len = length();
    if (len == 0) {
        fn(std::span<const serve::KvSpan>());
        return;
    }
    Tensor k({len, d_}), v({len, d_});
    decodePlane(true, k);
    decodePlane(false, v);
    const serve::KvSpan span{k.raw(), v.raw(), len};
    fn(std::span<const serve::KvSpan>(&span, 1));
}

size_t
KvCacheReference::encodedBytes() const
{
    return kBytes_.size() + vBytes_.size() +
           (kMeta_.size() + vMeta_.size()) * scheme_->metaBytesPerRow();
}

serve::DecodeState
makeReferenceState(const nn::Transformer &model,
                   const serve::KvScheme &scheme)
{
    serve::DecodeState state;
    state.layers.reserve(model.layers.size());
    for (size_t i = 0; i < model.layers.size(); ++i)
        state.layers.push_back(
            std::make_unique<KvCacheReference>(scheme, model.dModel));
    return state;
}

namespace {

/** Decode one plane of a paged cache straight from the pool bytes,
 *  walking its block table. */
void
decodePagedPlane(const serve::PagedKvCache &cache, bool k_plane,
                 Tensor &out)
{
    const serve::BlockPool &pool = cache.pool();
    const serve::KvScheme &scheme = cache.scheme();
    const size_t B = pool.blockRows();
    const size_t rb = pool.rowBytes();
    for (size_t i = 0; i < cache.length(); ++i) {
        const u32 id = cache.blockId(i / B);
        const size_t slot = i % B;
        const u8 *row = k_plane ? pool.kRow(id, slot) : pool.vRow(id, slot);
        const serve::KvRowMeta &meta =
            k_plane ? pool.kMeta(id, slot) : pool.vMeta(id, slot);
        scheme.decodeRow(std::span<const u8>(row, rb), meta, out.row(i));
    }
}

} // namespace

KvPlanes
decodePlanes(const serve::KvCache &cache)
{
    const size_t len = cache.length();
    if (len == 0)
        return {};
    KvPlanes p{Tensor({len, cache.dModel()}), Tensor({len, cache.dModel()})};
    if (const auto *ref = dynamic_cast<const KvCacheReference *>(&cache)) {
        ref->decodePlane(true, p.k);
        ref->decodePlane(false, p.v);
    } else if (const auto *paged =
                   dynamic_cast<const serve::PagedKvCache *>(&cache)) {
        decodePagedPlane(*paged, true, p.k);
        decodePagedPlane(*paged, false, p.v);
    } else {
        OLIVE_PANIC("decodePlanes: unknown KV cache layout");
    }
    return p;
}

std::vector<int>
referenceStream(const eval::LmModel &lm, serve::KvCacheFormat format,
                const std::vector<int> &prompt, size_t max_new,
                const std::vector<int> &stops)
{
    OLIVE_ASSERT(!prompt.empty() && max_new >= 1,
                 "a reference stream needs a prompt and a budget");
    const auto scheme = serve::makeKvScheme(format);
    serve::DecodeState state = makeReferenceState(lm.backbone, *scheme);
    const size_t d = lm.backbone.dModel;
    std::vector<int> out;
    Tensor h = lm.backbone.forwardChunk(lm.embed(prompt), state);
    for (;;) {
        // Logits of the newest row only, as a (1, d) projection — the
        // shape the engine uses for a token-producing row.
        Tensor last({1, d});
        const auto src = h.row(h.dim(0) - 1);
        std::copy(src.begin(), src.end(), last.row(0).begin());
        const int next = ops::argmaxRow(lm.logitsFromHidden(last).row(0));
        out.push_back(next);
        if (out.size() >= max_new ||
            std::find(stops.begin(), stops.end(), next) != stops.end())
            return out;
        h = lm.backbone.forwardChunk(lm.embed(std::vector<int>{next}),
                                     state);
    }
}

} // namespace oracle
} // namespace olive
