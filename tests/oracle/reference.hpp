/**
 * @file
 * Test-only oracles for the serving stack.
 *
 * Production stores every KV cache as a block table into a shared
 * BlockPool and reads it through a decoded-block working set.  The
 * oracles here are the simplest correct alternatives, kept out of
 * src/ so production carries one storage path:
 *
 *  - KvCacheReference: one contiguous byte stream per K/V side,
 *    encoded row by row in order, read by decoding every row into a
 *    transient (length, d) scratch pair served as a single span.
 *  - makeReferenceState: a DecodeState over KvCacheReference layers,
 *    advanced by the same nn::Transformer::forwardChunk the engine
 *    uses.
 *  - decodePlanes: the decoded K and V planes of a reference or paged
 *    cache, read straight from the stored bytes (for paged caches by
 *    walking the block table through the pool's raw row accessors), so
 *    tests can compare cache contents bitwise without the working set.
 *  - referenceStream: solo greedy decode of one request.  The engine's
 *    determinism contract makes every stream a pure function of
 *    (prompt, budget, stop tokens, format), so any schedule the engine
 *    runs must reproduce it token for token.
 */

#ifndef OLIVE_TESTS_ORACLE_REFERENCE_HPP
#define OLIVE_TESTS_ORACLE_REFERENCE_HPP

#include <vector>

#include "eval/perplexity.hpp"
#include "nn/transformer.hpp"
#include "serve/kv_cache.hpp"

namespace olive {
namespace oracle {

/** The contiguous KV layout: one packed byte stream per K/V side. */
class KvCacheReference final : public serve::KvCache
{
  public:
    KvCacheReference(const serve::KvScheme &scheme, size_t d);

    /** Encodes the rows one by one, in row order. */
    void appendRows(const Tensor &k, const Tensor &v) override;
    void truncate(size_t new_len) override;
    size_t length() const override { return kMeta_.size(); }

    /**
     * Decodes every row into a transient (length, d) scratch pair and
     * serves it as one span: O(length) codec work per call.
     */
    void withDecoded(const std::function<void(std::span<const serve::KvSpan>)>
                         &fn) const override;

    /** Packed payload + per-row codec parameters, exactly. */
    size_t encodedBytes() const override;

    /** Decode the K (@p k_plane) or V plane into @p out (length, d). */
    void decodePlane(bool k_plane, Tensor &out) const;

  private:
    std::vector<u8> kBytes_, vBytes_;
    std::vector<serve::KvRowMeta> kMeta_, vMeta_;
};

/** Fresh decode state over contiguous reference caches; @p scheme
 *  must outlive it. */
serve::DecodeState makeReferenceState(const nn::Transformer &model,
                                      const serve::KvScheme &scheme);

/** A cache's decoded K and V planes, each (length, d). */
struct KvPlanes
{
    Tensor k;
    Tensor v;
};

/**
 * Decode every row of @p cache from its stored bytes.  Handles
 * KvCacheReference and serve::PagedKvCache; any other layout is a
 * test bug (fatal).  An empty cache yields empty planes.
 */
KvPlanes decodePlanes(const serve::KvCache &cache);

/**
 * Greedy generation of one request alone, over reference caches: the
 * prompt runs as one forwardChunk, then each generated token is fed
 * back as a 1-row chunk.  Ends after @p max_new tokens or at the first
 * token in @p stops (included), like serve::ServeEngine.
 */
std::vector<int> referenceStream(const eval::LmModel &lm,
                                 serve::KvCacheFormat format,
                                 const std::vector<int> &prompt,
                                 size_t max_new,
                                 const std::vector<int> &stops = {});

} // namespace oracle
} // namespace olive

#endif // OLIVE_TESTS_ORACLE_REFERENCE_HPP
