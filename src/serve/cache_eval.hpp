/**
 * @file
 * Evaluation hook for KV-cache quantization: how much does storing the
 * cache through a lossy codec hurt the model, and what does it save?
 *
 * Each text runs twice — once through the incremental path with the
 * candidate scheme, once through the exact full-sequence forward — and the
 * divergence is reported as hidden-state MSE, logit MSE, and proxy
 * perplexity (the same teacher-student construction as eval/perplexity,
 * so numbers are comparable with the Table 9 machinery).  For the FP32
 * scheme the decode-parity contract makes every error metric exactly
 * zero and the perplexity exactly eval::perplexity's value.
 */

#ifndef OLIVE_SERVE_CACHE_EVAL_HPP
#define OLIVE_SERVE_CACHE_EVAL_HPP

#include <string>

#include "eval/perplexity.hpp"
#include "kv_cache.hpp"

namespace olive {
namespace serve {

/** Impact of one KV-cache scheme on one evaluation text. */
struct CacheImpact
{
    std::string scheme;        //!< KvScheme::name().
    double perplexity = 0.0;   //!< Decode-path proxy perplexity.
    double hiddenMse = 0.0;    //!< Final hidden states vs exact forward.
    double logitMse = 0.0;     //!< Logit rows vs exact forward.
    size_t encodedBytes = 0;   //!< Cache footprint, summed over texts.
    size_t fp32Bytes = 0;      //!< Same caches uncompressed.

    /** encodedBytes / fp32Bytes. */
    double compression() const;
};

/**
 * Run @p text through the incremental path over @p scheme-backed KV
 * caches and measure the divergence from the exact full-sequence
 * forward.
 * Sequences shorter than 2 tokens are skipped (no next-token targets).
 */
CacheImpact cacheImpact(const eval::LmModel &model,
                        const eval::TokenData &text,
                        const KvScheme &scheme);

} // namespace serve
} // namespace olive

#endif // OLIVE_SERVE_CACHE_EVAL_HPP
