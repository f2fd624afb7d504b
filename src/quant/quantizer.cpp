#include "quantizer.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace olive {

namespace {

/** Normal types the search considers, in grid order. */
std::vector<NormalType>
candidateTypes(const OliveConfig &config)
{
    if (config.bits == 8)
        return {NormalType::Int8};
    if (config.adaptiveType)
        return {NormalType::Int4, NormalType::Flint4};
    return {config.forcedType};
}

/**
 * Initial threshold from the 3-sigma rule (Sec. 3.4).  The bulk sigma
 * is outlier-robust: on tensors whose outliers reach hundreds of sigma
 * (OPT-6.7B activations), the plain standard deviation is inflated by
 * the tail itself and would seed the search far above the bulk.
 * Degenerate near-constant tensors fall back to the absolute maximum.
 */
double
threeSigma(std::span<const float> s)
{
    const double sigma = stats::robustSigma(s);
    const double amax = stats::absMax(s);
    OLIVE_ASSERT(amax > 0.0, "cannot calibrate an all-zero tensor");
    return (sigma > 0.0) ? 3.0 * sigma : amax;
}

/**
 * The largest running squared-error sum that can still win against a
 * best MSE of @p bound over @p n elements: the largest a whose mean
 * fl(a / n) is <= bound, or < bound when @p ties_lose (a candidate
 * later in grid order loses a tie).  Division by n is monotone, so
 * every larger sum loses.  Found by stepping from bound * n to the
 * exact boundary; if that is not reached within a few ulps, +inf
 * (never abandon), which is always safe.
 */
double
winLimit(double bound, double n, bool ties_lose)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto wins = [&](double a) {
        const double m = a / n;
        return ties_lose ? m < bound : m <= bound;
    };
    double a = bound * n;
    if (!std::isfinite(a))
        return kInf;
    for (int step = 0; step < 16; ++step) {
        if (!wins(a)) {
            a = std::nextafter(a, -kInf);
            continue;
        }
        const double up = std::nextafter(a, kInf);
        if (!wins(up))
            return a;
        a = up;
    }
    return kInf;
}

} // namespace

OliveQuantizer::OliveQuantizer(OliveConfig config)
    : config_(config)
{
    OLIVE_ASSERT(config_.bits == 4 || config_.bits == 8,
                 "OliVe supports 4-bit and 8-bit modes");
    OLIVE_ASSERT(config_.searchPoints >= 2, "need at least two candidates");
    OLIVE_ASSERT(config_.searchLo > 0.0 &&
                     config_.searchHi > config_.searchLo,
                 "bad threshold search range");

    types_ = candidateTypes(config_);
    const size_t points = static_cast<size_t>(config_.searchPoints);
    // Geometric sweep of the threshold around 3 sigma: the same
    // expression calibrateReference evaluates per candidate.
    mult_.resize(points);
    size_t nearest = 0;
    for (size_t i = 0; i < points; ++i) {
        const double frac =
            static_cast<double>(i) / static_cast<double>(points - 1);
        mult_[i] = config_.searchLo *
                   std::pow(config_.searchHi / config_.searchLo, frac);
        if (std::fabs(std::log(mult_[i])) <
            std::fabs(std::log(mult_[nearest])))
            nearest = i;
    }
    // Visit order: the candidate nearest 3 sigma of every type first,
    // then outward one grid step at a time, above before below.  A good
    // best found early is what lets later candidates abandon early.
    for (size_t k = 0; order_.size() < types_.size() * points; ++k) {
        for (const size_t i : {nearest + k, nearest - k}) {
            if (i >= points || (k == 0 && !order_.empty()))
                continue;
            for (size_t t = 0; t < types_.size(); ++t)
                order_.push_back(static_cast<u32>(t * points + i));
        }
    }
}

std::vector<float>
OliveQuantizer::sample(std::span<const float> xs) const
{
    if (xs.size() <= config_.sampleCap)
        return std::vector<float>(xs.begin(), xs.end());
    // Keep whole pairs so the OVP pairing behaviour is representative.
    const size_t pairs_total = xs.size() / 2;
    const size_t pairs_keep = config_.sampleCap / 2;
    const size_t stride = pairs_total / pairs_keep;
    std::vector<float> out;
    out.reserve(pairs_keep * 2);
    for (size_t p = 0; p < pairs_total && out.size() < pairs_keep * 2;
         p += stride) {
        out.push_back(xs[2 * p]);
        out.push_back(xs[2 * p + 1]);
    }
    return out;
}

QuantDecision
OliveQuantizer::search(std::span<const float> s, u8 *packed) const
{
    const double t0 = threeSigma(s);
    const size_t points = static_cast<size_t>(config_.searchPoints);
    const double n = static_cast<double>(s.size());

    // Ping-pong code buffers: the candidate being scored writes `cur`,
    // and a new best swaps it with `best_codes`, so the winner's codes
    // survive without a second encode.  Rows of up to 1024 code bytes
    // (d = 2048 at 4 bits, 1024 at 8) use the stack buffer.
    const size_t code_bytes =
        packed ? ((s.size() + 1) / 2) * OvpCodec::bytesPerPair(types_[0])
               : 0;
    std::array<u8, 1024> stack_codes{};
    std::vector<u8> heap_codes;
    u8 *cur = nullptr;
    u8 *best_codes = packed;
    if (packed) {
        if (code_bytes > stack_codes.size())
            heap_codes.resize(code_bytes);
        cur = heap_codes.empty() ? stack_codes.data() : heap_codes.data();
    }

    // The winner is the lexicographic minimum of (mse, grid index) —
    // the first strictly better candidate in grid order, as in the
    // reference — whatever order the candidates are visited in.
    QuantDecision best;
    best.mse = std::numeric_limits<double>::infinity();
    u32 best_idx = std::numeric_limits<u32>::max();
    double limit = OvpEncoder::kNoLimit;      // for idx < best_idx
    double limit_ties = OvpEncoder::kNoLimit; // for idx > best_idx
    for (const u32 idx : order_) {
        const NormalType type = types_[idx / points];
        const double threshold = t0 * mult_[idx % points];
        const float scale =
            static_cast<float>(threshold / maxNormalMagnitude(type));
        if (scale <= 0.0f || !std::isfinite(scale))
            continue; // the reference scores these +inf: they never win
        const OvpEncoder enc(type, scale, threshold);
        const double acc =
            enc.squaredError(s, idx > best_idx ? limit_ties : limit, cur);
        // An abandoned candidate's partial mean already loses this
        // comparison, so only complete sums can get past it.
        const double mse = acc / n;
        if (!(mse < best.mse || (mse == best.mse && idx < best_idx)))
            continue;
        best.normal = type;
        best.scale = scale;
        best.threshold = threshold;
        best.mse = mse;
        best_idx = idx;
        limit = winLimit(mse, n, false);
        limit_ties = winLimit(mse, n, true);
        std::swap(cur, best_codes);
    }
    OLIVE_ASSERT(std::isfinite(best.mse), "calibration found no candidate");
    if (best_codes != packed)
        std::memcpy(packed, best_codes, code_bytes);
    return best;
}

QuantDecision
OliveQuantizer::calibrate(std::span<const float> xs) const
{
    OLIVE_ASSERT(!xs.empty(), "cannot calibrate on empty data");
    // Under the cap, sample(xs) would return a verbatim copy — score
    // the input span directly instead (per-row KV calibration lands
    // here for every appended token).
    if (xs.size() <= config_.sampleCap)
        return search(xs, nullptr);
    return search(sample(xs), nullptr);
}

QuantDecision
OliveQuantizer::calibrateEncode(std::span<const float> xs,
                                std::span<u8> out) const
{
    OLIVE_ASSERT(!xs.empty(), "cannot calibrate on empty data");
    OLIVE_ASSERT(out.size() ==
                     ((xs.size() + 1) / 2) *
                         OvpCodec::bytesPerPair(types_[0]),
                 "calibrateEncode output size");
    if (xs.size() <= config_.sampleCap)
        return search(xs, out.data());
    // Scored on a sample: the sample's codes are not xs's bytes.
    const QuantDecision d = calibrate(xs);
    const std::vector<u8> bytes = makeCodec(d).encode(xs);
    std::copy(bytes.begin(), bytes.end(), out.begin());
    return d;
}

QuantDecision
OliveQuantizer::calibrateReference(std::span<const float> xs) const
{
    OLIVE_ASSERT(!xs.empty(), "cannot calibrate on empty data");
    const std::vector<float> s = sample(xs);
    const double t0 = threeSigma(s);
    const std::vector<NormalType> types = candidateTypes(config_);
    const size_t points = static_cast<size_t>(config_.searchPoints);

    QuantDecision best;
    best.mse = std::numeric_limits<double>::infinity();
    for (const NormalType type : types) {
        const int max_mag = maxNormalMagnitude(type);
        for (size_t i = 0; i < points; ++i) {
            const double frac = static_cast<double>(i) /
                                static_cast<double>(points - 1);
            const double mult =
                config_.searchLo *
                std::pow(config_.searchHi / config_.searchLo, frac);
            QuantDecision cand;
            cand.normal = type;
            cand.threshold = t0 * mult;
            cand.scale = static_cast<float>(cand.threshold / max_mag);
            if (cand.scale <= 0.0f || !std::isfinite(cand.scale))
                continue;
            // Materialize the full round trip and score it with
            // stats::mse.
            const OvpCodec codec(type, cand.scale, cand.threshold);
            cand.mse = stats::mse(s, codec.fakeQuantReference(s));
            if (cand.mse < best.mse)
                best = cand;
        }
    }
    OLIVE_ASSERT(std::isfinite(best.mse), "calibration found no candidate");
    return best;
}

OvpCodec
OliveQuantizer::makeCodec(const QuantDecision &d) const
{
    return OvpCodec(d.normal, d.scale, d.threshold);
}

std::vector<float>
OliveQuantizer::fakeQuant(std::span<const float> xs,
                          QuantDecision *decision) const
{
    const QuantDecision d = calibrate(xs);
    if (decision)
        *decision = d;
    return makeCodec(d).fakeQuant(xs);
}

} // namespace olive
