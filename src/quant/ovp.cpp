#include "ovp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "util/bitops.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace {

/** Pairs per parallelFor chunk in the codec/census loops. */
constexpr size_t kPairGrain = 8192;

} // namespace

namespace olive {

int
defaultAbfloatBias(NormalType t)
{
    // Chosen so the abfloat range starts just above the normal range
    // (Sec. 3.3): int4 max 7 -> E2M1 bias 2 covers {12..96}; flint4 max
    // 16 -> bias 3 covers {24..192}; int8 max 127 -> E4M3 bias 4 starts
    // at 144.
    switch (t) {
      case NormalType::Int4:
        return 2;
      case NormalType::Flint4:
        return 3;
      case NormalType::Int8:
        return 4;
    }
    OLIVE_PANIC("unknown NormalType");
}

AbFloat
outlierTypeFor(NormalType t, int bias)
{
    const int b = (bias < 0) ? defaultAbfloatBias(t) : bias;
    return (t == NormalType::Int8) ? AbFloat::e4m3(b) : AbFloat::e2m1(b);
}

double
PairCensus::normalNormalPct() const
{
    return total() ? 100.0 * static_cast<double>(normalNormal) /
                         static_cast<double>(total())
                   : 0.0;
}

double
PairCensus::outlierNormalPct() const
{
    return total() ? 100.0 * static_cast<double>(outlierNormal) /
                         static_cast<double>(total())
                   : 0.0;
}

double
PairCensus::outlierOutlierPct() const
{
    return total() ? 100.0 * static_cast<double>(outlierOutlier) /
                         static_cast<double>(total())
                   : 0.0;
}

PairCensus
pairCensus(std::span<const float> xs, double k_sigma)
{
    PairCensus c;
    if (xs.empty())
        return c;
    const double m = stats::mean(xs);
    const double sigma = stats::stddev(xs);
    const double limit = k_sigma * sigma;
    // A trailing lone value zero-pads into a pair exactly as
    // OvpCodec::encode does, so census totals match the codec's pair
    // count for the same tensor.
    const size_t pairs = (xs.size() + 1) / 2;
    const size_t chunks = par::chunkCount(0, pairs, kPairGrain);
    std::vector<PairCensus> partial(chunks);
    par::parallelFor(0, pairs, kPairGrain, [&](size_t pb, size_t pe) {
        PairCensus local;
        for (size_t p = pb; p < pe; ++p) {
            const float v1 = xs[2 * p];
            const bool has2 = 2 * p + 1 < xs.size();
            const bool o1 = std::fabs(v1 - m) > limit;
            // The pad is always a normal value, as in the codec (a
            // zero can never exceed the positive outlier threshold) —
            // it must not register as an outlier just because the
            // tensor's mean is far from zero.
            const bool o2 =
                has2 && std::fabs(xs[2 * p + 1] - m) > limit;
            if (o1 && o2)
                ++local.outlierOutlier;
            else if (o1 || o2)
                ++local.outlierNormal;
            else
                ++local.normalNormal;
        }
        partial[par::chunkIndex(0, kPairGrain, pb)] = local;
    });
    for (const PairCensus &p : partial) {
        c.normalNormal += p.normalNormal;
        c.outlierNormal += p.outlierNormal;
        c.outlierOutlier += p.outlierOutlier;
    }
    return c;
}

OutlierTables::OutlierTables(NormalType normal, const AbFloat &abfloat)
{
    const u32 identifier = outlierIdentifier(normal);
    const u32 n_codes = 1u << bitWidth(normal);
    for (u32 code = 0; code < n_codes; ++code)
        decoded_[code] = abfloat.decode(code);

    // AbFloat::encode is a monotone step function of the magnitude
    // (round-to-nearest on the abfloat grid, saturating at both ends);
    // its switch points are the midpoints between consecutive distinct
    // representable magnitudes, with ties rounding away from zero
    // (llround).  All magnitudes are integers times powers of two, so
    // every midpoint is an exact double and the step positions are
    // verified exactly below.
    sign_ = 1u << (static_cast<u32>(abfloat.expBits() + abfloat.mantBits()));
    const std::vector<i64> mags = abfloat.unsignedValueTable();
    // mags is ascending and deduplicated; drop the leading zero (the
    // all-zeros code is never produced for outliers).
    std::vector<double> vals;
    for (i64 v : mags) {
        if (v > 0)
            vals.push_back(static_cast<double>(v));
    }
    OLIVE_ASSERT(!vals.empty(), "empty abfloat magnitude table");
    codes_.reserve(vals.size());
    for (double v : vals)
        codes_.push_back(abfloat.encode(v));
    bounds_.reserve(vals.size() - 1);
    for (size_t i = 0; i + 1 < vals.size(); ++i) {
        const double mid = (vals[i] + vals[i + 1]) / 2.0;
        bounds_.push_back(mid);
        // Verify the step position bit-exactly: at the midpoint the
        // reference rounds up (away from zero); just below it rounds
        // down.
        OLIVE_ASSERT(abfloat.encode(mid) == codes_[i + 1],
                     "abfloat midpoint must round up");
        OLIVE_ASSERT(abfloat.encode(std::nextafter(mid, 0.0)) == codes_[i],
                     "abfloat below-midpoint must round down");
    }
    // Below-range magnitudes saturate up to the smallest nonzero code
    // and the codes can never collide with the identifier.
    OLIVE_ASSERT(abfloat.encode(vals.front() / 4.0) == codes_[0],
                 "abfloat below-range must saturate to the minimum");
    for (u32 code : codes_) {
        OLIVE_ASSERT(code != identifier && (code | sign_) != identifier,
                     "outlier code must not be the identifier");
    }
}

const OutlierTables &
OutlierTables::shared(NormalType normal, int bias)
{
    // One slot per (normal type, bias); AbFloat accepts biases 0..40.
    // A slot is built on first use under the lock and never changes or
    // dies afterwards, so readers need only the acquire load.
    constexpr int kBiases = 41;
    constexpr size_t kSlots = 3 * kBiases;
    static std::array<std::atomic<const OutlierTables *>, kSlots> slots{};
    static Mutex build_mu;
    OLIVE_ASSERT(bias >= 0 && bias < kBiases, "bias out of sane range");
    std::atomic<const OutlierTables *> &slot =
        slots[static_cast<size_t>(normal) * kBiases +
              static_cast<size_t>(bias)];
    if (const OutlierTables *t = slot.load(std::memory_order_acquire))
        return *t;
    const MutexLock lock(build_mu);
    const OutlierTables *t = slot.load(std::memory_order_relaxed);
    if (t == nullptr) {
        t = new OutlierTables(normal, outlierTypeFor(normal, bias));
        slot.store(t, std::memory_order_release);
    }
    return *t;
}

u32
OutlierTables::encode(double grid) const
{
    const double mag = std::fabs(grid);
    size_t idx;
    if (bounds_.size() <= 16) {
        size_t n_above = 0;
        for (double b : bounds_)
            n_above += (mag >= b) ? 1u : 0u;
        idx = n_above;
    } else {
        idx = static_cast<size_t>(
            std::upper_bound(bounds_.begin(), bounds_.end(), mag) -
            bounds_.begin());
    }
    const u32 code = codes_[idx];
    return (grid < 0.0) ? (code | sign_) : code;
}

OvpEncoder::OvpEncoder(NormalType normal, float scale, double threshold,
                       int abfloat_bias)
    : normal_(normal),
      codec_(&NormalCodec::shared(normal)),
      abfloat_(outlierTypeFor(normal, abfloat_bias)),
      tables_(&OutlierTables::shared(normal, abfloat_.bias())),
      scale_(scale),
      threshold_(threshold),
      identifier_(outlierIdentifier(normal))
{
    OLIVE_ASSERT(scale_ > 0.0f, "OVP scale must be positive");
    OLIVE_ASSERT(threshold_ > 0.0, "OVP threshold must be positive");
}

template <bool kReference>
u32
OvpEncoder::quantizeOutlier(float val) const
{
    // Outliers quantize on the same integer grid as normals; the
    // accumulator-overflow rule of Sec. 4.5 clips the grid magnitude to
    // 2^15 (never reached in practice: the largest observed outliers sit
    // around 325 sigma ~ 768 grid units).
    double grid = static_cast<double>(val) / scale_;
    constexpr double kClip = 32768.0; // 2^15
    grid = std::clamp(grid, -kClip, kClip);
    if constexpr (kReference) {
        const u32 code = abfloat_.encode(grid);
        // Abfloat never emits +-0, so it can never collide with the
        // identifier (which is the -0 bit pattern of both widths).
        OLIVE_ASSERT(code != identifier_,
                     "outlier code must not be the identifier");
        return code;
    } else {
        // The table's step positions were verified against the
        // reference encoder and its codes screened against the
        // identifier when it was built.
        return tables_->encode(grid);
    }
}

template <bool kReference>
PairRole
OvpEncoder::encodePairImpl(float val1, float val2, u32 &out1,
                           u32 &out2) const
{
    const double a1 = std::fabs(val1);
    const double a2 = std::fabs(val2);
    const bool o1 = a1 > threshold_;
    const bool o2 = a2 > threshold_;

    if (o1 && a1 >= a2) {
        // Left outlier: the right value is sacrificed as the victim.
        out1 = quantizeOutlier<kReference>(val1);
        out2 = identifier_;
        return o2 ? PairRole::PrunedOutlier : PairRole::OutlierVictim;
    }
    if (o2) {
        // Right outlier: the left value is the victim.  If the left
        // value was itself an outlier (o1, but smaller), it is pruned.
        out1 = identifier_;
        out2 = quantizeOutlier<kReference>(val2);
        return o1 ? PairRole::PrunedOutlier : PairRole::OutlierVictim;
    }
    if constexpr (kReference) {
        out1 = codec_->encodeReference(val1, scale_);
        out2 = codec_->encodeReference(val2, scale_);
    } else {
        out1 = codec_->encode(val1, scale_);
        out2 = codec_->encode(val2, scale_);
    }
    return PairRole::NormalNormal;
}

PairRole
OvpEncoder::encodePair(float val1, float val2, u32 &out1, u32 &out2) const
{
    return encodePairImpl<false>(val1, val2, out1, out2);
}

PairRole
OvpEncoder::encodePairReference(float val1, float val2, u32 &out1,
                                u32 &out2) const
{
    return encodePairImpl<true>(val1, val2, out1, out2);
}

template <NormalType T>
double
OvpEncoder::squaredErrorFor(std::span<const float> xs, double limit,
                            u8 *packed) const
{
    // Copied to locals: stores through the u8 output may alias any
    // object, which would force member reloads after every write.
    const std::span<const int> values = codec_->values();
    const std::span<const u32> codes = codec_->codes();
    const double scale = scale_;
    const float fscale = scale_;
    const double threshold = threshold_;
    const u32 identifier = identifier_;

    // One pair: codes and decoded values exactly as encodePair +
    // OvpCodec::decodePair produce them (the LUT entries are the same
    // float(value) * scale and float(decoded) * scale expressions).
    const auto roundTrip = [&](float v1, float v2, u32 &c1, u32 &c2,
                               float &q1, float &q2) {
        if (std::fabs(v1) > threshold || std::fabs(v2) > threshold)
            [[unlikely]] {
            encodePair(v1, v2, c1, c2);
            q1 = c1 == identifier ? 0.0f : outlierValue(c1);
            q2 = c2 == identifier ? 0.0f : outlierValue(c2);
            return;
        }
        const size_t i1 =
            NormalCodec::nearestIndex<T>(static_cast<double>(v1) / scale);
        const size_t i2 =
            NormalCodec::nearestIndex<T>(static_cast<double>(v2) / scale);
        c1 = codes[i1];
        c2 = codes[i2];
        q1 = static_cast<float>(values[i1]) * fscale;
        q2 = static_cast<float>(values[i2]) * fscale;
    };
    const auto store = [&](size_t p, u32 c1, u32 c2) {
        if constexpr (T == NormalType::Int8) {
            packed[2 * p] = static_cast<u8>(c1);
            packed[2 * p + 1] = static_cast<u8>(c2);
        } else {
            packed[p] = bits::packNibbles(static_cast<u8>(c2),
                                          static_cast<u8>(c1));
        }
    };

    const size_t n = xs.size();
    const size_t full_pairs = n / 2;
    double acc = 0.0;
    for (size_t p = 0; p < full_pairs; ++p) {
        const float v1 = xs[2 * p];
        const float v2 = xs[2 * p + 1];
        u32 c1, c2;
        float q1, q2;
        roundTrip(v1, v2, c1, c2, q1, q2);
        if (packed)
            store(p, c1, c2);
        const double d1 = static_cast<double>(v1) - q1;
        acc += d1 * d1;
        const double d2 = static_cast<double>(v2) - q2;
        acc += d2 * d2;
        if (acc > limit)
            return acc;
    }
    if (n % 2 != 0) {
        // The trailing lone value pairs with a zero pad that is encoded
        // but, like stats::mse over the n real elements, not scored.
        const float v1 = xs[n - 1];
        u32 c1, c2;
        float q1, q2;
        roundTrip(v1, 0.0f, c1, c2, q1, q2);
        if (packed)
            store(full_pairs, c1, c2);
        const double d1 = static_cast<double>(v1) - q1;
        acc += d1 * d1;
    }
    return acc;
}

double
OvpEncoder::squaredError(std::span<const float> xs, double limit,
                         u8 *packed) const
{
    switch (normal_) {
      case NormalType::Int4:
        return squaredErrorFor<NormalType::Int4>(xs, limit, packed);
      case NormalType::Flint4:
        return squaredErrorFor<NormalType::Flint4>(xs, limit, packed);
      case NormalType::Int8:
        return squaredErrorFor<NormalType::Int8>(xs, limit, packed);
    }
    OLIVE_PANIC("unknown NormalType");
}

OvpCodec::OvpCodec(NormalType normal, float scale, double threshold,
                   int abfloat_bias)
    : enc_(normal, scale, threshold, abfloat_bias)
{
    // Decoded real value of every code under the fixed scale, using
    // exactly the reference decode expressions so LUT lookups are
    // bit-identical to decodePairReference.
    const NormalCodec &normal_codec = NormalCodec::shared(normal);
    const u32 n_codes = 1u << bitWidth(normal);
    for (u32 code = 0; code < n_codes; ++code) {
        if (code != enc_.identifier())
            normalValue_[code] = normal_codec.decode(code, scale);
        outlierValue_[code] = enc_.outlierValue(code);
    }
}

size_t
OvpCodec::bytesPerPair() const
{
    return bytesPerPair(normalType());
}

size_t
OvpCodec::bytesPerPair(NormalType t)
{
    return bitWidth(t) == 4 ? 1 : 2;
}

void
OvpCodec::decodePair(u32 in1, u32 in2, float &val1, float &val2) const
{
    const u32 identifier = enc_.identifier();
    OLIVE_ASSERT(!(in1 == identifier && in2 == identifier),
                 "both slots cannot hold the identifier");
    if (in1 == identifier) {
        val1 = 0.0f;
        val2 = outlierValue_[in2];
    } else if (in2 == identifier) {
        val1 = outlierValue_[in1];
        val2 = 0.0f;
    } else {
        val1 = normalValue_[in1];
        val2 = normalValue_[in2];
    }
}

void
OvpCodec::decodePairReference(u32 in1, u32 in2, float &val1,
                              float &val2) const
{
    const u32 identifier = enc_.identifier();
    OLIVE_ASSERT(!(in1 == identifier && in2 == identifier),
                 "both slots cannot hold the identifier");
    const float scale = enc_.scale();
    const AbFloat &abfloat = enc_.outlierType();
    const NormalCodec &normal_codec = NormalCodec::shared(normalType());
    if (in1 == identifier) {
        val1 = 0.0f;
        val2 = static_cast<float>(abfloat.decode(in2)) * scale;
    } else if (in2 == identifier) {
        val1 = static_cast<float>(abfloat.decode(in1)) * scale;
        val2 = 0.0f;
    } else {
        val1 = normal_codec.decode(in1, scale);
        val2 = normal_codec.decode(in2, scale);
    }
}

std::vector<u8>
OvpCodec::encode(std::span<const float> xs, OvpStats *stats) const
{
    const size_t pairs = (xs.size() + 1) / 2;
    std::vector<u8> out(pairs * bytesPerPair());
    const bool nibble_packed = bytesPerPair() == 1;

    // Pairs encode independently into disjoint output bytes; the stats
    // counters reduce from per-chunk partials in chunk order, so both
    // the byte stream and the counts are thread-count invariant.
    const size_t chunks = par::chunkCount(0, pairs, kPairGrain);
    std::vector<OvpStats> partial(chunks);
    par::parallelFor(0, pairs, kPairGrain, [&](size_t pb, size_t pe) {
        OvpStats st;
        for (size_t p = pb; p < pe; ++p) {
            const float v1 = xs[2 * p];
            const float v2 =
                (2 * p + 1 < xs.size()) ? xs[2 * p + 1] : 0.0f;
            u32 c1, c2;
            const PairRole role = encodePair(v1, v2, c1, c2);

            if (role != PairRole::NormalNormal) {
                ++st.outlierPairs;
                if (role == PairRole::PrunedOutlier)
                    ++st.prunedOutliers;
            }

            if (nibble_packed) {
                // Low nibble holds the first (left) element so a byte
                // read yields the pair in order.
                out[p] = bits::packNibbles(static_cast<u8>(c2),
                                           static_cast<u8>(c1));
            } else {
                out[2 * p] = static_cast<u8>(c1);
                out[2 * p + 1] = static_cast<u8>(c2);
            }
        }
        partial[par::chunkIndex(0, kPairGrain, pb)] = st;
    });

    if (stats) {
        OvpStats total;
        total.pairs = pairs;
        for (const OvpStats &st : partial) {
            total.outlierPairs += st.outlierPairs;
            total.prunedOutliers += st.prunedOutliers;
        }
        *stats = total;
    }
    return out;
}

std::vector<float>
OvpCodec::decode(std::span<const u8> bytes, size_t count) const
{
    const size_t pairs = (count + 1) / 2;
    OLIVE_ASSERT(bytes.size() >= pairs * bytesPerPair(),
                 "decode stream too short");
    std::vector<float> out(count);
    const bool nibble_packed = bytesPerPair() == 1;
    par::parallelFor(0, pairs, kPairGrain, [&](size_t pb, size_t pe) {
        for (size_t p = pb; p < pe; ++p) {
            u32 c1, c2;
            if (nibble_packed) {
                c1 = bits::lowNibble(bytes[p]);
                c2 = bits::highNibble(bytes[p]);
            } else {
                c1 = bytes[2 * p];
                c2 = bytes[2 * p + 1];
            }
            float v1, v2;
            decodePair(c1, c2, v1, v2);
            out[2 * p] = v1;
            if (2 * p + 1 < count)
                out[2 * p + 1] = v2;
        }
    });
    return out;
}

std::vector<float>
OvpCodec::fakeQuant(std::span<const float> xs, OvpStats *stats) const
{
    // Fused value -> codes -> value pass: no byte stream, no second
    // sweep.  Codes are exactly what encode() would pack and decodePair
    // is the same table decode() uses, so the output floats and the
    // stats are bit-identical to decode(encode(xs), xs.size()).
    const size_t pairs = (xs.size() + 1) / 2;
    std::vector<float> out(xs.size());
    const size_t chunks = par::chunkCount(0, pairs, kPairGrain);
    std::vector<OvpStats> partial(stats ? chunks : 0);
    par::parallelFor(0, pairs, kPairGrain, [&](size_t pb, size_t pe) {
        OvpStats st;
        for (size_t p = pb; p < pe; ++p) {
            const float v1 = xs[2 * p];
            const bool has2 = 2 * p + 1 < xs.size();
            const float v2 = has2 ? xs[2 * p + 1] : 0.0f;
            u32 c1, c2;
            const PairRole role = encodePair(v1, v2, c1, c2);
            if (role != PairRole::NormalNormal) {
                ++st.outlierPairs;
                if (role == PairRole::PrunedOutlier)
                    ++st.prunedOutliers;
            }
            float q1, q2;
            decodePair(c1, c2, q1, q2);
            out[2 * p] = q1;
            if (has2)
                out[2 * p + 1] = q2;
        }
        if (stats)
            partial[par::chunkIndex(0, kPairGrain, pb)] = st;
    });
    if (stats) {
        OvpStats total;
        total.pairs = pairs;
        for (const OvpStats &st : partial) {
            total.outlierPairs += st.outlierPairs;
            total.prunedOutliers += st.prunedOutliers;
        }
        *stats = total;
    }
    return out;
}

std::vector<float>
OvpCodec::fakeQuantReference(std::span<const float> xs,
                             OvpStats *stats) const
{
    // The pre-LUT round trip: search-based normal encode into a packed
    // byte stream, then a second per-scalar decode sweep.  Serial on
    // purpose — it is the single-thread "before" baseline the micro
    // benchmark compares against, and the oracle the tests hold
    // fakeQuant() to.
    const size_t pairs = (xs.size() + 1) / 2;
    const bool nibble_packed = bytesPerPair() == 1;
    std::vector<u8> bytes(pairs * bytesPerPair());
    OvpStats st;
    st.pairs = pairs;
    for (size_t p = 0; p < pairs; ++p) {
        const float v1 = xs[2 * p];
        const float v2 = (2 * p + 1 < xs.size()) ? xs[2 * p + 1] : 0.0f;
        u32 c1, c2;
        const PairRole role = encodePairReference(v1, v2, c1, c2);
        if (role != PairRole::NormalNormal) {
            ++st.outlierPairs;
            if (role == PairRole::PrunedOutlier)
                ++st.prunedOutliers;
        }
        if (nibble_packed) {
            bytes[p] = bits::packNibbles(static_cast<u8>(c2),
                                         static_cast<u8>(c1));
        } else {
            bytes[2 * p] = static_cast<u8>(c1);
            bytes[2 * p + 1] = static_cast<u8>(c2);
        }
    }
    std::vector<float> out(xs.size());
    for (size_t p = 0; p < pairs; ++p) {
        u32 c1, c2;
        if (nibble_packed) {
            c1 = bits::lowNibble(bytes[p]);
            c2 = bits::highNibble(bytes[p]);
        } else {
            c1 = bytes[2 * p];
            c2 = bytes[2 * p + 1];
        }
        float v1, v2;
        decodePairReference(c1, c2, v1, v2);
        out[2 * p] = v1;
        if (2 * p + 1 < xs.size())
            out[2 * p + 1] = v2;
    }
    if (stats)
        *stats = st;
    return out;
}

double
OvpCodec::fakeQuantMse(std::span<const float> xs) const
{
    if (xs.empty())
        return 0.0;
    return enc_.squaredError(xs) / static_cast<double>(xs.size());
}

} // namespace olive
