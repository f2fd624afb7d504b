/**
 * @file
 * Per-tensor OliVe quantizer (Sec. 3.4).
 *
 * The quantizer picks the outlier-victim threshold (equivalently the
 * scale factor) by MSE minimization: starting from the 3-sigma rule it
 * grid-searches threshold candidates around 3 sigma, fake-quantizes a
 * sample under each candidate, and keeps the candidate with the lowest
 * mean squared error.  For 4-bit mode it additionally selects the
 * normal-value data type (int4 vs flint4) per tensor, following ANT's
 * insight that the best type depends on the tensor's distribution.
 */

#ifndef OLIVE_QUANT_QUANTIZER_HPP
#define OLIVE_QUANT_QUANTIZER_HPP

#include <span>
#include <vector>

#include "ovp.hpp"

namespace olive {

/** Configuration of the OliVe per-tensor quantizer. */
struct OliveConfig
{
    int bits = 4;              //!< 4 or 8.
    bool adaptiveType = true;  //!< Pick int4 vs flint4 by MSE (4-bit only).
    NormalType forcedType = NormalType::Int4; //!< Used when !adaptiveType.
    int searchPoints = 28;     //!< Threshold grid resolution.
    double searchLo = 0.25;    //!< Lowest candidate, in multiples of 3 sigma.
    double searchHi = 6.00;    //!< Highest candidate, in multiples of
                               //!< 3 sigma.
    size_t sampleCap = 8192;   //!< Max elements used during the MSE search.
};

/** Outcome of calibration for one tensor. */
struct QuantDecision
{
    NormalType normal = NormalType::Int4;
    float scale = 1.0f;      //!< Real value per integer grid unit.
    double threshold = 0.0;  //!< Real-domain outlier threshold.
    double mse = 0.0;        //!< Sample MSE achieved by this decision.
};

/**
 * The OliVe per-tensor quantizer: calibrate once (on calibration data),
 * then fake-quantize or encode any tensor with the frozen decision.
 */
class OliveQuantizer
{
  public:
    explicit OliveQuantizer(OliveConfig config = {});

    const OliveConfig &config() const { return config_; }

    /**
     * Search the threshold (and normal type) minimizing sample MSE.
     * Returns bit-for-bit the decision of calibrateReference() (type,
     * scale, threshold and MSE) while scoring a fraction of the pairs:
     * candidates are visited nearest-3-sigma first and each stops being
     * scored once its running squared error shows it cannot beat the
     * best so far (OvpEncoder::squaredError; DESIGN.md "Calibration
     * layer" gives the exactness argument).  Serial; a row of up to 512
     * elements (a KV row) is calibrated without a heap allocation.
     * @pre xs is non-empty and not all zeros.
     */
    QuantDecision calibrate(std::span<const float> xs) const;

    /**
     * calibrate() that also writes xs's OVP bytes under the decision to
     * @p out, identical to makeCodec(d).encode(xs).  When xs is scored
     * whole (xs.size() <= sampleCap, e.g. a KV row) these are the
     * winning candidate's codes kept from scoring, with no second
     * encode pass.
     * @pre out.size() == ((xs.size() + 1) / 2) * bytes per pair
     */
    QuantDecision calibrateEncode(std::span<const float> xs,
                                  std::span<u8> out) const;

    /**
     * The pre-fusion grid search: per candidate, in grid order, a full
     * fake-quant round trip (encode -> byte stream -> decode) scored
     * with stats::mse, keeping the first strictly better candidate.
     * Retained as the decision oracle and the "before" baseline of
     * bench_micro_kernels.
     */
    QuantDecision calibrateReference(std::span<const float> xs) const;

    /** Codec implementing a frozen decision. */
    OvpCodec makeCodec(const QuantDecision &d) const;

    /** Calibrate on @p xs and return the round-tripped values. */
    std::vector<float> fakeQuant(std::span<const float> xs,
                                 QuantDecision *decision = nullptr) const;

  private:
    /** Pair-aligned subsample of at most sampleCap elements. */
    std::vector<float> sample(std::span<const float> xs) const;

    /**
     * The early-abandon search over @p s; with @p packed non-null also
     * writes the winner's packed codes of s there.
     */
    QuantDecision search(std::span<const float> s, u8 *packed) const;

    OliveConfig config_;
    // Per-config search invariants, fixed at construction.  Grid index
    // idx = type * searchPoints + i is candidate i (threshold
    // t0 * mult_[i]) of normal type types_[type].
    std::vector<NormalType> types_;
    std::vector<double> mult_;
    std::vector<u32> order_; //!< Grid indices in visit order.
};

} // namespace olive

#endif // OLIVE_QUANT_QUANTIZER_HPP
