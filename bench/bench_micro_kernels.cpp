/**
 * @file
 * Before/after microbenchmarks of the software hot paths this repo
 * optimizes: normal-codec encode, OVP stream encode/decode, the fused
 * fakeQuant round trip, quantizer calibration (a 16384-element tensor
 * and d = 128 KV rows at 4 and 8 bits), the tiled GEMM kernels,
 * and linearForward at the eval-dims weight shapes with one A row (the
 * decode projections' one-row dot loop) and with 32 (a prefill chunk
 * through the staged tile).  Every kernel runs its retained
 * *Reference() oracle and its fast path back to back, asserts the
 * outputs are bit-identical, and reports both throughputs plus the
 * speedup.  Results are also written as machine-readable JSON
 * (BENCH_micro.json, host core count in its meta) so the repository's
 * performance trajectory is recorded across PRs.
 *
 * Measurements pin the pool to one thread: these are per-core kernel
 * numbers (bench_parallel_scaling covers scaling).  Under OLIVE_SMOKE
 * the workloads shrink and the run doubles as the `perf`-labelled CTest
 * leg: the bit-exactness asserts make kernel regressions fail CI
 * instead of just slowing it down.
 *
 *   ./build/bench_micro_kernels --reps 5 --out BENCH_micro.json
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "models/config.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "util/args.hpp"
#include "util/benchjson.hpp"
#include "util/bitops.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/smoke.hpp"
#include "util/table.hpp"

using namespace olive;

namespace {

using benchutil::gaussianTensor;
using benchutil::secondsOf;

std::vector<float>
benchData(size_t n)
{
    Rng rng(5);
    std::vector<float> xs(n);
    for (auto &v : xs)
        v = static_cast<float>(rng.heavyTail(0.01, 3.5, 60.0));
    return xs;
}

struct KernelRow
{
    std::string name;
    double work;  //!< Work units per run (for the rate columns).
    std::string unit;
    double refSec = 0.0;
    double fastSec = 0.0;
    bool identical = false;
};

/** Pre-LUT OVP stream encode: serial pack loop over reference pairs. */
std::vector<u8>
encodeStreamReference(const OvpCodec &codec, std::span<const float> xs)
{
    const size_t pairs = (xs.size() + 1) / 2;
    const bool nibble_packed = codec.bytesPerPair() == 1;
    std::vector<u8> out(pairs * codec.bytesPerPair());
    for (size_t p = 0; p < pairs; ++p) {
        const float v1 = xs[2 * p];
        const float v2 = (2 * p + 1 < xs.size()) ? xs[2 * p + 1] : 0.0f;
        u32 c1, c2;
        codec.encodePairReference(v1, v2, c1, c2);
        if (nibble_packed) {
            out[p] = bits::packNibbles(static_cast<u8>(c2),
                                       static_cast<u8>(c1));
        } else {
            out[2 * p] = static_cast<u8>(c1);
            out[2 * p + 1] = static_cast<u8>(c2);
        }
    }
    return out;
}

/** Pre-LUT OVP stream decode: serial unpack over reference pairs. */
std::vector<float>
decodeStreamReference(const OvpCodec &codec, std::span<const u8> bytes,
                      size_t count)
{
    const size_t pairs = (count + 1) / 2;
    const bool nibble_packed = codec.bytesPerPair() == 1;
    std::vector<float> out(count);
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
        codec.decodePairReference(c1, c2, v1, v2);
        out[2 * p] = v1;
        if (2 * p + 1 < count)
            out[2 * p + 1] = v2;
    }
    return out;
}

bool
sameTensor(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/** Bitwise (not FP ==) vector comparison. */
bool
sameFloats(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Bitwise decision comparison (type, then scale/threshold/MSE bits). */
bool
sameDecision(const QuantDecision &a, const QuantDecision &b)
{
    return a.normal == b.normal &&
           std::memcmp(&a.scale, &b.scale, sizeof(float)) == 0 &&
           std::memcmp(&a.threshold, &b.threshold, sizeof(double)) == 0 &&
           std::memcmp(&a.mse, &b.mse, sizeof(double)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"reps", "5"}, {"out", "BENCH_micro.json"}});
    smoke::banner();
    const int reps = static_cast<int>(args.getInt("reps"));

    // Per-core kernel numbers: pin the pool to one thread.
    par::setThreadCount(1);

    // --- workloads -----------------------------------------------------
    const size_t codec_n = smoke::count(1u << 16, 1u << 12);
    const auto xs = benchData(codec_n);
    const OvpCodec codec(NormalType::Int4, 0.4f, 2.8);
    const NormalCodec normal(NormalType::Flint4);

    const size_t calib_n = smoke::count(1u << 14, 1u << 12);
    const auto calib_xs = benchData(calib_n);
    const OliveQuantizer quantizer;

    const size_t dim = smoke::count(256, 48);
    const Tensor ta = gaussianTensor({dim, dim}, 1);
    const Tensor tb = gaussianTensor({dim, dim}, 2);

    std::vector<KernelRow> rows;
    const double elems = static_cast<double>(codec_n) / 1e6;

    // --- normal-codec encode (search vs boundary table) ----------------
    {
        KernelRow r{"normal encode", elems, "Melem/s"};
        std::vector<u32> ref_codes(codec_n), fast_codes(codec_n);
        r.refSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < codec_n; ++i)
                ref_codes[i] = normal.encodeReference(xs[i], 0.4f);
        });
        r.fastSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < codec_n; ++i)
                fast_codes[i] = normal.encode(xs[i], 0.4f);
        });
        r.identical = ref_codes == fast_codes;
        rows.push_back(r);
    }

    // --- OVP stream encode / decode ------------------------------------
    std::vector<u8> ref_bytes, fast_bytes;
    {
        KernelRow r{"ovp encode", elems, "Melem/s"};
        r.refSec = secondsOf(
            reps, [&] { ref_bytes = encodeStreamReference(codec, xs); });
        r.fastSec = secondsOf(reps, [&] { fast_bytes = codec.encode(xs); });
        r.identical = ref_bytes == fast_bytes;
        rows.push_back(r);
    }
    {
        KernelRow r{"ovp decode", elems, "Melem/s"};
        std::vector<float> ref_vals, fast_vals;
        r.refSec = secondsOf(reps, [&] {
            ref_vals = decodeStreamReference(codec, ref_bytes, codec_n);
        });
        r.fastSec = secondsOf(
            reps, [&] { fast_vals = codec.decode(fast_bytes, codec_n); });
        r.identical = sameFloats(ref_vals, fast_vals);
        rows.push_back(r);
    }

    // --- fused fakeQuant round trip ------------------------------------
    {
        KernelRow r{"fakeQuant", elems, "Melem/s"};
        std::vector<float> ref_vals, fast_vals;
        OvpStats ref_st, fast_st;
        r.refSec = secondsOf(
            reps, [&] { ref_vals = codec.fakeQuantReference(xs, &ref_st); });
        r.fastSec = secondsOf(
            reps, [&] { fast_vals = codec.fakeQuant(xs, &fast_st); });
        r.identical = sameFloats(ref_vals, fast_vals) &&
                      ref_st.pairs == fast_st.pairs &&
                      ref_st.outlierPairs == fast_st.outlierPairs &&
                      ref_st.prunedOutliers == fast_st.prunedOutliers;
        rows.push_back(r);
    }

    // --- quantizer calibration -----------------------------------------
    {
        KernelRow r{"calibrate", 1.0, "calib/s"};
        QuantDecision ref_d, fast_d;
        r.refSec = secondsOf(
            reps, [&] { ref_d = quantizer.calibrateReference(calib_xs); });
        r.fastSec =
            secondsOf(reps, [&] { fast_d = quantizer.calibrate(calib_xs); });
        r.identical = sameDecision(ref_d, fast_d);
        rows.push_back(r);
    }

    // --- per-row KV calibration ----------------------------------------
    // What the OVP KV cache runs for every appended K and V row: one
    // calibration of a d = 128 row (the eval-dims d_model), at both
    // cache widths.  Timed over a batch of distinct heavy-tailed rows so
    // no single row's visit pattern is measured alone.
    {
        const size_t kv_d = 128;
        const size_t kv_rows = smoke::count(256, 16);
        const std::vector<float> kv_xs = benchData(kv_d * kv_rows);
        for (const int bits : {4, 8}) {
            OliveConfig kv_config;
            kv_config.bits = bits;
            const OliveQuantizer kv_quantizer(kv_config);
            KernelRow r{"calibrate kv-row olive" + std::to_string(bits),
                        static_cast<double>(kv_rows), "row/s"};
            std::vector<QuantDecision> ref_d(kv_rows), fast_d(kv_rows);
            const auto row = [&](size_t i) {
                return std::span<const float>(kv_xs).subspan(i * kv_d, kv_d);
            };
            r.refSec = secondsOf(reps, [&] {
                for (size_t i = 0; i < kv_rows; ++i)
                    ref_d[i] = kv_quantizer.calibrateReference(row(i));
            });
            r.fastSec = secondsOf(reps, [&] {
                for (size_t i = 0; i < kv_rows; ++i)
                    fast_d[i] = kv_quantizer.calibrate(row(i));
            });
            r.identical = true;
            for (size_t i = 0; i < kv_rows; ++i) {
                r.identical =
                    r.identical && sameDecision(ref_d[i], fast_d[i]);
            }
            rows.push_back(r);
        }
    }

    // --- GEMM ----------------------------------------------------------
    const double gflop = 2.0 * static_cast<double>(dim) *
                         static_cast<double>(dim) *
                         static_cast<double>(dim) / 1e9;
    {
        KernelRow r{"gemm matmul", gflop, "GFLOP/s"};
        Tensor ref_c, fast_c;
        r.refSec = secondsOf(reps, [&] { ref_c = matmulReference(ta, tb); });
        r.fastSec = secondsOf(reps, [&] { fast_c = matmul(ta, tb); });
        r.identical = sameTensor(ref_c, fast_c);
        rows.push_back(r);
    }
    {
        KernelRow r{"gemm matmulTransB", gflop, "GFLOP/s"};
        Tensor ref_c, fast_c;
        r.refSec =
            secondsOf(reps, [&] { ref_c = matmulTransBReference(ta, tb); });
        r.fastSec = secondsOf(reps, [&] { fast_c = matmulTransB(ta, tb); });
        r.identical = sameTensor(ref_c, fast_c);
        rows.push_back(r);
    }

    // --- linearForward at the eval-dims weight shapes -------------------
    // The decode projections (QKV/O, FFN in and out) and the LM head,
    // as (out, in), called with one A row (decode: the one-row dot
    // loop) and with 32 (a long-prompt prefill chunk: the staged tile).
    // Each call is ~10 us-1 ms, so the timed body loops `calls` times
    // and the row reports per-call seconds.
    const models::ModelConfig eval_cfg = models::gpt2Xl();
    const size_t d = eval_cfg.evalDModel, ff = eval_cfg.evalDFf;
    const size_t linear_shapes[][2] = {
        {d, d}, {ff, d}, {d, ff}, {eval_cfg.evalVocab, d},
    };
    const int calls = static_cast<int>(smoke::count(200, 20));
    for (const size_t m : {1ul, 32ul}) {
        for (const auto &shape : linear_shapes) {
            const size_t n = shape[0], k = shape[1];
            const std::string name = "linear m" + std::to_string(m) + " " +
                                     std::to_string(n) + "x" +
                                     std::to_string(k);
            KernelRow r{name, 1.0, "call/s"};
            const Tensor x = gaussianTensor({m, k}, 3 + n);
            const Tensor w = gaussianTensor({n, k}, 4 + k);
            const Tensor bias = gaussianTensor({n}, 5 + n);
            Tensor ref_c, fast_c;
            r.refSec = secondsOf(reps, [&] {
                for (int c = 0; c < calls; ++c) {
                    ref_c = matmulTransBReference(x, w);
                    for (size_t i = 0; i < m; ++i)
                        for (size_t j = 0; j < n; ++j)
                            ref_c.at(i, j) += bias[j];
                }
            });
            r.fastSec = secondsOf(reps, [&] {
                for (int c = 0; c < calls; ++c)
                    fast_c = linearForward(x, w, bias);
            });
            r.refSec /= calls;
            r.fastSec /= calls;
            r.identical = sameTensor(ref_c, fast_c);
            rows.push_back(r);
        }
    }

    // --- axpy ----------------------------------------------------------
    {
        const double mb = static_cast<double>(dim) *
                          static_cast<double>(dim) / 1e6;
        KernelRow r{"axpy", mb, "Melem/s"};
        Tensor ref_c = ta.clone();
        Tensor fast_c = ta.clone();
        const float alpha = 0.37f;
        float *rc = ref_c.raw();
        const float *ra = tb.raw();
        r.refSec = secondsOf(reps, [&] {
            for (size_t i = 0; i < ref_c.size(); ++i)
                rc[i] += alpha * ra[i];
        });
        r.fastSec = secondsOf(reps, [&] { axpy(fast_c, tb, alpha); });
        // Accumulated the same number of reps? No: best-of timing runs
        // the body `reps` times on both sides, so the tensors have seen
        // the same sequence of in-place updates and must still agree.
        r.identical = sameTensor(ref_c, fast_c);
        rows.push_back(r);
    }

    par::setThreadCount(0);

    // --- report --------------------------------------------------------
    std::printf("== Micro kernels: reference vs fast path (1 thread) ==\n\n");
    Table t({"Kernel", "Reference", "Fast", "Speedup", "Bit-identical"});
    BenchReport report("bench_micro_kernels");
    report.note("mode", smoke::enabled() ? "smoke" : "full");
    report.note("threads", "1");
    report.note("codec_n", std::to_string(codec_n));
    report.note("calibrate_n", std::to_string(calib_n));
    report.note("gemm_dim", std::to_string(dim));
    report.note("host_cores",
                std::to_string(std::thread::hardware_concurrency()));
    for (const KernelRow &r : rows) {
        const double rate_ref = r.work / r.refSec;
        const double rate_fast = r.work / r.fastSec;
        const double speedup = r.refSec / r.fastSec;
        t.addRow({r.name,
                  Table::num(rate_ref, 2) + " " + r.unit,
                  Table::num(rate_fast, 2) + " " + r.unit,
                  Table::num(speedup, 2) + "x",
                  r.identical ? "yes" : "NO"});
        report.add(r.name)
            .label("unit", r.unit)
            .metric("ref_sec", r.refSec)
            .metric("fast_sec", r.fastSec)
            .metric("fast_us", r.fastSec * 1e6)
            .metric("ref_rate", rate_ref)
            .metric("fast_rate", rate_fast)
            .metric("speedup", speedup)
            .metric("identical", r.identical ? 1.0 : 0.0);
        OLIVE_ASSERT(r.identical,
                     "fast path diverged from reference oracle");
    }
    t.print();
    report.writeFile(args.get("out"));
    std::printf("\nJSON written to %s (smoke numbers are not "
                "paper-comparable).\n", args.get("out").c_str());
    return 0;
}
