/**
 * @file
 * Serving-engine demo: continuous-batching autoregressive generation
 * over a synthetic causal LM with a selectable KV-cache format.
 *
 * Submits a burst of random-prompt requests, drains the engine, and
 * prints per-request generations plus the engine's throughput, step
 * latency, and KV-cache memory accounting — then quantifies what the
 * chosen cache codec costs in model quality (serve::cacheImpact).
 *
 *   ./build/example_serving --cache olive4 --requests 8 --max-new 12
 *
 * --scenario replaces the random burst with a seeded workload trace
 * replayed through serve::replayTrace — pass a built-in scenario name
 * (uniform, poisson, bursty, diurnal, shared-system, multi-turn) or
 * the path of a trace file written by Workload::dump().  Multi-turn
 * scenarios pair naturally with --retain, which keeps retired
 * prefixes shareable for follow-up turns:
 *
 *   ./build/example_serving --scenario multi-turn --retain 1
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "serve/cache_eval.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/random.hpp"
#include "util/smoke.hpp"
#include "util/table.hpp"

using namespace olive;

namespace {

/** --scenario: a trace file path if one exists, else a built-in name. */
serve::Workload
loadScenario(const std::string &arg)
{
    std::ifstream in(arg);
    if (in) {
        std::stringstream text;
        text << in.rdbuf();
        return serve::Workload::parse(text.str());
    }
    return serve::Workload::generate(serve::Workload::namedSpec(arg));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"model", "GPT2-XL"},
                           {"cache", "olive4"},
                           {"requests", ""},
                           {"prompt-len", ""},
                           {"max-new", ""},
                           {"batch-tokens", "8"},
                           {"max-active", "4"},
                           {"block-rows", "4"},
                           {"pool-blocks", "0"},
                           {"decoded-cache-blocks", "0"},
                           {"share", "1"},
                           {"retain", "0"},
                           {"retain-blocks", "0"},
                           {"scenario", ""},
                           {"shared-prefix", "0"},
                           {"stop-tokens", "0"},
                           {"prefill-chunk", "32"},
                           {"speculate", "0"},
                           {"draft-len", "4"},
                           {"impact", "1"},
                           {"seed", "17"}});
    smoke::banner();

    const size_t n_requests = args.get("requests").empty()
                                  ? smoke::count(8, 3)
                                  : args.getSize("requests", 1);
    const size_t prompt_len = args.get("prompt-len").empty()
                                  ? smoke::count(16, 5)
                                  : args.getSize("prompt-len", 1);
    const size_t max_new = args.get("max-new").empty()
                               ? smoke::count(10, 4)
                               : args.getSize("max-new", 1);

    const auto config = models::byName(args.get("model"));
    eval::LmModel lm = eval::makeLm(config, 1234);
    // Calibrate the proxy LM's temperature so the FP32 row lands at a
    // realistic perplexity — otherwise the teacher is degenerate (PPL
    // ~1) and the impact columns are meaningless.
    eval::calibrateToTarget(lm, 24.0, smoke::count(2, 1),
                            smoke::count(12, 8), 7);

    serve::ServeConfig scfg;
    scfg.cacheFormat = serve::parseKvCacheFormat(args.get("cache"));
    scfg.maxBatchTokens = args.getSize("batch-tokens", 1);
    scfg.maxActiveRequests = args.getSize("max-active", 1);
    scfg.blockRows = args.getSize("block-rows", 1);
    scfg.poolBlocks = args.getSize("pool-blocks", 0);
    scfg.prefixSharing = args.getBool("share");
    scfg.retainPrefixes = args.getBool("retain");
    scfg.retainBlocks = args.getSize("retain-blocks", 0);
    scfg.decodedCacheBlocks = args.getSize("decoded-cache-blocks", 0);
    scfg.prefillChunk = args.getSize("prefill-chunk", 1);
    scfg.speculate = args.getBool("speculate");
    scfg.draftLen = args.getSize("draft-len", 1);
    serve::ServeEngine engine(lm, scfg);

    std::printf("== Serving demo: %s, %zu-layer eval backbone, d=%zu, "
                "vocab=%zu ==\n",
                config.name.c_str(), config.evalLayers, config.evalDModel,
                config.evalVocab);
    std::printf("cache=%s  batch-tokens=%zu  max-active=%zu  "
                "requests=%zu  prompt~%zu  max-new=%zu\n",
                engine.kvScheme().name().c_str(), scfg.maxBatchTokens,
                scfg.maxActiveRequests, n_requests, prompt_len, max_new);
    std::printf("prefill-chunk=%zu (%s)  speculate=%s\n", scfg.prefillChunk,
                scfg.prefillChunk > 1 ? "batched" : "token-by-token",
                scfg.speculate
                    ? ("ngram, draft-len " + std::to_string(scfg.draftLen))
                          .c_str()
                    : "off");
    std::printf("block-rows=%zu  pool-blocks=%s  prefix-sharing=%s  "
                "decoded-cache=%s\n",
                scfg.blockRows,
                scfg.poolBlocks ? std::to_string(scfg.poolBlocks).c_str()
                                : "unbounded",
                scfg.prefixSharing ? "on" : "off",
                scfg.decodedCacheBlocks
                    ? (std::to_string(scfg.decodedCacheBlocks) + " blocks")
                          .c_str()
                    : "unbounded");
    std::printf("\n");

    size_t steps = 0;
    if (!args.get("scenario").empty()) {
        const serve::Workload w = loadScenario(args.get("scenario"));
        std::printf("scenario: %zu requests over %zu sessions (seed "
                    "%llu, vocab %zu)\n",
                    w.requests().size(), w.spec().sessions,
                    static_cast<unsigned long long>(w.spec().seed),
                    w.spec().vocab);
        const serve::ReplayResult rr = serve::replayTrace(engine, w);
        std::printf("replay: %zu ticks, peak pending %zu, peak active "
                    "%zu\n\n",
                    rr.ticks, rr.peakPending, rr.peakActive);
        steps = static_cast<size_t>(engine.metrics().steps);
    } else {
        Rng rng(static_cast<u64>(args.getInt("seed")));
        // --shared-prefix: all requests extend one common prompt prefix
        // so the paged cache's prefix sharing has something to
        // deduplicate.
        std::vector<int> common;
        if (args.getBool("shared-prefix")) {
            common.resize(2 * prompt_len);
            for (auto &t : common)
                t = static_cast<int>(rng.uniformInt(lm.vocab));
        }
        // --stop-tokens N: give every request N random stop tokens,
        // making generation lengths data-dependent.
        const size_t n_stops = args.getSize("stop-tokens", 0);
        for (size_t r = 0; r < n_requests; ++r) {
            // Varied prompt lengths exercise chunked prefill+admission.
            const size_t len =
                1 + prompt_len / 2 + rng.uniformInt(prompt_len);
            std::vector<int> prompt = common;
            for (size_t i = 0; i < len; ++i)
                prompt.push_back(
                    static_cast<int>(rng.uniformInt(lm.vocab)));
            std::vector<int> stops(n_stops);
            for (auto &t : stops)
                t = static_cast<int>(rng.uniformInt(lm.vocab));
            engine.submit(std::move(prompt), max_new, std::move(stops));
        }
        steps = engine.runToCompletion();
    }

    Table per_req({"Req", "Prompt", "Generated", "Admit", "First tok",
                   "TTFT ms", "Finish", "Shared", "Accept", "Stop?",
                   "First tokens..."});
    // Spelled as append rather than "s" + to_string(...): GCC 12's
    // -Wrestrict false-positives on operator+(const char*, string&&).
    const auto step_tag = [](u64 s) {
        std::string t(1, 's');
        t += std::to_string(s);
        return t;
    };
    for (const serve::FinishedRequest &f : engine.finished()) {
        std::string preview;
        for (size_t i = 0; i < f.generated.size() && i < 6; ++i) {
            if (i)
                preview += ' ';
            preview += std::to_string(f.generated[i]);
        }
        if (f.generated.size() > 6)
            preview += " ...";
        const std::string accept =
            f.specDrafted
                ? std::to_string(f.specAccepted) + "/" +
                      std::to_string(f.specDrafted)
                : "-";
        per_req.addRow({std::to_string(f.id), std::to_string(f.prompt.size()),
                        std::to_string(f.generated.size()),
                        step_tag(f.admitStep), step_tag(f.firstTokenStep),
                        Table::num(f.ttftSeconds * 1e3, 2),
                        step_tag(f.finishStep),
                        std::to_string(f.sharedPrefixRows), accept,
                        f.stoppedByToken ? "eos" : "-", preview});
    }
    per_req.print();

    const serve::ServeMetrics &m = engine.metrics();
    std::printf("\nsteps: %zu   tokens: %llu processed, %llu generated\n",
                steps, static_cast<unsigned long long>(m.tokensProcessed),
                static_cast<unsigned long long>(m.tokensGenerated));
    std::printf("throughput: %.1f tok/s processed, %.1f tok/s generated\n",
                m.tokensPerSecond(), m.generatedPerSecond());
    std::printf("step latency: p50 %.3f ms, p99 %.3f ms\n",
                m.stepLatencyMs(50.0), m.stepLatencyMs(99.0));
    std::printf("time to first token: p50 %.3f ms, p99 %.3f ms\n",
                m.ttftMs(50.0), m.ttftMs(99.0));
    if (scfg.speculate) {
        std::printf("speculative decode: %llu drafted, %llu accepted "
                    "(%.1f%% — streams stay bit-identical to greedy "
                    "regardless)\n",
                    static_cast<unsigned long long>(m.specDrafted),
                    static_cast<unsigned long long>(m.specAccepted),
                    100.0 * m.specAcceptRate());
    }
    std::printf("peak KV cache: %zu B encoded vs %zu B fp32 (%.3fx)\n",
                m.peakEncodedCacheBytes, m.peakFp32CacheBytes,
                m.peakFp32CacheBytes
                    ? static_cast<double>(m.peakEncodedCacheBytes) /
                          static_cast<double>(m.peakFp32CacheBytes)
                    : 0.0);
    const serve::BlockPool *pool = engine.blockPool();
    std::printf("block pool: %zu B/block, peak %zu B, prefix sharing "
                "saved up to %zu B, %llu prefill rows skipped, %llu "
                "rows copied (CoW only — admission/eviction copy "
                "nothing)\n",
                pool->blockBytes(), pool->peakBytes(),
                m.peakSharedSavedBytes,
                static_cast<unsigned long long>(m.sharedPrefillRowsSkipped),
                static_cast<unsigned long long>(m.cowCopyRows));
    if (scfg.retainPrefixes) {
        std::printf("prefix retention: %llu stored, %llu hits, %llu "
                    "prefill rows seeded, %llu evictions, peak %zu B "
                    "held\n",
                    static_cast<unsigned long long>(m.retentionStored),
                    static_cast<unsigned long long>(m.retentionHits),
                    static_cast<unsigned long long>(
                        m.retentionSharedRows),
                    static_cast<unsigned long long>(
                        m.retentionEvictions),
                    m.retainedPeakBytes);
    }
    std::printf("decoded cache: %llu hits / %llu misses / %llu "
                "evictions, %llu row pairs decoded (linear in tokens, not "
                "steps x prefix), peak %zu B\n",
                static_cast<unsigned long long>(m.decodedCacheHits),
                static_cast<unsigned long long>(m.decodedCacheMisses),
                static_cast<unsigned long long>(m.decodedCacheEvictions),
                static_cast<unsigned long long>(m.decodedCacheRows),
                m.decodedCachePeakBytes);

    if (args.getBool("impact")) {
        // What does the cache codec cost in model quality?
        Rng trng(99);
        const eval::TokenData text =
            eval::sampleText(lm, smoke::count(3, 1), smoke::count(16, 8),
                             trng);
        const serve::Fp32KvScheme fp32;
        const serve::CacheImpact base = serve::cacheImpact(lm, text, fp32);
        std::vector<const serve::CacheImpact *> rows = {&base};
        serve::CacheImpact quant;
        if (scfg.cacheFormat != serve::KvCacheFormat::Fp32) {
            // The fp32 row above IS the baseline; only a lossy format
            // warrants a second decode sweep.
            const auto scheme = serve::makeKvScheme(scfg.cacheFormat);
            quant = serve::cacheImpact(lm, text, *scheme);
            rows.push_back(&quant);
        }
        std::printf("\n-- KV-cache quantization impact (%zu sampled "
                    "sequences) --\n", text.size());
        Table t({"Cache", "Proxy PPL", "Hidden MSE", "Logit MSE",
                 "Bytes", "Ratio"});
        for (const serve::CacheImpact *c : rows) {
            t.addRow({c->scheme, Table::num(c->perplexity, 3),
                      Table::num(c->hiddenMse, 8), Table::num(c->logitMse, 8),
                      std::to_string(c->encodedBytes),
                      Table::num(c->compression(), 3) + "x"});
        }
        t.print();
    }

    std::printf("\nDeterminism: generated token streams are bit-identical "
                "at every OLIVE_THREADS value (see the ctest 'serve' "
                "legs); only latencies vary.\n");
    return 0;
}
