/**
 * @file
 * Line-delimited JSON serving session over stdin/stdout: the
 * serve::Service front end wrapped around a ServeEngine on a synthetic
 * causal LM.  Type ops, read events (protocol in serve/service.hpp and
 * DESIGN.md "Serving front end"):
 *
 *   $ ./build/example_olive_serve
 *   {"op":"submit","prompt":[5,9,2],"max_new":8}
 *   {"event":"accepted","id":1,"max_new":8}
 *   {"event":"admitted","id":1}
 *   {"event":"token","id":1,"index":0,"token":37}
 *   ...
 *   {"event":"done","id":1,"reason":"length","n":8,"tokens":[...]}
 *
 * --demo (the default under OLIVE_SMOKE, so the ctest e2e legs drive
 * it) replaces stdin with a scripted session that exercises the whole
 * protocol: concurrent submits against a 2-wide batch (queued
 * backpressure), a stop-token request, an output policy, a mid-stream
 * cancel, an already-expired deadline, stats, and a draining shutdown.
 *
 * --scenario scripts a session from a seeded workload trace (built-in
 * name or a Workload::dump() file) instead: each turn-0 request
 * becomes a submit op at its arrival tick (step ops cover the gaps).
 * Only turn-0 requests are scripted — a follow-up turn's prompt
 * embeds the model's reply, which a static script cannot reference;
 * use example_serving --scenario for full multi-turn replay.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/common.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/smoke.hpp"

using namespace olive;

namespace {

/** A random in-vocabulary prompt as a JSON token array. */
Json
randomPrompt(Rng &rng, size_t vocab, size_t len)
{
    Json arr = Json::array();
    for (size_t i = 0; i < len; ++i)
        arr.push(static_cast<int>(rng.uniformInt(vocab)));
    return arr;
}

/** The --demo script (see the file comment). */
std::string
demoScript(size_t vocab, u64 seed)
{
    Rng rng(seed);
    std::string s;
    const auto op = [&](Json j) { s += j.dump() + "\n"; };
    // Three submits against max-active 2: the third queues.
    op(Json::object({{"op", "submit"},
                     {"prompt", randomPrompt(rng, vocab, 6)},
                     {"max_new", 8}}));
    op(Json::object({{"op", "submit"},
                     {"prompt", randomPrompt(rng, vocab, 5)},
                     {"max_new", 8},
                     {"stop", randomPrompt(rng, vocab, 2)}}));
    op(Json::object({{"op", "submit"},
                     {"prompt", randomPrompt(rng, vocab, 4)},
                     {"max_new", 8},
                     {"policy", "cap"}}));
    op(Json::object({{"op", "step"}, {"n", 3}}));
    // Cancel request 2 mid-stream; its done carries what it generated.
    op(Json::object({{"op", "cancel"}, {"id", 2}}));
    // An already-expired deadline: retired without generating a token.
    op(Json::object({{"op", "submit"},
                     {"prompt", randomPrompt(rng, vocab, 4)},
                     {"max_new", 8},
                     {"deadline_ms", 0}}));
    op(Json::object({{"op", "drain"}}));
    op(Json::object({{"op", "stats"}}));
    op(Json::object({{"op", "shutdown"}}));
    return s;
}

/** Script a trace's turn-0 submissions (see the file comment). */
std::string
scenarioScript(const std::string &arg, size_t vocab)
{
    serve::Workload w = [&] {
        std::ifstream in(arg);
        if (in) {
            std::stringstream text;
            text << in.rdbuf();
            return serve::Workload::parse(text.str());
        }
        return serve::Workload::generate(
            serve::Workload::namedSpec(arg));
    }();
    OLIVE_ASSERT(w.spec().vocab <= vocab,
                 "scenario vocabulary exceeds the model's");

    std::string s;
    size_t tick = 0;
    for (const auto &r : w.requests()) {
        if (r.turn != 0)
            continue; // Later turns need replies (file comment).
        if (r.submitStep > tick) {
            s += Json::object(
                     {{"op", "step"},
                      {"n", static_cast<int>(r.submitStep - tick)}})
                     .dump() +
                 "\n";
            tick = r.submitStep;
        }
        Json prompt = Json::array();
        for (const int t : r.userTokens)
            prompt.push(t);
        Json op = Json::object(
            {{"op", "submit"},
             {"prompt", prompt},
             {"max_new", static_cast<int>(r.maxNew)}});
        if (!r.stopTokens.empty()) {
            Json stops = Json::array();
            for (const int t : r.stopTokens)
                stops.push(t);
            op.set("stop", stops);
        }
        s += op.dump() + "\n";
    }
    s += "{\"op\":\"drain\"}\n{\"op\":\"stats\"}\n"
         "{\"op\":\"shutdown\"}\n";
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, {{"model", "GPT2-XL"},
                           {"cache", "olive4"},
                           {"batch-tokens", "8"},
                           {"max-active", "2"},
                           {"block-rows", "4"},
                           {"pool-blocks", "0"},
                           {"share", "1"},
                           {"prefill-chunk", "32"},
                           {"speculate", "0"},
                           {"draft-len", "4"},
                           {"auto-drain", "1"},
                           {"policy-cap", "4"},
                           {"demo", ""},
                           {"scenario", ""},
                           {"seed", "17"}});
    const std::string scenario = args.get("scenario");
    const bool demo = !scenario.empty() ? false
                      : args.get("demo").empty()
                          ? smoke::enabled()
                          : args.getBool("demo");

    const auto config = models::byName(args.get("model"));
    eval::LmModel lm = eval::makeLm(config, 1234);

    serve::ServeConfig scfg;
    scfg.cacheFormat = serve::parseKvCacheFormat(args.get("cache"));
    scfg.maxBatchTokens = args.getSize("batch-tokens", 1);
    scfg.maxActiveRequests = args.getSize("max-active", 1);
    scfg.blockRows = args.getSize("block-rows", 1);
    scfg.poolBlocks = args.getSize("pool-blocks", 0);
    scfg.prefixSharing = args.getBool("share");
    scfg.prefillChunk = args.getSize("prefill-chunk", 1);
    scfg.speculate = args.getBool("speculate");
    scfg.draftLen = args.getSize("draft-len", 1);
    serve::ServeEngine engine(lm, scfg);

    const serve::LengthCapPolicy cap(args.getSize("policy-cap", 1));
    serve::ServiceConfig svc;
    svc.policies["cap"] = &cap;
    // The demo interleaves submits and explicit steps to show queued
    // backpressure; interactive sessions stream each request to done.
    svc.autoDrain = demo ? false : args.getBool("auto-drain");
    serve::Service service(engine, svc);

    std::fprintf(stderr,
                 "olive_serve: %s eval backbone, vocab %zu, cache %s, "
                 "max-active %zu%s\n",
                 config.name.c_str(), lm.vocab,
                 engine.kvScheme().name().c_str(), scfg.maxActiveRequests,
                 !scenario.empty() ? " [scripted scenario session]"
                 : demo           ? " [scripted demo session]"
                                  : "");

    if (!scenario.empty()) {
        const std::string script = scenarioScript(scenario, lm.vocab);
        std::fputs(script.c_str(), stderr); // the ops, for the reader
        std::istringstream in(script);
        service.run(in, std::cout);
    } else if (demo) {
        const std::string script =
            demoScript(lm.vocab, static_cast<u64>(args.getInt("seed")));
        std::fputs(script.c_str(), stderr); // the ops, for the reader
        std::istringstream in(script);
        service.run(in, std::cout);
    } else {
        service.run(std::cin, std::cout);
    }
    return 0;
}
