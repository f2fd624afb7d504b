/**
 * @file
 * Scripted-client tests of the serve::Service front end: protocol
 * round trips, per-request event ordering, bit-identity of streamed
 * tokens against driving the engine directly (speculation included),
 * queued backpressure on a tiny pool, mid-stream cancellation draining
 * every block, deadline expiry for queued and active requests, output
 * policies, stats, and error handling (an oversized submit included).
 * The ctest serve.service legs pin this binary at OLIVE_THREADS=1 and
 * =8.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

eval::LmModel
tinyLm(u64 seed = 1234)
{
    auto config = models::bertBase();
    config.evalLayers = 2;
    config.evalDModel = 24;
    config.evalHeads = 4;
    config.evalDFf = 48;
    config.evalVocab = 64;
    eval::LmModel lm;
    lm.vocab = config.evalVocab;
    lm.backbone = models::makeBackbone(config, seed);
    lm.backbone.causal = true;
    lm.embedding = Tensor({lm.vocab, config.evalDModel});
    Rng rng(seed ^ 0xabcdULL);
    for (auto &v : lm.embedding.data())
        v = static_cast<float>(rng.gaussian());
    return lm;
}

std::vector<std::vector<int>>
randomPrompts(size_t n, size_t max_len, size_t vocab, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<int>> prompts(n);
    for (auto &p : prompts) {
        p.resize(1 + rng.uniformInt(max_len));
        for (auto &t : p)
            t = static_cast<int>(rng.uniformInt(vocab));
    }
    return prompts;
}

Json
tokensJson(const std::vector<int> &toks)
{
    Json arr = Json::array();
    for (int t : toks)
        arr.push(t);
    return arr;
}

Json
submitOp(const std::vector<int> &prompt, size_t max_new)
{
    return Json::object({{"op", "submit"},
                         {"prompt", tokensJson(prompt)},
                         {"max_new", max_new}});
}

/**
 * Run a whole session: feed @p ops to a fresh Service over @p engine,
 * return every event line parsed.  Every line must be valid JSON —
 * the protocol never emits anything else.
 */
std::vector<Json>
runSession(serve::ServeEngine &engine, serve::ServiceConfig cfg,
           const std::vector<Json> &ops)
{
    serve::Service service(engine, std::move(cfg));
    std::stringstream in;
    for (const Json &op : ops)
        in << op.dump() << "\n";
    std::stringstream out;
    service.run(in, out);
    std::vector<Json> events;
    std::string line;
    while (std::getline(out, line)) {
        std::string err;
        const auto ev = Json::parse(line, &err);
        EXPECT_TRUE(ev.has_value()) << line << " -> " << err;
        if (ev)
            events.push_back(*ev);
    }
    return events;
}

/** Per-request token streams reassembled from the token events. */
std::map<u64, std::vector<int>>
tokenStreams(const std::vector<Json> &events)
{
    std::map<u64, std::vector<int>> streams;
    for (const Json &ev : events) {
        if (ev.find("event")->asString() != "token")
            continue;
        const u64 id = static_cast<u64>(ev.find("id")->asInt());
        EXPECT_EQ(static_cast<size_t>(ev.find("index")->asInt()),
                  streams[id].size()); // contiguous, in order
        streams[id].push_back(static_cast<int>(ev.find("token")->asInt()));
    }
    return streams;
}

const Json *
doneEvent(const std::vector<Json> &events, u64 id)
{
    for (const Json &ev : events) {
        if (ev.find("event")->asString() == "done" &&
            static_cast<u64>(ev.find("id")->asInt()) == id)
            return &ev;
    }
    return nullptr;
}

size_t
countEvents(const std::vector<Json> &events, const std::string &kind)
{
    size_t n = 0;
    for (const Json &ev : events)
        n += ev.find("event")->asString() == kind ? 1 : 0;
    return n;
}

/**
 * The protocol's per-request ordering contract: accepted, at most one
 * queued, admitted, tokens with contiguous ascending indices, exactly
 * one done (whose tokens array equals the streamed tokens), and no
 * event after done.
 */
void
validateOrdering(const std::vector<Json> &events)
{
    enum Phase { kNone, kAccepted, kQueued, kAdmitted, kDone };
    struct St
    {
        Phase phase = kNone;
        std::vector<int> stream;
    };
    std::map<u64, St> st;
    for (const Json &ev : events) {
        const std::string &kind = ev.find("event")->asString();
        if (kind == "cancel" || ev.find("id") == nullptr)
            continue; // op acks and broadcast events carry no ordering
        St &s = st[static_cast<u64>(ev.find("id")->asInt())];
        ASSERT_NE(s.phase, kDone) << "event \"" << kind
                                  << "\" after terminal done";
        if (kind == "accepted") {
            ASSERT_EQ(s.phase, kNone);
            s.phase = kAccepted;
        } else if (kind == "queued") {
            ASSERT_EQ(s.phase, kAccepted); // at most once, pre-admission
            s.phase = kQueued;
        } else if (kind == "admitted") {
            ASSERT_TRUE(s.phase == kAccepted || s.phase == kQueued);
            s.phase = kAdmitted;
        } else if (kind == "token") {
            ASSERT_EQ(s.phase, kAdmitted);
            ASSERT_EQ(static_cast<size_t>(ev.find("index")->asInt()),
                      s.stream.size());
            s.stream.push_back(
                static_cast<int>(ev.find("token")->asInt()));
        } else if (kind == "done") {
            ASSERT_NE(s.phase, kNone);
            const Json *toks = ev.find("tokens");
            ASSERT_NE(toks, nullptr);
            ASSERT_EQ(static_cast<size_t>(ev.find("n")->asInt()),
                      toks->size());
            std::vector<int> done_toks;
            for (const Json &t : toks->elements())
                done_toks.push_back(static_cast<int>(t.asInt()));
            ASSERT_EQ(done_toks, s.stream); // done recaps the stream
            s.phase = kDone;
        } else {
            FAIL() << "unknown per-request event \"" << kind << "\"";
        }
    }
    for (const auto &kv : st)
        EXPECT_EQ(kv.second.phase, kDone)
            << "request " << kv.first << " never reached done";
}

// ------------------------------------------------- stream bit-identity

// The acceptance bar: a scripted session through the Service produces
// token streams bit-identical to driving the ServeEngine directly —
// with and without speculative decode.  The Service observes the
// engine; it never alters what is generated.
TEST(Service, StreamsBitIdenticalToDirectEngine)
{
    const eval::LmModel lm = tinyLm(55);
    const auto prompts = randomPrompts(6, 10, lm.vocab, 777);
    constexpr size_t kMaxNew = 8;
    for (const bool speculate : {false, true}) {
        serve::ServeConfig cfg;
        cfg.maxBatchTokens = 6;
        cfg.maxActiveRequests = 3;
        cfg.speculate = speculate;

        serve::ServeEngine direct(lm, cfg);
        for (const auto &p : prompts)
            direct.submit(p, kMaxNew);
        direct.runToCompletion(100000);
        std::map<u64, std::vector<int>> want;
        for (const serve::FinishedRequest &f : direct.finished())
            want[f.id] = f.generated;

        serve::ServeEngine engine(lm, cfg);
        std::vector<Json> ops;
        for (const auto &p : prompts)
            ops.push_back(submitOp(p, kMaxNew));
        ops.push_back(Json::object({{"op", "drain"}}));
        ops.push_back(Json::object({{"op", "shutdown"}}));
        serve::ServiceConfig svc;
        svc.autoDrain = false; // submit burst first, like the direct run
        const auto events = runSession(engine, std::move(svc), ops);

        validateOrdering(events);
        EXPECT_EQ(tokenStreams(events), want)
            << "speculate=" << speculate;
        EXPECT_EQ(countEvents(events, "done"), prompts.size());
    }
}

// autoDrain mode serializes the requests (each drains before the next
// submit line is read) — a different schedule, the same per-request
// greedy streams on an unshared engine with batch width 1.
TEST(Service, AutoDrainStreamsMatchSequentialEngine)
{
    const eval::LmModel lm = tinyLm(56);
    const auto prompts = randomPrompts(3, 8, lm.vocab, 778);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 1;
    cfg.prefixSharing = false;

    serve::ServeEngine direct(lm, cfg);
    for (const auto &p : prompts)
        direct.submit(p, 6);
    direct.runToCompletion(100000);
    std::map<u64, std::vector<int>> want;
    for (const serve::FinishedRequest &f : direct.finished())
        want[f.id] = f.generated;

    serve::ServeEngine engine(lm, cfg);
    std::vector<Json> ops;
    for (const auto &p : prompts)
        ops.push_back(submitOp(p, 6));
    serve::ServiceConfig svc; // autoDrain on; EOF acks the shutdown
    const auto events = runSession(engine, std::move(svc), ops);
    validateOrdering(events);
    EXPECT_EQ(tokenStreams(events), want);
    EXPECT_EQ(events.back().find("event")->asString(), "shutdown");
}

// ---------------------------------- backpressure, cancellation, blocks

// Tiny pool: capacity admits one request at a time, so later submits
// surface queued events; cancelling the active request mid-stream
// frees its blocks (the queue then drains) and the pool ends empty.
TEST(Service, TinyPoolBackpressureAndMidStreamCancel)
{
    const eval::LmModel lm = tinyLm(57);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 4;
    cfg.blockRows = 4;
    // Worst case per request: ceil((4 prompt + 4 new - 1)/4) = 2
    // blocks per layer x 2 layers = 4 — exactly the pool, so request 2
    // cannot admit beside request 1.
    cfg.poolBlocks = 4;
    const auto prompts = randomPrompts(3, 1, lm.vocab, 88);
    std::vector<Json> ops;
    for (const auto &p : prompts) {
        std::vector<int> prompt = p;
        prompt.resize(4, static_cast<int>(prompt[0] % 7));
        ops.push_back(submitOp(prompt, 4));
    }
    ops.push_back(Json::object({{"op", "step"}, {"n", 2}}));
    ops.push_back(Json::object({{"op", "cancel"}, {"id", 1}}));
    ops.push_back(Json::object({{"op", "drain"}}));
    ops.push_back(Json::object({{"op", "shutdown"}}));

    serve::ServeEngine engine(lm, cfg);
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    const auto events = runSession(engine, std::move(svc), ops);
    validateOrdering(events);

    // Backpressure: both blocked requests were told they are queued.
    EXPECT_GE(countEvents(events, "queued"), 2u);
    // The mid-stream cancel: request 1 had streamed tokens, then
    // finished with reason "cancelled" — and nothing after that.
    const Json *done1 = doneEvent(events, 1);
    ASSERT_NE(done1, nullptr);
    EXPECT_EQ(done1->find("reason")->asString(), "cancelled");
    EXPECT_GE(done1->find("n")->asInt(), 1);
    // The op was acknowledged.
    EXPECT_EQ(countEvents(events, "cancel"), 1u);
    // The queue drained through the freed capacity.
    for (u64 id : {u64{2}, u64{3}}) {
        const Json *done = doneEvent(events, id);
        ASSERT_NE(done, nullptr);
        EXPECT_EQ(done->find("reason")->asString(), "length");
    }
    // Pool fully drained: every block the cancelled and finished
    // requests referenced was released.
    ASSERT_NE(engine.blockPool(), nullptr);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u);
    engine.blockPool()->checkInvariants();
    EXPECT_EQ(engine.pendingCount(), 0u);
    EXPECT_EQ(engine.activeCount(), 0u);
    EXPECT_EQ(engine.finishedCount(), 3u);
    EXPECT_EQ(engine.metricsSnapshot().requestsCancelled, 1u);
}

TEST(Service, CancelUnknownIdIsAcknowledgedFalse)
{
    const eval::LmModel lm = tinyLm(58);
    serve::ServeEngine engine(lm, {});
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    const auto events = runSession(
        engine, std::move(svc),
        {Json::object({{"op", "cancel"}, {"id", 99}}),
         Json::object({{"op", "shutdown"}})});
    ASSERT_EQ(countEvents(events, "cancel"), 1u);
    EXPECT_FALSE(events[0].find("ok")->asBool());
}

// ------------------------------------------------------------ deadlines

// A queued request whose deadline has already passed is retired with
// reason "deadline" before it ever reaches the batch: zero tokens.
TEST(Service, DeadlineExpiresQueuedRequest)
{
    const eval::LmModel lm = tinyLm(59);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 1; // request 2 must wait behind request 1
    serve::ServeEngine engine(lm, cfg);
    const auto prompts = randomPrompts(2, 6, lm.vocab, 91);
    Json hurried = submitOp(prompts[1], 4);
    hurried.set("deadline_ms", 0);
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    const auto events = runSession(
        engine, std::move(svc),
        {submitOp(prompts[0], 4), hurried,
         Json::object({{"op", "drain"}}),
         Json::object({{"op", "shutdown"}})});
    validateOrdering(events);
    const Json *done2 = doneEvent(events, 2);
    ASSERT_NE(done2, nullptr);
    EXPECT_EQ(done2->find("reason")->asString(), "deadline");
    EXPECT_EQ(done2->find("n")->asInt(), 0);
    const Json *done1 = doneEvent(events, 1);
    ASSERT_NE(done1, nullptr);
    EXPECT_EQ(done1->find("reason")->asString(), "length");
    EXPECT_EQ(engine.metricsSnapshot().requestsCancelled, 1u);
}

// An active request that overruns its deadline is expired mid-stream:
// it keeps the tokens it streamed, its blocks are released, and the
// session drains cleanly.  The generation budget is far more wall time
// than the deadline, so expiry is deterministic in outcome (the exact
// token count is machine-dependent).
TEST(Service, DeadlineExpiresActiveRequest)
{
    const eval::LmModel lm = tinyLm(60);
    serve::ServeConfig cfg;
    cfg.maxBatchTokens = 8;
    serve::ServeEngine engine(lm, cfg);
    Json op = submitOp(randomPrompts(1, 4, lm.vocab, 92)[0], 50000);
    op.set("deadline_ms", 25);
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    const auto events = runSession(
        engine, std::move(svc),
        {op, Json::object({{"op", "drain"}}),
         Json::object({{"op", "shutdown"}})});
    validateOrdering(events);
    const Json *done = doneEvent(events, 1);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("reason")->asString(), "deadline");
    EXPECT_GE(done->find("n")->asInt(), 1); // streamed before expiry
    ASSERT_NE(engine.blockPool(), nullptr);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u);
}

// ------------------------------------------------------ output policies

// StopSupersetPolicy injects an extra stop token: the request ends at
// the first occurrence of that token in the unconstrained stream, with
// reason "stop" — the stream prefix is bit-identical.
TEST(Service, StopSupersetPolicyEndsAtInjectedStop)
{
    const eval::LmModel lm = tinyLm(61);
    const auto prompt = randomPrompts(1, 6, lm.vocab, 93)[0];
    constexpr size_t kMaxNew = 8;

    serve::ServeEngine direct(lm, {});
    direct.submit(prompt, kMaxNew);
    direct.runToCompletion(100000);
    const std::vector<int> free_run = direct.finished()[0].generated;
    ASSERT_EQ(free_run.size(), kMaxNew);
    const int stop = free_run[2];
    std::vector<int> want;
    for (int tok : free_run) {
        want.push_back(tok);
        if (tok == stop)
            break; // the stop token is included in the generation
    }

    const serve::StopSupersetPolicy policy({stop});
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    svc.policies["eos"] = &policy;
    Json op = submitOp(prompt, kMaxNew);
    op.set("policy", "eos");
    serve::ServeEngine engine(lm, {});
    const auto events = runSession(
        engine, std::move(svc),
        {op, Json::object({{"op", "drain"}}),
         Json::object({{"op", "shutdown"}})});
    validateOrdering(events);
    const Json *done = doneEvent(events, 1);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("reason")->asString(), "stop");
    EXPECT_EQ(tokenStreams(events)[1], want);
}

TEST(Service, LengthCapPolicyCapsBudget)
{
    const eval::LmModel lm = tinyLm(62);
    const serve::LengthCapPolicy policy(3);
    serve::ServiceConfig svc;
    svc.policies["cap"] = &policy;
    Json op = submitOp(randomPrompts(1, 5, lm.vocab, 94)[0], 50);
    op.set("policy", "cap");
    serve::ServeEngine engine(lm, {});
    const auto events =
        runSession(engine, std::move(svc), {op}); // autoDrain + EOF
    validateOrdering(events);
    // The accepted ack reports the post-policy budget.
    EXPECT_EQ(events[0].find("event")->asString(), "accepted");
    EXPECT_EQ(events[0].find("max_new")->asInt(), 3);
    const Json *done = doneEvent(events, 1);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("reason")->asString(), "length");
    EXPECT_EQ(done->find("n")->asInt(), 3);
}

// ------------------------------------------------- priority scheduling

// Equal priorities are FIFO (the engine's historical order); a higher
// priority jumps the queue, so with batch width 1 the high-priority
// request is admitted — and finishes — first.
TEST(Service, PriorityJumpsTheAdmissionQueue)
{
    const eval::LmModel lm = tinyLm(63);
    serve::ServeConfig cfg;
    cfg.maxActiveRequests = 1;
    serve::ServeEngine engine(lm, cfg);
    const auto prompts = randomPrompts(2, 5, lm.vocab, 95);
    Json urgent = submitOp(prompts[1], 3);
    urgent.set("priority", 5);
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    const auto events = runSession(
        engine, std::move(svc),
        {submitOp(prompts[0], 3), urgent,
         Json::object({{"op", "drain"}}),
         Json::object({{"op", "shutdown"}})});
    validateOrdering(events);
    std::vector<u64> done_order;
    for (const Json &ev : events) {
        if (ev.find("event")->asString() == "done")
            done_order.push_back(
                static_cast<u64>(ev.find("id")->asInt()));
    }
    ASSERT_EQ(done_order.size(), 2u);
    EXPECT_EQ(done_order[0], 2u); // priority 5 beat the earlier submit
    EXPECT_EQ(done_order[1], 1u);
}

// ----------------------------------------------------- stats and errors

TEST(Service, StatsEventCarriesLiveCounters)
{
    const eval::LmModel lm = tinyLm(64);
    serve::ServeConfig cfg;
    cfg.speculate = true;
    serve::ServeEngine engine(lm, cfg);
    std::vector<Json> ops;
    for (const auto &p : randomPrompts(3, 6, lm.vocab, 96))
        ops.push_back(submitOp(p, 6));
    ops.push_back(Json::object({{"op", "drain"}}));
    ops.push_back(Json::object({{"op", "stats"}}));
    ops.push_back(Json::object({{"op", "shutdown"}}));
    serve::ServiceConfig svc;
    svc.autoDrain = false;
    const auto events = runSession(engine, std::move(svc), ops);
    const Json *stats = nullptr;
    for (const Json &ev : events) {
        if (ev.find("event")->asString() == "stats")
            stats = &ev;
    }
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("finished")->asInt(), 3);
    EXPECT_EQ(stats->find("pending")->asInt(), 0);
    EXPECT_EQ(stats->find("active")->asInt(), 0);
    EXPECT_GE(stats->find("steps")->asInt(), 1);
    EXPECT_EQ(stats->find("tokens_generated")->asInt(), 18);
    EXPECT_GE(stats->find("spec_drafted")->asInt(),
              stats->find("spec_accepted")->asInt());
    // Latency percentiles are well-defined numbers, never NaN (a NaN
    // would serialize as null and the asNumber() below would panic).
    for (const char *key : {"ttft_p50_ms", "ttft_p99_ms", "step_p50_ms",
                            "step_p99_ms", "spec_accept_rate"}) {
        ASSERT_NE(stats->find(key), nullptr) << key;
        EXPECT_GE(stats->find(key)->asNumber(), 0.0) << key;
    }
    EXPECT_EQ(stats->find("pool_blocks_in_use")->asInt(), 0);
}

// Malformed client input yields error events and never kills the
// session: the valid submit after seven bad lines is served in full.
TEST(Service, ErrorEventsKeepTheSessionAlive)
{
    const eval::LmModel lm = tinyLm(65);
    serve::ServeEngine engine(lm, {});
    serve::Service service(engine, {});
    std::stringstream in;
    in << "this is not json\n";
    in << "[1,2,3]\n";                                  // no "op"
    in << R"({"op":"frobnicate"})" << "\n";             // unknown op
    in << R"({"op":"submit","max_new":4})" << "\n";     // no prompt
    in << R"({"op":"submit","prompt":[99999],"max_new":4})" << "\n";
    in << R"({"op":"submit","prompt":[1],"max_new":0})" << "\n";
    in << R"({"op":"submit","prompt":[1],"max_new":4,"policy":"nope"})"
       << "\n";
    in << R"({"op":"submit","prompt":[1,2,3],"max_new":4})" << "\n";
    std::stringstream out;
    service.run(in, out);
    std::vector<Json> events;
    std::string line;
    while (std::getline(out, line))
        events.push_back(*Json::parse(line));
    EXPECT_EQ(countEvents(events, "error"), 7u);
    const Json *done = doneEvent(events, 1);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("n")->asInt(), 4);
    EXPECT_EQ(events.back().find("event")->asString(), "shutdown");
    EXPECT_EQ(engine.finishedCount(), 1u);
}

// A submit whose worst-case cache can never fit the block pool is a
// client error, not an engine abort: the Service rejects it before the
// engine sees it, and the session serves the next request normally.
TEST(Service, OversizedSubmitIsRejectedAndSessionContinues)
{
    const eval::LmModel lm = tinyLm(68);
    serve::ServeConfig cfg;
    cfg.blockRows = 4;
    // ceil((3 + 64 - 1) / 4) = 17 blocks per layer x 2 layers: far over
    // the pool.  ceil((3 + 4 - 1) / 4) = 2 x 2 layers = 4: fits.
    cfg.poolBlocks = 4;
    serve::ServeEngine engine(lm, cfg);
    EXPECT_FALSE(engine.fitsPool(3, 64));
    EXPECT_TRUE(engine.fitsPool(3, 4));
    std::vector<Json> ops;
    ops.push_back(submitOp({5, 9, 2}, 64));
    ops.push_back(submitOp({5, 9, 2}, 4));
    ops.push_back(Json::object({{"op", "shutdown"}}));
    const auto events = runSession(engine, {}, ops);
    validateOrdering(events);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().find("event")->asString(), "error");
    EXPECT_EQ(countEvents(events, "error"), 1u);
    EXPECT_EQ(countEvents(events, "accepted"), 1u);
    const Json *done = doneEvent(events, 1);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("reason")->asString(), "length");
    EXPECT_EQ(done->find("n")->asInt(), 4);
    EXPECT_EQ(events.back().find("event")->asString(), "shutdown");
    ASSERT_NE(engine.blockPool(), nullptr);
    EXPECT_EQ(engine.blockPool()->blocksInUse(), 0u);
}

TEST(Service, UnknownSubmitFieldIsRejected)
{
    const eval::LmModel lm = tinyLm(66);
    serve::ServeEngine engine(lm, {});
    Json op = submitOp({1, 2}, 4);
    op.set("maxnew", 9); // typo'd field must not be silently ignored
    const auto events = runSession(
        engine, {}, {op, Json::object({{"op", "shutdown"}})});
    EXPECT_EQ(countEvents(events, "error"), 1u);
    EXPECT_EQ(countEvents(events, "accepted"), 0u);
}

// EOF without a shutdown op still drains and acknowledges: a client
// that just closes its pipe never strands in-flight requests.
TEST(Service, EofDrainsInFlightWorkAndAcksShutdown)
{
    const eval::LmModel lm = tinyLm(67);
    serve::ServeEngine engine(lm, {});
    serve::ServiceConfig svc;
    svc.autoDrain = false; // the drain must come from the EOF path
    const auto events = runSession(
        engine, std::move(svc),
        {submitOp(randomPrompts(1, 4, lm.vocab, 97)[0], 5)});
    validateOrdering(events);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().find("event")->asString(), "shutdown");
    EXPECT_EQ(events.back().find("finished")->asInt(), 1);
    EXPECT_EQ(engine.pendingCount() + engine.activeCount(), 0u);
}

} // namespace
} // namespace olive
