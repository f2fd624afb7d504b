/**
 * @file
 * Property/fuzz tier for the seeded workload generator (serve/
 * workload): cross-process determinism pinned against golden FNV-1a
 * hashes and one byte-exact literal trace, 100-seed dump/parse/dump
 * round-trip bit-exactness, 100-seed distribution sanity for every
 * arrival and length kind, and a replay determinism pin that drives a
 * multi-turn trace through a retention-enabled paged engine twice and
 * hashes the per-request streams.
 *
 * The golden hashes are the determinism contract from the workload
 * header made enforceable: the generator samples only through the
 * repository Rng with integer arithmetic, so the same seed must
 * produce the same bytes on every platform, at every OLIVE_THREADS
 * value (the ctest workload legs run this binary at 1 and 8), and
 * across process runs.  A hash change here means the generator's
 * output changed — regenerate the constants only for an intentional
 * format or sampling change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "models/synthetic.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"
#include "util/random.hpp"

namespace olive {
namespace {

/** FNV-1a 64-bit over a byte string (local golden-pin helper). */
u64
fnv1a64(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Tiny causal LM (64-token vocabulary) for replay pins. */
eval::LmModel
workloadLm(u64 seed)
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

/** A random but always-valid spec (round-trip fuzz input). */
serve::WorkloadSpec
randomSpec(Rng &rng)
{
    serve::WorkloadSpec s;
    s.seed = rng.next();
    s.sessions = 1 + static_cast<size_t>(rng.uniformInt(6));
    s.vocab = 8 + static_cast<size_t>(rng.uniformInt(57));

    using AK = serve::ArrivalSpec::Kind;
    switch (rng.uniformInt(4)) {
    case 0:
        s.arrival.kind = AK::Uniform;
        s.arrival.gap = static_cast<size_t>(rng.uniformInt(4));
        s.arrival.jitter = static_cast<size_t>(rng.uniformInt(3));
        break;
    case 1:
        s.arrival.kind = AK::Poisson;
        s.arrival.den = 2 + rng.uniformInt(6);
        s.arrival.num = 1 + rng.uniformInt(s.arrival.den);
        break;
    case 2:
        s.arrival.kind = AK::Bursty;
        s.arrival.burstSize = 1 + static_cast<size_t>(rng.uniformInt(4));
        s.arrival.gap = static_cast<size_t>(rng.uniformInt(5));
        s.arrival.jitter = static_cast<size_t>(rng.uniformInt(2));
        break;
    default:
        s.arrival.kind = AK::Diurnal;
        s.arrival.den = 2 + rng.uniformInt(8);
        s.arrival.num = 1 + rng.uniformInt(s.arrival.den);
        s.arrival.peakNum =
            s.arrival.num +
            rng.uniformInt(s.arrival.den - s.arrival.num + 1);
        s.arrival.period = 2 + static_cast<size_t>(rng.uniformInt(30));
        break;
    }

    using LK = serve::LengthSpec::Kind;
    const auto randomLength = [&]() {
        serve::LengthSpec l;
        const u64 kind = rng.uniformInt(3);
        l.kind = kind == 0   ? LK::Fixed
                 : kind == 1 ? LK::Uniform
                             : LK::LogNormalish;
        l.value = 1 + static_cast<size_t>(rng.uniformInt(8));
        l.lo = 1 + static_cast<size_t>(rng.uniformInt(4));
        l.hi = l.lo + static_cast<size_t>(rng.uniformInt(12));
        l.median = 1 + static_cast<size_t>(rng.uniformInt(8));
        l.tailCap = static_cast<size_t>(rng.uniformInt(4));
        return l;
    };
    s.promptLen = randomLength();
    s.outputLen = randomLength();

    s.systemPromptLen = static_cast<size_t>(rng.uniformInt(6));
    s.systemPromptPercent = rng.uniformInt(101);
    s.turnsMin = 1 + static_cast<size_t>(rng.uniformInt(3));
    s.turnsMax = s.turnsMin + static_cast<size_t>(rng.uniformInt(3));
    s.turnGapSteps = static_cast<size_t>(rng.uniformInt(3));
    s.stopTokenCount = static_cast<size_t>(rng.uniformInt(3));
    s.stopPercent = rng.uniformInt(101);
    return s;
}

// ---------------------------------------------------------------------
// Golden pins: cross-process / cross-platform determinism
// ---------------------------------------------------------------------

TEST(WorkloadGolden, NamedScenarioDumpsArePinned)
{
    const std::map<std::string, u64> golden = {
        {"uniform", 0xdfdba4a964e7fb74ULL},
        {"poisson", 0x21ccac8e69ddcab7ULL},
        {"bursty", 0xe7906e5183e10df4ULL},
        {"diurnal", 0xbd959490a3ffbd4dULL},
        {"shared-system", 0xaf0b9fd142beef12ULL},
        {"multi-turn", 0x51c7ff10b4cfdf7bULL},
    };
    const auto names = serve::Workload::scenarioNames();
    ASSERT_EQ(names.size(), golden.size());
    for (const auto &name : names) {
        const auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "unpinned scenario " << name;
        const auto w =
            serve::Workload::generate(serve::Workload::namedSpec(name));
        w.validate();
        EXPECT_FALSE(w.requests().empty());
        const u64 h = fnv1a64(w.dump());
        EXPECT_EQ(h, it->second)
            << "scenario '" << name << "' dump hash changed; actual 0x"
            << std::hex << h;
    }
}

TEST(WorkloadGolden, TinyTraceIsByteExact)
{
    serve::WorkloadSpec s;
    s.seed = 7;
    s.sessions = 2;
    s.vocab = 8;
    s.arrival.kind = serve::ArrivalSpec::Kind::Uniform;
    s.arrival.gap = 1;
    s.promptLen.kind = serve::LengthSpec::Kind::Fixed;
    s.promptLen.value = 3;
    s.outputLen.kind = serve::LengthSpec::Kind::Fixed;
    s.outputLen.value = 2;
    const std::string expected =
        "{\"spec\":{\"seed\":\"7\",\"sessions\":2,\"vocab\":8,"
        "\"arrival\":{\"kind\":\"uniform\",\"gap\":1,\"jitter\":0,"
        "\"num\":1,\"den\":4,\"burst_size\":4,\"peak_num\":4,"
        "\"period\":64},\"prompt_len\":{\"kind\":\"fixed\","
        "\"value\":3,\"lo\":8,\"hi\":32,\"median\":16,"
        "\"tail_cap\":3},\"output_len\":{\"kind\":\"fixed\","
        "\"value\":2,\"lo\":8,\"hi\":32,\"median\":16,"
        "\"tail_cap\":3},\"system_prompt_len\":0,"
        "\"system_prompt_percent\":0,\"turns_min\":1,"
        "\"turns_max\":1,\"turn_gap_steps\":0,"
        "\"stop_token_count\":0,\"stop_percent\":0},"
        "\"requests\":[{\"id\":1,\"conversation\":1,\"turn\":0,"
        "\"submit_step\":0,\"gap_steps\":0,\"max_new\":2,"
        "\"user_tokens\":[2,6,0],\"stop_tokens\":[]},"
        "{\"id\":2,\"conversation\":2,\"turn\":0,"
        "\"submit_step\":1,\"gap_steps\":0,\"max_new\":2,"
        "\"user_tokens\":[1,4,4],\"stop_tokens\":[]}]}";
    EXPECT_EQ(serve::Workload::generate(s).dump(), expected);
}

TEST(WorkloadDeterminism, RepeatedGenerationIsByteIdentical)
{
    Rng rng(0x5eedULL);
    size_t distinct = 0;
    std::string prev;
    for (u64 seed = 1; seed <= 100; ++seed) {
        auto spec = randomSpec(rng);
        spec.seed = seed;
        const auto a = serve::Workload::generate(spec).dump();
        const auto b = serve::Workload::generate(spec).dump();
        ASSERT_EQ(a, b) << "seed " << seed;
        distinct += (a != prev);
        prev = a;
    }
    // Different seeds/specs must not collapse onto one trace.
    EXPECT_EQ(distinct, 100u);
}

// ---------------------------------------------------------------------
// Serialization round trip
// ---------------------------------------------------------------------

TEST(WorkloadRoundTrip, DumpParseDumpIsBitExact)
{
    Rng rng(0xf00dULL);
    for (int i = 0; i < 100; ++i) {
        const auto w = serve::Workload::generate(randomSpec(rng));
        const std::string once = w.dump();
        const auto back = serve::Workload::parse(once);
        back.validate();
        ASSERT_EQ(back.dump(), once) << "iteration " << i;
        ASSERT_EQ(back.requests().size(), w.requests().size());
    }
}

// ---------------------------------------------------------------------
// Distribution sanity (100 seeds per property)
// ---------------------------------------------------------------------

TEST(WorkloadDistributions, UniformLengthsStayInBounds)
{
    for (u64 seed = 1; seed <= 100; ++seed) {
        serve::WorkloadSpec s;
        s.seed = seed;
        s.sessions = 8;
        s.promptLen.kind = serve::LengthSpec::Kind::Uniform;
        s.promptLen.lo = 3;
        s.promptLen.hi = 9;
        s.outputLen.kind = serve::LengthSpec::Kind::Uniform;
        s.outputLen.lo = 2;
        s.outputLen.hi = 5;
        const auto w = serve::Workload::generate(s);
        w.validate();
        for (const auto &r : w.requests()) {
            EXPECT_GE(r.userTokens.size(), 3u);
            EXPECT_LE(r.userTokens.size(), 9u);
            EXPECT_GE(r.maxNew, 2u);
            EXPECT_LE(r.maxNew, 5u);
        }
    }
}

TEST(WorkloadDistributions, LogNormalishRespectsClampAndHasATail)
{
    size_t aboveMedian = 0;
    size_t total = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        serve::WorkloadSpec s;
        s.seed = seed;
        s.sessions = 8;
        s.promptLen.kind = serve::LengthSpec::Kind::LogNormalish;
        s.promptLen.median = 6;
        s.promptLen.lo = 2;
        s.promptLen.hi = 40;
        s.promptLen.tailCap = 3;
        const auto w = serve::Workload::generate(s);
        for (const auto &r : w.requests()) {
            EXPECT_GE(r.userTokens.size(), 2u);
            EXPECT_LE(r.userTokens.size(), 40u);
            aboveMedian += (r.userTokens.size() > 6u);
            ++total;
        }
    }
    // The doubling tail must actually fire somewhere in the corpus,
    // but the clamp-and-jitter must also leave draws at or below the
    // median (the distribution is spread, not a constant shift).
    EXPECT_GT(aboveMedian, 0u);
    EXPECT_LT(aboveMedian, total);
}

TEST(WorkloadDistributions, BurstsArriveInGroupsOfBurstSize)
{
    for (u64 seed = 1; seed <= 100; ++seed) {
        serve::WorkloadSpec s;
        s.seed = seed;
        s.sessions = 9;
        s.arrival.kind = serve::ArrivalSpec::Kind::Bursty;
        s.arrival.burstSize = 3;
        s.arrival.gap = 5;
        s.arrival.jitter = 0;
        const auto w = serve::Workload::generate(s);
        w.validate();
        std::map<size_t, size_t> perTick;
        for (const auto &r : w.requests())
            ++perTick[r.submitStep];
        size_t lastTick = 0;
        bool first = true;
        for (const auto &[tick, count] : perTick) {
            EXPECT_EQ(count, 3u) << "tick " << tick;
            if (!first) {
                EXPECT_GE(tick - lastTick, 6u); // gap + 1
            }
            lastTick = tick;
            first = false;
        }
    }
}

TEST(WorkloadDistributions, StochasticArrivalsAreNondecreasing)
{
    using AK = serve::ArrivalSpec::Kind;
    for (const AK kind : {AK::Poisson, AK::Diurnal}) {
        for (u64 seed = 1; seed <= 100; ++seed) {
            serve::WorkloadSpec s;
            s.seed = seed;
            s.sessions = 12;
            s.arrival.kind = kind;
            s.arrival.num = 1;
            s.arrival.den = 3;
            s.arrival.peakNum = 3;
            s.arrival.period = 16;
            const auto w = serve::Workload::generate(s);
            w.validate(); // Checks nondecreasing turn-0 submits.
            size_t prev = 0;
            for (const auto &r : w.requests()) {
                EXPECT_GE(r.submitStep, prev);
                prev = r.submitStep;
            }
        }
    }
}

TEST(WorkloadDistributions, SharedSystemPromptPrefixesPopulation)
{
    for (u64 seed = 1; seed <= 100; ++seed) {
        serve::WorkloadSpec s;
        s.seed = seed;
        s.sessions = 6;
        s.systemPromptLen = 5;
        s.systemPromptPercent = 100;
        s.promptLen.kind = serve::LengthSpec::Kind::Fixed;
        s.promptLen.value = 4;
        const auto w = serve::Workload::generate(s);
        std::vector<int> sys;
        for (const auto &r : w.requests()) {
            ASSERT_EQ(r.turn, 0u);
            ASSERT_EQ(r.userTokens.size(), 9u); // 5 system + 4 fresh.
            const std::vector<int> head(r.userTokens.begin(),
                                        r.userTokens.begin() + 5);
            if (sys.empty())
                sys = head;
            EXPECT_EQ(head, sys) << "conversation " << r.conversation;
        }
    }

    // A 50% population must contain both members and non-members.
    size_t withSys = 0;
    size_t without = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        serve::WorkloadSpec s;
        s.seed = seed;
        s.sessions = 6;
        s.systemPromptLen = 5;
        s.systemPromptPercent = 50;
        s.promptLen.kind = serve::LengthSpec::Kind::Fixed;
        s.promptLen.value = 4;
        const auto w = serve::Workload::generate(s);
        for (const auto &r : w.requests()) {
            if (r.userTokens.size() == 9u) {
                ++withSys;
            } else if (r.userTokens.size() == 4u) {
                ++without;
            } else {
                FAIL() << "unexpected turn-0 prompt length "
                       << r.userTokens.size();
            }
        }
    }
    EXPECT_GT(withSys, 0u);
    EXPECT_GT(without, 0u);
}

TEST(WorkloadDistributions, TurnAndStopPopulationsFollowSpec)
{
    bool sawMinTurns = false;
    bool sawMaxTurns = false;
    size_t withStops = 0;
    size_t without = 0;
    for (u64 seed = 1; seed <= 100; ++seed) {
        serve::WorkloadSpec s;
        s.seed = seed;
        s.sessions = 4;
        s.turnsMin = 2;
        s.turnsMax = 4;
        s.turnGapSteps = 1;
        s.stopTokenCount = 2;
        s.stopPercent = 50;
        const auto w = serve::Workload::generate(s);
        w.validate(); // Turns contiguous and ascending per session.
        std::map<u64, size_t> turns;
        for (const auto &r : w.requests()) {
            turns[r.conversation] =
                std::max(turns[r.conversation], r.turn + 1);
            if (r.stopTokens.empty())
                ++without;
            else {
                ASSERT_EQ(r.stopTokens.size(), 2u);
                ++withStops;
            }
            for (const int t : r.stopTokens) {
                EXPECT_GE(t, 0);
                EXPECT_LT(t, static_cast<int>(s.vocab));
            }
        }
        for (const auto &[conv, count] : turns) {
            EXPECT_GE(count, 2u) << "conversation " << conv;
            EXPECT_LE(count, 4u) << "conversation " << conv;
            sawMinTurns |= (count == 2u);
            sawMaxTurns |= (count == 4u);
        }
    }
    EXPECT_TRUE(sawMinTurns);
    EXPECT_TRUE(sawMaxTurns);
    EXPECT_GT(withStops, 0u);
    EXPECT_GT(without, 0u);
}

// ---------------------------------------------------------------------
// Replay determinism pin
// ---------------------------------------------------------------------

/** Timing-free digest of a replay: ids, prompts, streams, steps. */
std::string
replayDigest(const serve::ReplayResult &r)
{
    std::string out;
    for (const auto &q : r.requests) {
        out += std::to_string(q.traceId) + ":" +
               std::to_string(q.promptTokens) + ":" +
               std::to_string(q.sharedPrefixRows) + ":" +
               std::to_string(q.submitStep) + ":" +
               std::to_string(q.firstTokenStep) + ":" +
               std::to_string(q.finishStep) + ":";
        for (const int t : q.generated)
            out += std::to_string(t) + ",";
        out += ";";
    }
    out += "ticks=" + std::to_string(r.ticks);
    return out;
}

TEST(WorkloadReplay, MultiTurnRetentionStreamsArePinned)
{
    const auto lm = workloadLm(1);
    const auto w =
        serve::Workload::generate(serve::Workload::namedSpec(
            "multi-turn"));

    const auto run = [&](bool retain) {
        serve::ServeConfig cfg;
        cfg.maxBatchTokens = 16;
        cfg.maxActiveRequests = 4;
        cfg.blockRows = 4;
        cfg.retainPrefixes = retain;
        serve::ServeEngine engine(lm, cfg);
        return replayTrace(engine, w);
    };

    const auto on = run(true);
    const auto off = run(false);
    const auto onAgain = run(true);

    // In-process repeatability, and retention is stream-invisible.
    EXPECT_EQ(replayDigest(on), replayDigest(onAgain));
    ASSERT_EQ(on.requests.size(), off.requests.size());
    size_t sharedRows = 0;
    for (size_t i = 0; i < on.requests.size(); ++i) {
        EXPECT_EQ(on.requests[i].generated, off.requests[i].generated);
        sharedRows += on.requests[i].sharedPrefixRows;
    }
    EXPECT_GT(sharedRows, 0u); // Later turns found retained donors.

    // Cross-process / cross-thread-count pin: the ctest workload legs
    // run this binary at OLIVE_THREADS=1 and =8.
    const u64 h = fnv1a64(replayDigest(on));
    EXPECT_EQ(h, 0xb02eaed026b9493bULL)
        << "replay digest hash changed; actual 0x" << std::hex << h;
}

} // namespace
} // namespace olive
