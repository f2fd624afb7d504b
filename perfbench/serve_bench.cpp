/**
 * @file
 * Serving benchmark harness.  Drives serve::ServeEngine through its
 * public API (submit, step, progressSnapshot, finishedSnapshot,
 * pendingIds, metricsSnapshot, blockPool) under one workload and
 * prints the raw observations as a single JSON line on stdout:
 * per-request due / submit / admit / token timestamps, process CPU and
 * memory counters, host steal and a fixed CPU probe, and the output
 * check.  In trace mode it also records spans around every call it
 * makes, replays the workload's shapes through the model, codec and
 * GEMM layers, and replays the requests through serve::Service.
 *
 * perfbench/run.py builds this program, runs it and turns the raw
 * observations into the benchmark's metrics; the workload shapes come
 * from perfbench/workloads.json through --spec.
 *
 *   serve_bench --spec JSON --setup-only
 *   serve_bench --spec JSON --seed N --seconds S --trace 0|1
 *               [--trace-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "eval/perplexity.hpp"
#include "models/config.hpp"
#include "serve/block_pool.hpp"
#include "serve/decoded_cache.hpp"
#include "serve/engine.hpp"
#include "serve/kv_cache.hpp"
#include "serve/service.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

using namespace olive;

namespace {

using Clock = std::chrono::steady_clock;

/** Captured before main() runs any set-up: set-up time starts here. */
const Clock::time_point kProcessStart = Clock::now();

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** SplitMix64: fixed arithmetic, so one seed names the same inputs on
 *  every platform and standard library. */
struct SplitMix
{
    u64 s;

    u64 next()
    {
        u64 z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [lo, hi]. */
    size_t range(size_t lo, size_t hi) { return lo + next() % (hi - lo + 1); }
};

const Json &
member(const Json &j, const char *key)
{
    const Json *v = j.find(key);
    if (v == nullptr)
        OLIVE_FATAL(std::string("workload spec lacks \"") + key + "\"");
    return *v;
}

size_t
getSize(const Json &j, const char *key)
{
    return static_cast<size_t>(member(j, key).asInt());
}

/** One workload, as perfbench/workloads.json describes it. */
struct WorkloadSpec
{
    std::string name;
    std::string load; //!< "open", "closed" or "offline".
    double rateRps = 0.0;
    size_t clients = 0;
    size_t batch = 0;
    size_t systemPrompts = 0;
    size_t systemLen = 0;
    size_t promptMin = 0, promptMax = 0;
    size_t outputMin = 0, outputMax = 0;
    size_t threads = 1;
    size_t checkMax = 0;
    std::string model;
    u64 modelSeed = 0;
    serve::ServeConfig cfg;

    static WorkloadSpec fromJson(const Json &j)
    {
        WorkloadSpec s;
        s.name = member(j, "name").asString();
        s.load = member(j, "load").asString();
        if (s.load == "open")
            s.rateRps = member(j, "rate_rps").asNumber();
        else if (s.load == "closed")
            s.clients = getSize(j, "clients");
        else if (s.load == "offline")
            s.batch = getSize(j, "batch");
        else
            OLIVE_FATAL("unknown load \"" + s.load + "\"");
        s.systemPrompts = getSize(j, "system_prompts");
        s.systemLen = getSize(j, "system_len");
        s.promptMin = getSize(j, "prompt_min");
        s.promptMax = getSize(j, "prompt_max");
        s.outputMin = getSize(j, "output_min");
        s.outputMax = getSize(j, "output_max");
        s.threads = getSize(j, "threads");
        s.checkMax = getSize(j, "check_max");
        s.model = member(j, "model").asString();
        s.modelSeed = static_cast<u64>(member(j, "model_seed").asInt());
        OLIVE_ASSERT(s.promptMin >= 1 && s.promptMin <= s.promptMax &&
                         s.outputMin >= 1 && s.outputMin <= s.outputMax &&
                         s.threads >= 1,
                     "workload spec ranges are inconsistent");

        const Json &e = member(j, "engine");
        s.cfg.cacheFormat =
            serve::parseKvCacheFormat(member(e, "cache_format").asString());
        s.cfg.maxActiveRequests = getSize(e, "max_active");
        s.cfg.maxBatchTokens = getSize(e, "batch_tokens");
        s.cfg.prefillChunk = getSize(e, "prefill_chunk");
        s.cfg.blockRows = getSize(e, "block_rows");
        s.cfg.retainPrefixes = member(e, "retain_prefixes").asBool();
        return s;
    }
};

/** A request before submission. */
struct Job
{
    std::vector<int> prompt;
    size_t maxNew = 0;
};

/** The workload's inputs, a pure function of (spec, seed). */
class Inputs
{
  public:
    Inputs(const WorkloadSpec &spec, u64 seed, size_t vocab)
        : spec_(&spec), seed_(seed), vocab_(vocab)
    {
        SplitMix r{seed ^ 0x5157e3a11ULL};
        for (size_t i = 0; i < spec.systemPrompts; ++i) {
            std::vector<int> p(spec.systemLen);
            for (int &t : p)
                t = static_cast<int>(r.range(0, vocab - 1));
            system_.push_back(std::move(p));
        }
    }

    /** Request @p i: an optional shared system prompt plus fresh tokens. */
    Job job(size_t i) const
    {
        SplitMix r{seed_ * 0x100000001b3ULL + i * 0x9e3779b97f4a7c15ULL};
        Job j;
        if (!system_.empty())
            j.prompt = system_[r.range(0, system_.size() - 1)];
        const size_t fresh = r.range(spec_->promptMin, spec_->promptMax);
        for (size_t t = 0; t < fresh; ++t)
            j.prompt.push_back(static_cast<int>(r.range(0, vocab_ - 1)));
        j.maxNew = r.range(spec_->outputMin, spec_->outputMax);
        return j;
    }

    /** A warm-up request sharing nothing with the workload's prompts. */
    Job warmupJob() const
    {
        SplitMix r{~seed_};
        Job j;
        const size_t len = spec_->systemLen + spec_->promptMax;
        for (size_t t = 0; t < len; ++t)
            j.prompt.push_back(static_cast<int>(r.range(0, vocab_ - 1)));
        j.maxNew = std::min<size_t>(spec_->outputMin, 8);
        return j;
    }

    const std::vector<std::vector<int>> &systemPrompts() const
    {
        return system_;
    }

    /**
     * Open-loop arrival times of @p n requests over [0, @p window)
     * seconds: request i is due at a uniformly random time inside the
     * i-th of n equal slots.  Arrivals are random and neighbours can
     * land together, so short queues still form, but no clump spans
     * more than two slots.  Poisson arrivals put the TTFT tail of a
     * ~100-request run at the mercy of the seed's largest clump, which
     * varied it by a third between seeds.
     */
    std::vector<double> arrivals(size_t n, double window) const
    {
        SplitMix r{seed_ ^ 0xa11a1ULL};
        const double slot = window / static_cast<double>(n);
        std::vector<double> t(n);
        for (size_t i = 0; i < n; ++i)
            t[i] = (static_cast<double>(i) + r.uniform()) * slot;
        return t;
    }

  private:
    const WorkloadSpec *spec_;
    u64 seed_;
    size_t vocab_;
    std::vector<std::vector<int>> system_;
};

// ------------------------------------------------------------- spans

/** One traced interval, recorded from the benchmark's side of a call. */
struct Span
{
    std::string name;
    double start = 0.0, end = 0.0; //!< Seconds from the phase start.
    long parent = -1;              //!< Index of the enclosing span.
    long request = -1;             //!< Request index, or -1.
    std::vector<std::pair<std::string, double>> counts;
};

class SpanLog
{
  public:
    size_t add(Span s)
    {
        spans_.push_back(std::move(s));
        return spans_.size() - 1;
    }

    Span &at(size_t i) { return spans_[i]; }

    /** Per span name: count, total and self seconds, where self time
     *  is the duration minus the time its child spans cover. */
    Json summary() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<size_t>(s.parent)] += s.end - s.start;
        std::map<std::string, std::array<double, 3>> agg;
        for (size_t i = 0; i < spans_.size(); ++i) {
            auto &a = agg[spans_[i].name];
            const double dur = spans_[i].end - spans_[i].start;
            a[0] += 1.0;
            a[1] += dur;
            a[2] += dur - child[i];
        }
        Json out = Json::object();
        for (const auto &[name, a] : agg)
            out.set(name, Json::object({{"count", a[0]},
                                        {"total_s", a[1]},
                                        {"self_s", a[2]}}));
        return out;
    }

    /** Chrome trace-event JSON (loadable in Perfetto). */
    void write(const std::string &path) const
    {
        Json events = Json::array();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            Json args = Json::object({{"span", static_cast<double>(i)},
                                      {"parent", s.parent},
                                      {"request", s.request}});
            for (const auto &[k, v] : s.counts)
                args.set(k, v);
            const int tid = s.request >= 0 ? 2
                            : s.name.rfind("engine", 0) == 0 ? 1
                                                             : 3;
            events.push(Json::object(
                {{"name", s.name},
                 {"ph", "X"},
                 {"ts", s.start * 1e6},
                 {"dur", (s.end - s.start) * 1e6},
                 {"pid", 1},
                 {"tid", tid},
                 {"args", std::move(args)}}));
        }
        std::ofstream f(path);
        OLIVE_ASSERT(f.good(), "cannot open the trace output file");
        f << Json::object({{"traceEvents", std::move(events)}}).dump()
          << "\n";
    }

    size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
};

// ------------------------------------------------------------ driving

/** What the driver saw of one request. */
struct ReqRecord
{
    size_t index = 0;
    u64 id = 0;
    double due = 0.0, submit = 0.0, admitted = -1.0, done = -1.0;
    size_t promptLen = 0, maxNew = 0, sharedRows = 0;
    std::vector<double> tokenTimes;
    std::vector<int> tokens;
    bool finished = false;
    /** Trace mode: (step index, cache position after that step). */
    std::vector<std::pair<size_t, size_t>> positions;
};

/** What the driver saw of one engine step (trace mode). */
struct StepRecord
{
    double start = 0.0, end = 0.0;
    size_t active = 0, pending = 0, promptRows = 0, rows = 0;
};

/** Process user + system CPU seconds (all threads). */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** (steal, total) jiffies from /proc/stat's aggregate cpu line. */
std::pair<double, double>
hostJiffies()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    if (!f || cpu != "cpu")
        return {0.0, 0.0};
    double v[8] = {};
    for (double &x : v)
        f >> x;
    double total = 0.0;
    for (double x : v)
        total += x;
    return {v[7], total};
}

/**
 * A fixed loop in the benchmark's own code, calling no repository code:
 * integer work plus passes over a buffer larger than the L2 cache, so
 * its time tracks both the host's core speed and its memory contention.
 */
double
probeMs()
{
    static std::vector<u64> buf(1u << 21); // 16 MiB
    const Clock::time_point t0 = Clock::now();
    u64 x = 0x1234567ULL;
    for (u64 i = 0; i < 2'000'000ULL; ++i)
        x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ULL + i;
    for (int pass = 0; pass < 4; ++pass)
        for (u64 &v : buf)
            x += (v += x);
    static volatile u64 sink;
    sink = x;
    return secondsBetween(t0, Clock::now()) * 1e3;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * One timed phase over one engine.  Every call into the engine goes
 * through here, so the observations (and in trace mode the spans) are
 * taken at the same boundaries whatever the load shape.
 */
class Phase
{
  public:
    Phase(serve::ServeEngine &engine, bool trace)
        : engine_(&engine), trace_(trace), t0_(Clock::now()),
          finishedCursor_(engine.finishedCount())
    {
    }

    double now() const { return secondsBetween(t0_, Clock::now()); }
    Clock::time_point origin() const { return t0_; }

    void submit(const Job &job, size_t index, double due)
    {
        ReqRecord r;
        r.index = index;
        r.due = due;
        r.promptLen = job.prompt.size();
        r.maxNew = job.maxNew;
        r.submit = now();
        r.id = engine_->submit(job.prompt, job.maxNew);
        byId_[r.id] = records_.size();
        records_.push_back(std::move(r));
        ++outstanding_;
    }

    /** One engine step plus the observation after it.  Returns the
     *  records of requests that finished in it. */
    std::vector<size_t> step()
    {
        StepRecord s;
        s.start = now();
        engine_->step();
        s.end = now();
        std::vector<size_t> finished;
        const auto progress = engine_->progressSnapshot();
        for (const auto &p : progress) {
            ReqRecord &r = records_[byId_.at(p.id)];
            if (r.admitted < 0.0)
                r.admitted = s.start;
            while (r.tokenTimes.size() < p.generated.size())
                r.tokenTimes.push_back(s.end);
            if (trace_)
                r.positions.emplace_back(steps_.size(), p.position);
        }
        const auto fin = engine_->finishedSnapshot(finishedCursor_);
        finishedCursor_ += fin.size();
        for (const auto &f : fin) {
            const size_t ri = byId_.at(f.id);
            ReqRecord &r = records_[ri];
            if (r.admitted < 0.0)
                r.admitted = s.start;
            while (r.tokenTimes.size() < f.generated.size())
                r.tokenTimes.push_back(s.end);
            r.tokens = f.generated;
            r.sharedRows = f.sharedPrefixRows;
            r.done = s.end;
            r.finished = !f.cancelled;
            if (trace_)
                r.positions.emplace_back(
                    steps_.size(), f.prompt.size() + f.generated.size() - 1);
            --outstanding_;
            finished.push_back(ri);
        }
        s.active = progress.size() + fin.size();
        const size_t pending = engine_->pendingIds().size();
        backlog_.emplace_back(s.end, pending);
        s.pending = pending;
        if (trace_)
            steps_.push_back(s);
        return finished;
    }

    size_t outstanding() const { return outstanding_; }
    std::vector<ReqRecord> &records() { return records_; }
    std::vector<StepRecord> &steps() { return steps_; }
    const std::vector<std::pair<double, size_t>> &backlog() const
    {
        return backlog_;
    }

  private:
    serve::ServeEngine *engine_;
    bool trace_;
    Clock::time_point t0_;
    std::vector<ReqRecord> records_;
    std::map<u64, size_t> byId_;
    std::vector<StepRecord> steps_;
    std::vector<std::pair<double, size_t>> backlog_;
    size_t finishedCursor_; //!< Skips requests retired before the phase.
    size_t outstanding_ = 0;
};

/** Drives @p phase with the workload's load shape for @p seconds. */
void
drive(Phase &phase, const WorkloadSpec &spec, const Inputs &in,
      double seconds)
{
    if (spec.load == "open") {
        const auto n = static_cast<size_t>(std::lround(spec.rateRps * seconds));
        const std::vector<double> due = in.arrivals(n, seconds);
        size_t next = 0;
        while (next < n || phase.outstanding() > 0) {
            const double t = phase.now();
            while (next < n && due[next] <= t) {
                phase.submit(in.job(next), next, due[next]);
                ++next;
            }
            if (phase.outstanding() > 0)
                phase.step();
            else if (next < n)
                std::this_thread::sleep_until(
                    phase.origin() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[next])));
        }
    } else if (spec.load == "closed") {
        // Each client sends its next request as soon as it sees the
        // previous one finish; no client sends after the deadline.
        size_t next = 0;
        for (size_t c = 0; c < spec.clients; ++c, ++next)
            phase.submit(in.job(next), next, phase.now());
        while (phase.outstanding() > 0) {
            const std::vector<size_t> done = phase.step();
            const double t = phase.now();
            for (size_t k = 0; k < done.size() && t < seconds; ++k, ++next)
                phase.submit(in.job(next), next, t);
        }
    } else {
        // Offline: whole batches due at once, back to back.
        size_t next = 0;
        do {
            const double t = phase.now();
            for (size_t b = 0; b < spec.batch; ++b, ++next)
                phase.submit(in.job(next), next, t);
            while (phase.outstanding() > 0)
                phase.step();
        } while (phase.now() < seconds);
    }
}

/**
 * Warm-up, part of set-up: serve one request that shares nothing with
 * the workload, drop the prefix it left, then serve each shared system
 * prompt once so the retention cache holds them.  The timed phase then
 * sees a running service's steady state instead of its first minute.
 */
void
warmUp(serve::ServeEngine &engine, const Inputs &in)
{
    const Job j = in.warmupJob();
    engine.submit(j.prompt, j.maxNew);
    engine.runToCompletion();
    engine.clearRetainedPrefixes();
    for (const std::vector<int> &sys : in.systemPrompts()) {
        std::vector<int> prompt = sys;
        prompt.push_back(j.prompt.front());
        engine.submit(prompt, 1);
    }
    engine.runToCompletion();
}

struct Setup
{
    eval::LmModel lm;
    std::unique_ptr<serve::ServeEngine> engine;
};

/**
 * Everything a user pays before the first submit: pin the pool, build
 * the model, construct the engine, and warm it up.
 */
void
setUp(const WorkloadSpec &spec, u64 seed, Setup &s)
{
    par::setThreadCount(spec.threads);
    s.lm = eval::makeLm(models::byName(spec.model), spec.modelSeed);
    s.engine = std::make_unique<serve::ServeEngine>(s.lm, spec.cfg);
    warmUp(*s.engine, Inputs(spec, seed, s.lm.vocab));
}

/**
 * The output check: under the engine's determinism contract a greedy
 * stream depends only on its prompt, max_new and cache format, so each
 * checked request is replayed alone, on an engine with nothing else
 * running and nothing retained, and must match token for token.  Checks every request up to checkMax, else a seeded
 * sample of checkMax.
 */
Json
checkOutputs(const WorkloadSpec &spec, const eval::LmModel &lm,
             const Inputs &in, const std::vector<ReqRecord> &recs,
             u64 seed)
{
    std::vector<size_t> pick(recs.size());
    for (size_t i = 0; i < pick.size(); ++i)
        pick[i] = i;
    if (pick.size() > spec.checkMax) {
        SplitMix r{seed ^ 0xc4ec4ULL};
        for (size_t i = 0; i < spec.checkMax; ++i)
            std::swap(pick[i], pick[i + r.next() % (pick.size() - i)]);
        pick.resize(spec.checkMax);
    }
    serve::ServeEngine ref(lm, spec.cfg);
    Json mismatched = Json::array();
    size_t checked = 0;
    for (size_t i : pick) {
        const ReqRecord &r = recs[i];
        if (!r.finished)
            continue;
        const Job j = in.job(r.index);
        ref.submit(j.prompt, j.maxNew);
        ref.runToCompletion();
        ref.clearRetainedPrefixes();
        const auto fin = ref.finishedSnapshot(ref.finishedCount() - 1);
        ++checked;
        if (fin.empty() || fin.back().generated != r.tokens)
            mismatched.push(static_cast<double>(r.index));
    }
    return Json::object({{"checked", static_cast<double>(checked)},
                         {"mismatched", std::move(mismatched)}});
}

Json
recordsJson(const std::vector<ReqRecord> &recs)
{
    Json out = Json::array();
    for (const ReqRecord &r : recs) {
        Json times = Json::array();
        for (double t : r.tokenTimes)
            times.push(t);
        out.push(Json::object({{"index", static_cast<double>(r.index)},
                               {"due", r.due},
                               {"submit", r.submit},
                               {"admitted", r.admitted},
                               {"done", r.done},
                               {"prompt", static_cast<double>(r.promptLen)},
                               {"max_new", static_cast<double>(r.maxNew)},
                               {"shared", static_cast<double>(r.sharedRows)},
                               {"finished", r.finished},
                               {"token_times", std::move(times)}}));
    }
    return out;
}

/** Drives a timed phase and returns its raw observations. */
Json
timedPhase(Phase &phase, const serve::ServeEngine &engine,
           const WorkloadSpec &spec, const Inputs &in, double seconds)
{
    const double cpu0 = processCpuSeconds();
    drive(phase, spec, in, seconds);
    const double wall = phase.now();
    const double cpu = processCpuSeconds() - cpu0;
    const serve::ServeMetrics m = engine.metricsSnapshot();
    Json backlog = Json::array();
    for (const auto &[t, n] : phase.backlog())
        backlog.push(Json::array({Json(t), Json(static_cast<double>(n))}));
    return Json::object(
        {{"wall_s", wall},
         {"cpu_s", cpu},
         {"kv_peak_bytes", static_cast<double>(m.peakEncodedCacheBytes)},
         {"requests", recordsJson(phase.records())},
         {"backlog", std::move(backlog)}});
}

// ------------------------------------------------------- trace extras

/** Per-layer counters of the traced phase, from the engine's own
 *  accessors, plus the step and request spans. */
Json
traceEngine(const serve::ServeEngine &engine, Phase &phase,
            const serve::ServeMetrics &before, size_t layers,
            SpanLog &log)
{
    const serve::ServeMetrics m = engine.metricsSnapshot();
    std::vector<StepRecord> &steps = phase.steps();

    // Rows each step computed, from the per-request cache positions:
    // a request's first observed position includes the prefix rows
    // sharing seeded at admission, which were never computed.
    std::vector<size_t> forwardCalls(steps.size(), 0);
    const size_t chunk = engine.config().prefillChunk;
    u64 headCalls = 0;
    for (const ReqRecord &r : phase.records()) {
        size_t prev = 0;
        bool first = true;
        headCalls += r.tokenTimes.size();
        for (const auto &[si, pos] : r.positions) {
            size_t from = first ? r.sharedRows : prev;
            from = std::min(from, pos);
            const size_t computed = pos - from;
            const size_t promptRows =
                std::min(pos, r.promptLen) - std::min(from, r.promptLen);
            steps[si].rows += computed;
            steps[si].promptRows += promptRows;
            // Prefill goes through forwardChunk in prefillChunk slabs;
            // every other row is one single-row forward call.
            forwardCalls[si] += promptRows / chunk +
                                (promptRows % chunk ? 1 : 0) +
                                (computed - promptRows);
            prev = pos;
            first = false;
        }
    }
    u64 calls = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
        const StepRecord &s = steps[i];
        calls += forwardCalls[i];
        Span sp{"engine.step", s.start, s.end, -1, -1, {}};
        sp.counts = {{"rows", static_cast<double>(s.rows)},
                     {"prompt_rows", static_cast<double>(s.promptRows)},
                     {"active", static_cast<double>(s.active)},
                     {"pending", static_cast<double>(s.pending)}};
        log.add(std::move(sp));
    }
    for (const ReqRecord &r : phase.records()) {
        const double first =
            r.tokenTimes.empty() ? r.done : r.tokenTimes.front();
        const auto parent = static_cast<long>(
            log.add({"request", r.due, r.done, -1,
                     static_cast<long>(r.index), {}}));
        const auto idx = static_cast<long>(r.index);
        log.add({"request.queue", r.due, r.admitted, parent, idx, {}});
        log.add({"request.prefill", r.admitted, first, parent, idx, {}});
        log.add({"request.decode", first, r.done, parent, idx, {}});
    }

    Json stepsJson = Json::array();
    for (const StepRecord &s : steps)
        stepsJson.push(Json::array({Json(s.start), Json(s.end),
                                    Json(static_cast<double>(s.rows)),
                                    Json(static_cast<double>(s.promptRows)),
                                    Json(static_cast<double>(s.active))}));
    const auto delta = [](u64 a, u64 b) { return static_cast<double>(a - b); };
    const serve::BlockPool *pool = engine.blockPool();
    return Json::object(
        {{"steps", std::move(stepsJson)},
         {"layers", static_cast<double>(layers)},
         {"forward_calls", static_cast<double>(calls)},
         {"head_calls", static_cast<double>(headCalls)},
         {"tokens_processed",
          delta(m.tokensProcessed, before.tokensProcessed)},
         {"shared_rows_skipped", delta(m.sharedPrefillRowsSkipped,
                                       before.sharedPrefillRowsSkipped)},
         {"retention_hits", delta(m.retentionHits, before.retentionHits)},
         {"retention_evictions",
          delta(m.retentionEvictions, before.retentionEvictions)},
         {"cow_copy_rows", delta(m.cowCopyRows, before.cowCopyRows)},
         {"peak_encoded_bytes", static_cast<double>(m.peakEncodedCacheBytes)},
         {"peak_fp32_bytes", static_cast<double>(m.peakFp32CacheBytes)},
         {"pool_peak_bytes",
          pool ? static_cast<double>(pool->peakBytes()) : 0.0},
         {"pool_block_bytes",
          pool ? static_cast<double>(pool->blockBytes()) : 1.0},
         {"dcache_hits", delta(m.decodedCacheHits, before.decodedCacheHits)},
         {"dcache_misses",
          delta(m.decodedCacheMisses, before.decodedCacheMisses)},
         {"dcache_evictions",
          delta(m.decodedCacheEvictions, before.decodedCacheEvictions)},
         {"dcache_rows", delta(m.decodedCacheRows, before.decodedCacheRows)},
         {"dcache_peak_bytes",
          static_cast<double>(m.decodedCachePeakBytes)}});
}

/** Time @p fn over @p reps calls; returns mean microseconds per call. */
template <typename Fn>
double
meanUs(size_t reps, Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < reps; ++i)
        fn();
    return secondsBetween(t0, Clock::now()) * 1e6 /
           static_cast<double>(reps);
}

/**
 * Layer replay: the workload's median request shape fed through the
 * model's public forward functions on a standalone paged decode state
 * over the benchmark's own pool and decoded-block cache, plus the KV
 * codec and the GEMM at the model's weight shapes.
 */
Json
layerReplay(const WorkloadSpec &spec, const eval::LmModel &lm,
            const Inputs &in, const std::vector<ReqRecord> &recs,
            SpanLog &log, Clock::time_point origin)
{
    std::vector<double> plen, olen;
    for (const ReqRecord &r : recs) {
        plen.push_back(static_cast<double>(r.promptLen));
        olen.push_back(static_cast<double>(r.maxNew));
    }
    const auto promptLen = static_cast<size_t>(median(plen));
    const auto outLen = static_cast<size_t>(median(olen));
    std::vector<int> prompt = in.job(0).prompt;
    prompt.resize(promptLen, prompt.back());

    const std::unique_ptr<serve::KvScheme> scheme =
        serve::makeKvScheme(spec.cfg.cacheFormat);
    const size_t d = lm.backbone.dModel;
    const size_t chunk = spec.cfg.prefillChunk;
    const auto at = [&] { return secondsBetween(origin, Clock::now()); };
    const double start = at();

    double prefillS = 0.0, decodeS = 0.0, headS = 0.0;
    size_t prefillRows = 0, decodeRows = 0, headRows = 0, rounds = 0;
    // At least three rounds, and more while under a second.
    while (rounds < 3 || (at() - start < 1.0 && rounds < 50)) {
        serve::BlockPool pool(*scheme, d, spec.cfg.blockRows);
        serve::DecodedBlockCache dcache(pool, 0);
        pool.setReleaseHook([&dcache](u32 id) { dcache.invalidate(id); });
        serve::DecodeState st =
            serve::makePagedDecodeState(lm.backbone, pool, &dcache);
        const size_t root = log.add({"replay.request", at(), 0.0, -1, -1, {}});
        int next = 0;
        for (size_t p = 0; p < promptLen; p += chunk) {
            const size_t m = std::min(chunk, promptLen - p);
            const Tensor x = lm.embed(
                std::span<const int>(prompt.data() + p, m));
            const double t0 = at();
            const Tensor h = lm.backbone.forwardChunk(x, st);
            const double t1 = at();
            log.add({"model.forward_chunk", t0, t1, static_cast<long>(root), -1,
                     {{"rows", static_cast<double>(m)}}});
            if (m > 1) {
                prefillS += t1 - t0;
                prefillRows += m;
            }
            if (p + m == promptLen) {
                Tensor last({1, d});
                std::copy(h.row(m - 1).begin(), h.row(m - 1).end(),
                          last.row(0).begin());
                const double t2 = at();
                const Tensor lg = lm.logitsFromHidden(last);
                const double t3 = at();
                log.add({"model.head", t2, t3, static_cast<long>(root), -1,
                         {{"rows", 1.0}}});
                headS += t3 - t2;
                ++headRows;
                next = ops::argmaxRow(lg.row(0));
            }
        }
        for (size_t k = 1; k < outLen; ++k) {
            const std::vector<int> tok{next};
            const Tensor x = lm.embed(tok);
            const double t0 = at();
            const Tensor h = lm.backbone.forwardChunk(x, st);
            const double t1 = at();
            const Tensor lg = lm.logitsFromHidden(h);
            const double t2 = at();
            log.add({"model.forward_chunk", t0, t1, static_cast<long>(root), -1,
                     {{"rows", 1.0}, {"context", static_cast<double>(st.position)}}});
            log.add({"model.head", t1, t2, static_cast<long>(root), -1,
                     {{"rows", 1.0}}});
            decodeS += t1 - t0;
            headS += t2 - t1;
            ++decodeRows;
            ++headRows;
            next = ops::argmaxRow(lg.row(0));
        }
        log.at(root).end = at();
        ++rounds;
    }

    // Codec: the model's own layer-0 K rows for the replay prompt.
    const nn::Layer &l0 = lm.backbone.layers.front();
    const Tensor krows = linearForward(lm.embed(prompt), l0.k.w, l0.k.b);
    std::vector<std::vector<u8>> enc(krows.dim(0));
    std::vector<serve::KvRowMeta> meta(krows.dim(0));
    const size_t codecReps = 20;
    double t0 = at();
    for (size_t rep = 0; rep < codecReps; ++rep)
        for (size_t i = 0; i < krows.dim(0); ++i) {
            enc[i].clear();
            scheme->encodeRow(krows.row(i), enc[i], meta[i]);
        }
    double t1 = at();
    log.add({"codec.encode_row", t0, t1, -1, -1,
             {{"rows", static_cast<double>(codecReps * krows.dim(0))}}});
    const double encodeUs =
        (t1 - t0) * 1e6 / static_cast<double>(codecReps * krows.dim(0));
    std::vector<float> out(d);
    t0 = at();
    for (size_t rep = 0; rep < codecReps; ++rep)
        for (size_t i = 0; i < krows.dim(0); ++i)
            scheme->decodeRow(enc[i], meta[i], out);
    t1 = at();
    log.add({"codec.decode_row", t0, t1, -1, -1,
             {{"rows", static_cast<double>(codecReps * krows.dim(0))}}});
    const double decodeUs =
        (t1 - t0) * 1e6 / static_cast<double>(codecReps * krows.dim(0));

    // GEMM: one linearForward per weight matrix of the model.
    double weightElems = 0.0;
    const auto linearPass = [&](size_t m, size_t reps) {
        double us = 0.0;
        size_t n = 0;
        for (const nn::Layer &layer : lm.backbone.layers)
            for (const nn::Linear *lin :
                 {&layer.q, &layer.k, &layer.v, &layer.o, &layer.ff1,
                  &layer.ff2}) {
                Tensor x({m, lin->w.dim(1)});
                for (size_t i = 0; i < x.size(); ++i)
                    x.raw()[i] = krows.raw()[i % krows.size()];
                const double s0 = at();
                us += meanUs(reps, [&] {
                    const Tensor y = linearForward(x, lin->w, lin->b);
                    static volatile float sink;
                    sink = y.raw()[0];
                });
                log.add({m == 1 ? "gemm.linear_m1" : "gemm.linear_m32", s0,
                         at(), -1, -1, {{"calls", static_cast<double>(reps)}}});
                ++n;
            }
        return us / static_cast<double>(n);
    };
    for (const nn::Layer &layer : lm.backbone.layers)
        for (const nn::Linear *lin : {&layer.q, &layer.k, &layer.v, &layer.o,
                                      &layer.ff1, &layer.ff2})
            weightElems += static_cast<double>(lin->w.size());
    const double m1 = linearPass(1, 200);
    const double m32 = linearPass(chunk, 40);

    return Json::object(
        {{"prompt_len", static_cast<double>(promptLen)},
         {"output_len", static_cast<double>(outLen)},
         {"rounds", static_cast<double>(rounds)},
         {"prefill_us_per_row",
          prefillRows ? prefillS * 1e6 / static_cast<double>(prefillRows)
                      : 0.0},
         {"decode_us_per_row",
          decodeRows ? decodeS * 1e6 / static_cast<double>(decodeRows) : 0.0},
         {"head_us_per_row",
          headRows ? headS * 1e6 / static_cast<double>(headRows) : 0.0},
         {"encode_us_per_row", encodeUs},
         {"decode_row_us", decodeUs},
         {"bytes_per_row",
          static_cast<double>(scheme->rowBytes(d) + scheme->metaBytesPerRow())},
         {"linear_m1_us", m1},
         {"linear_m32_us", m32},
         {"weight_elems", weightElems},
         {"head_elems", static_cast<double>(lm.embedding.size())}});
}

/**
 * Timestamps every line serve::Service writes.  The Service emits a
 * step's events in one burst after the step returns, so the gap before
 * a token event that follows another line of the same burst is the
 * front end's cost of building and writing that event.
 */
class TimestampingBuf : public std::streambuf
{
  public:
    size_t lines = 0;
    std::vector<double> tokenEventUs; //!< In-burst gaps before token lines.

  protected:
    int overflow(int c) override
    {
        if (c != EOF)
            put(static_cast<char>(c));
        return c;
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    /** Gaps longer than this span an engine step (>= several ms). */
    static constexpr double kBurstGapUs = 1000.0;

    void put(char c)
    {
        line_.push_back(c);
        if (c != '\n')
            return;
        const Clock::time_point now = Clock::now();
        const double gapUs = secondsBetween(last_, now) * 1e6;
        if (lines > 0 && gapUs < kBurstGapUs &&
            line_.find("\"event\":\"token\"") != std::string::npos)
            tokenEventUs.push_back(gapUs);
        ++lines;
        last_ = now;
        line_.clear();
    }

    std::string line_;
    Clock::time_point last_;
};

/**
 * Front-end replay of the phase's first requests through serve::Service:
 * a submit + cancel + stats session that never computes (the cost per
 * op line of parsing, validating and answering), and a step-scripted
 * session whose output is timestamped (the cost per token event).
 */
Json
serviceReplay(const WorkloadSpec &spec, const eval::LmModel &lm,
              const Inputs &in, size_t nreq, SpanLog &log,
              Clock::time_point origin)
{
    const auto at = [&] { return secondsBetween(origin, Clock::now()); };
    const auto submitLine = [](const Job &j) {
        Json p = Json::array();
        for (int t : j.prompt)
            p.push(Json(t));
        return Json::object({{"op", "submit"},
                             {"prompt", std::move(p)},
                             {"max_new", static_cast<double>(j.maxNew)}})
                   .dump() +
               "\n";
    };

    std::string frontOnly;
    for (size_t i = 0; i < nreq; ++i)
        frontOnly += submitLine(in.job(i)) + "{\"op\":\"cancel\",\"id\":" +
                     std::to_string(i + 1) + "}\n{\"op\":\"stats\"}\n";
    std::string scripted;
    for (size_t i = 0; i < nreq; ++i)
        scripted += submitLine(in.job(i)) + "{\"op\":\"step\",\"n\":1}\n";
    scripted += "{\"op\":\"drain\"}\n";

    serve::ServiceConfig scfg;
    scfg.autoDrain = false;
    const auto runService = [&](const std::string &script, const char *name,
                                TimestampingBuf &buf) {
        serve::ServeEngine engine(lm, spec.cfg);
        serve::Service service(engine, scfg);
        std::istringstream is(script);
        std::ostream os(&buf);
        const double t0 = at();
        service.run(is, os);
        const double t1 = at();
        log.add({name, t0, t1, -1, -1,
                 {{"lines", static_cast<double>(buf.lines)},
                  {"token_events",
                   static_cast<double>(buf.tokenEventUs.size())}}});
        return t1 - t0;
    };

    TimestampingBuf frontBuf, scriptBuf;
    const double frontS = runService(frontOnly, "service.front_only", frontBuf);
    runService(scripted, "service.scripted", scriptBuf);
    return Json::object(
        {{"requests", static_cast<double>(nreq)},
         {"us_per_op_line",
          frontS * 1e6 / static_cast<double>(3 * nreq)},
         {"us_per_token_event", median(scriptBuf.tokenEventUs)}});
}

struct Args
{
    std::string spec;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                OLIVE_FATAL("missing value for " + k);
            return argv[++i];
        };
        if (k == "--spec")
            a.spec = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = value() == "1";
        else if (k == "--trace-out")
            a.traceOut = value();
        else if (k == "--setup-only")
            a.setupOnly = true;
        else
            OLIVE_FATAL("unknown argument " + k);
    }
    OLIVE_ASSERT(!a.spec.empty(), "--spec is required");
    OLIVE_ASSERT(a.seconds > 0.0, "--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::optional<Json> specJson = Json::parse(args.spec);
    OLIVE_ASSERT(specJson.has_value(), "--spec is not valid JSON");
    const WorkloadSpec spec = WorkloadSpec::fromJson(*specJson);

    Setup s;
    setUp(spec, args.seed, s);
    const double setupS = secondsBetween(kProcessStart, Clock::now());
    if (args.setupOnly) {
        // The host probe runs here, in a process of its own, so its
        // buffer never counts toward a measured run's peak RSS.
        std::printf("%s\n", Json::object({{"setup_s", setupS},
                                           {"probe_ms", probeMs()}})
                                 .dump()
                                 .c_str());
        return 0;
    }

    const Inputs in(spec, args.seed, s.lm.vocab);
    const auto jiffies0 = hostJiffies();

    // The end-to-end phase: no spans, only the observations every
    // metric needs.  In trace mode it runs for half the time and a
    // traced phase on a fresh engine takes the other half, so the two
    // can be compared for the tracing overhead.
    const double phaseSeconds = args.trace ? args.seconds / 2 : args.seconds;
    Phase phase(*s.engine, false);
    const Json plain = timedPhase(phase, *s.engine, spec, in, phaseSeconds);
    const double rssMib = peakRssMib();
    const auto jiffies1 = hostJiffies();

    Json out = Json::object({{"workload", spec.name},
                             {"seed", static_cast<double>(args.seed)},
                             {"threads", static_cast<double>(par::threadCount())},
                             {"setup_s", setupS},
                             {"rss_peak_mib", rssMib},
                             {"timed", plain}});

    const Clock::time_point checkStart = Clock::now();
    Json check = checkOutputs(spec, s.lm, in, phase.records(), args.seed);
    check.set("seconds", secondsBetween(checkStart, Clock::now()));

    if (args.trace) {
        SpanLog log;
        serve::ServeEngine engine(s.lm, spec.cfg);
        warmUp(engine, in);
        const serve::ServeMetrics before = engine.metricsSnapshot();
        Phase tphase(engine, true);
        Json traced = timedPhase(tphase, engine, spec, in, phaseSeconds);
        Json tr = traceEngine(engine, tphase, before,
                              s.lm.backbone.layers.size(), log);
        tr.set("replay", layerReplay(spec, s.lm, in, tphase.records(), log,
                                     tphase.origin()));
        const size_t nsvc = std::min<size_t>(tphase.records().size(), 16);
        tr.set("service",
               serviceReplay(spec, s.lm, in, nsvc, log, tphase.origin()));
        tr.set("phase", std::move(traced));
        tr.set("spans", log.summary());
        tr.set("span_count", static_cast<double>(log.size()));
        if (!args.traceOut.empty())
            log.write(args.traceOut);
        out.set("trace", std::move(tr));
    }

    out.set("check", std::move(check));
    out.set("host",
            Json::object({{"steal_jiffies", jiffies1.first - jiffies0.first},
                          {"total_jiffies", jiffies1.second - jiffies0.second}}));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
