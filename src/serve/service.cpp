#include "service.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>

#include "util/common.hpp"

namespace olive {
namespace serve {

namespace {

/** True when @p line is blank (ignored by the session loop). */
bool
isBlank(const std::string &line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

/** Integral-number extraction; false (untouched @p out) otherwise. */
bool
jsonToInt(const Json &v, long &out)
{
    if (!v.isNumber())
        return false;
    const double d = v.asNumber();
    const long n = static_cast<long>(d);
    if (static_cast<double>(n) != d)
        return false;
    out = n;
    return true;
}

/**
 * Validate @p v as an array of token ids within @p vocab.  Returns
 * false with @p err set (prefixed by @p what) on any violation.
 */
bool
jsonToTokens(const Json &v, size_t vocab, const char *what,
             std::vector<int> &out, std::string &err)
{
    if (!v.isArray()) {
        err = std::string(what) + " must be an array of token ids";
        return false;
    }
    out.reserve(v.size());
    for (const Json &e : v.elements()) {
        long tok = 0;
        if (!jsonToInt(e, tok) || tok < 0 ||
            static_cast<size_t>(tok) >= vocab) {
            err = std::string(what) + " token out of range [0, " +
                  std::to_string(vocab) + ")";
            return false;
        }
        out.push_back(static_cast<int>(tok));
    }
    return true;
}

} // namespace

void
StopSupersetPolicy::apply(Request &req) const
{
    for (int tok : extra_) {
        if (std::find(req.stopTokens.begin(), req.stopTokens.end(),
                      tok) == req.stopTokens.end())
            req.stopTokens.push_back(tok);
    }
}

LengthCapPolicy::LengthCapPolicy(size_t cap) : cap_(cap)
{
    OLIVE_ASSERT(cap >= 1, "a length cap below 1 token is unservable");
}

void
LengthCapPolicy::apply(Request &req) const
{
    req.maxNewTokens = std::min(req.maxNewTokens, cap_);
}

Service::Service(ServeEngine &engine, ServiceConfig config)
    : engine_(&engine), cfg_(std::move(config))
{
}

void
Service::run(std::istream &in, std::ostream &out)
{
    std::string line;
    bool acked = false;
    while (!shutdown_.load() && std::getline(in, line)) {
        if (isBlank(line))
            continue;
        if (!handleLine(line, out)) {
            acked = true; // shutdown op drained and acked already
            break;
        }
    }
    if (!acked) {
        // Input EOF or requestShutdown(): same contract as the op —
        // drain in-flight work, then acknowledge.
        drain(out);
        emitLine(out, Json::object(
                          {{"event", "shutdown"},
                           {"finished", engine_->finishedCount()}}));
    }
}

bool
Service::handleLine(const std::string &line, std::ostream &out)
{
    std::string parse_err;
    const auto doc = Json::parse(line, &parse_err);
    if (!doc) {
        emitError(out, "bad JSON: " + parse_err);
        return true;
    }
    if (!doc->isObject() || doc->find("op") == nullptr ||
        !doc->find("op")->isString()) {
        emitError(out, "every op line is an object with a string \"op\"");
        return true;
    }
    const std::string &op = doc->find("op")->asString();
    if (op == "submit") {
        handleSubmit(*doc, out);
    } else if (op == "cancel") {
        handleCancel(*doc, out);
    } else if (op == "stats") {
        out << statsLine() << '\n';
        out.flush();
    } else if (op == "step") {
        handleStep(*doc, out);
    } else if (op == "drain") {
        drain(out);
    } else if (op == "shutdown") {
        drain(out);
        emitLine(out, Json::object(
                          {{"event", "shutdown"},
                           {"finished", engine_->finishedCount()}}));
        return false;
    } else {
        emitError(out, "unknown op \"" + op + "\"");
    }
    return true;
}

void
Service::handleSubmit(const Json &op, std::ostream &out)
{
    static const char *kKnown[] = {"op",   "prompt",      "max_new",
                                   "stop", "priority",    "deadline_ms",
                                   "policy"};
    for (const auto &kv : op.members()) {
        if (std::find_if(std::begin(kKnown), std::end(kKnown),
                         [&](const char *k) { return kv.first == k; }) ==
            std::end(kKnown)) {
            emitError(out, "unknown submit field \"" + kv.first + "\"");
            return;
        }
    }

    const size_t vocab = engine_->vocab();
    Request req;
    std::string err;
    const Json *prompt = op.find("prompt");
    if (prompt == nullptr ||
        !jsonToTokens(*prompt, vocab, "prompt", req.prompt, err)) {
        emitError(out, err.empty() ? "submit needs a \"prompt\" array"
                                   : err);
        return;
    }
    if (req.prompt.empty()) {
        emitError(out, "prompt must be non-empty");
        return;
    }
    const Json *max_new = op.find("max_new");
    long budget = 0;
    if (max_new == nullptr || !jsonToInt(*max_new, budget) || budget < 1) {
        emitError(out, "submit needs integer \"max_new\" >= 1");
        return;
    }
    req.maxNewTokens = static_cast<size_t>(budget);
    if (const Json *stop = op.find("stop")) {
        if (!jsonToTokens(*stop, vocab, "stop", req.stopTokens, err)) {
            emitError(out, err);
            return;
        }
    }
    if (const Json *prio = op.find("priority")) {
        long p = 0;
        if (!jsonToInt(*prio, p)) {
            emitError(out, "\"priority\" must be an integer");
            return;
        }
        req.priority = static_cast<int>(p);
    }
    long deadline_ms = -1;
    if (const Json *dl = op.find("deadline_ms")) {
        if (!jsonToInt(*dl, deadline_ms) || deadline_ms < 0) {
            emitError(out, "\"deadline_ms\" must be an integer >= 0");
            return;
        }
    }
    if (const Json *pol = op.find("policy")) {
        if (!pol->isString()) {
            emitError(out, "\"policy\" must be a string");
            return;
        }
        const auto it = cfg_.policies.find(pol->asString());
        if (it == cfg_.policies.end()) {
            emitError(out,
                      "unknown policy \"" + pol->asString() + "\"");
            return;
        }
        it->second->apply(req);
    }
    if (!engine_->fitsPool(req.prompt.size(), req.maxNewTokens)) {
        emitError(out, "prompt + max_new can never fit the block pool");
        return;
    }

    // Count the request before the engine queues it: another thread's
    // cancel can retire it the moment it is queued, and a stats reader
    // must never see more finished than submitted.
    ++submitted_;
    const u64 id = engine_->submit(std::move(req.prompt),
                                   req.maxNewTokens,
                                   std::move(req.stopTokens),
                                   req.priority);
    if (deadline_ms >= 0) {
        deadlines_[id] = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(deadline_ms);
    }
    emitLine(out, Json::object({{"event", "accepted"},
                                {"id", id},
                                {"max_new", req.maxNewTokens}}));
    if (cfg_.autoDrain)
        drain(out);
}

void
Service::handleCancel(const Json &op, std::ostream &out)
{
    const Json *id_field = op.find("id");
    long id = 0;
    if (id_field == nullptr || !jsonToInt(*id_field, id) || id < 1) {
        emitError(out, "cancel needs integer \"id\" >= 1");
        return;
    }
    const bool ok = cancel(static_cast<u64>(id));
    emitLine(out, Json::object({{"event", "cancel"},
                                {"id", static_cast<u64>(id)},
                                {"ok", ok}}));
    // Surface the done (reason "cancelled") on this op boundary rather
    // than waiting for the next step.
    flushEvents(out);
}

void
Service::handleStep(const Json &op, std::ostream &out)
{
    long n = 1;
    if (const Json *nf = op.find("n")) {
        if (!jsonToInt(*nf, n) || n < 1) {
            emitError(out, "\"n\" must be an integer >= 1");
            return;
        }
    }
    for (long i = 0; i < n; ++i)
        stepAndEmit(out);
}

void
Service::checkDeadlines()
{
    if (deadlines_.empty())
        return;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = deadlines_.begin(); it != deadlines_.end();) {
        if (now < it->second) {
            ++it;
            continue;
        }
        // Expired: retire it wherever it is (queued or active).  A
        // false return means it already finished — nothing to do.
        cancelWithReason(it->first, "deadline");
        it = deadlines_.erase(it);
    }
}

bool
Service::stepAndEmit(std::ostream &out)
{
    // Deadlines go first so an expired queued request is never
    // admitted by the step it would have missed anyway.
    checkDeadlines();
    const bool worked = engine_->step();
    flushEvents(out);
    if (worked)
        emitQueued(out);
    return worked;
}

void
Service::drain(std::ostream &out)
{
    while (stepAndEmit(out)) {
    }
}

void
Service::flushEvents(std::ostream &out)
{
    // Snapshots first (engine lock), bookkeeping after — the service
    // never holds its own mutex across an engine call.
    for (const auto &p : engine_->progressSnapshot()) {
        if (admittedEmitted_.insert(p.id).second)
            emitLine(out, Json::object(
                              {{"event", "admitted"}, {"id", p.id}}));
        size_t &cursor = emittedTokens_[p.id];
        for (; cursor < p.generated.size(); ++cursor) {
            emitLine(out,
                     Json::object({{"event", "token"},
                                   {"id", p.id},
                                   {"index", cursor},
                                   {"token", p.generated[cursor]}}));
        }
    }
    const auto fins = engine_->finishedSnapshot(finishedCursor_);
    finishedCursor_ += fins.size();
    for (const FinishedRequest &f : fins) {
        // A request that finished within its admission step was never
        // seen active by a snapshot; emit its admitted here.  One
        // cancelled from the queue (admitStep 0) was never admitted.
        if (f.admitStep > 0 && admittedEmitted_.insert(f.id).second)
            emitLine(out, Json::object(
                              {{"event", "admitted"}, {"id", f.id}}));
        size_t &cursor = emittedTokens_[f.id];
        for (; cursor < f.generated.size(); ++cursor) {
            emitLine(out,
                     Json::object({{"event", "token"},
                                   {"id", f.id},
                                   {"index", cursor},
                                   {"token", f.generated[cursor]}}));
        }
        std::string reason = "length";
        if (f.cancelled) {
            reason = "cancelled";
            const MutexLock lock(mu_);
            const auto it = cancelReasons_.find(f.id);
            if (it != cancelReasons_.end()) {
                reason = it->second;
                cancelReasons_.erase(it);
            }
        } else if (f.stoppedByToken) {
            reason = "stop";
        }
        Json tokens = Json::array();
        for (int tok : f.generated)
            tokens.push(tok);
        emitLine(out, Json::object({{"event", "done"},
                                    {"id", f.id},
                                    {"reason", reason},
                                    {"n", f.generated.size()},
                                    {"tokens", std::move(tokens)}}));
        emittedTokens_.erase(f.id);
        queuedEmitted_.erase(f.id);
        admittedEmitted_.erase(f.id);
        deadlines_.erase(f.id);
    }
}

void
Service::emitQueued(std::ostream &out)
{
    for (u64 id : engine_->pendingIds()) {
        if (queuedEmitted_.insert(id).second)
            emitLine(out,
                     Json::object({{"event", "queued"}, {"id", id}}));
    }
}

void
Service::emitLine(std::ostream &out, const Json &event)
{
    out << event.dump() << '\n';
    out.flush(); // a client on a pipe must see events as they happen
}

void
Service::emitError(std::ostream &out, const std::string &message)
{
    emitLine(out, Json::object(
                      {{"event", "error"}, {"message", message}}));
}

bool
Service::cancel(u64 id)
{
    return cancelWithReason(id, "cancelled");
}

bool
Service::cancelWithReason(u64 id, const std::string &reason)
{
    // First recorded reason wins (a client cancel racing a deadline);
    // the engine call below arbitrates who actually retired it.
    bool inserted = false;
    {
        const MutexLock lock(mu_);
        inserted = cancelReasons_.emplace(id, reason).second;
    }
    const bool ok = engine_->cancel(id);
    if (!ok && inserted) {
        const MutexLock lock(mu_);
        cancelReasons_.erase(id);
    }
    return ok;
}

std::string
Service::statsLine() const
{
    const ServeMetrics m = engine_->metricsSnapshot();
    Json ev = Json::object({{"event", "stats"},
                            {"pending", engine_->pendingCount()},
                            {"active", engine_->activeCount()},
                            {"finished", engine_->finishedCount()},
                            {"steps", m.steps},
                            {"tokens_processed", m.tokensProcessed},
                            {"tokens_generated", m.tokensGenerated},
                            {"cancelled", m.requestsCancelled},
                            {"ttft_p50_ms", m.ttftMs(50.0)},
                            {"ttft_p99_ms", m.ttftMs(99.0)},
                            {"step_p50_ms", m.stepLatencyMs(50.0)},
                            {"step_p99_ms", m.stepLatencyMs(99.0)},
                            {"spec_drafted", m.specDrafted},
                            {"spec_accepted", m.specAccepted},
                            {"spec_accept_rate", m.specAcceptRate()}});
    const BlockPool *pool = engine_->blockPool();
    ev.set("pool_blocks_in_use", pool->blocksInUse());
    ev.set("pool_bytes_in_use", pool->bytesInUse());
    return ev.dump();
}

} // namespace serve
} // namespace olive
