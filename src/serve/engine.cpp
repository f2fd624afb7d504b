#include "engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace olive {
namespace serve {

namespace {

/**
 * Rows of @p cand's prompt that a cache of @p donor's prompt can seed:
 * the longest common tokenized prefix, capped so the candidate still
 * computes at least its final prompt token itself (the step that emits
 * its first generated token must run, and it appends that row).
 */
size_t
shareablePrefixRows(const std::vector<int> &donor,
                    const std::vector<int> &cand)
{
    const size_t cap = std::min(donor.size(), cand.size() - 1);
    size_t n = 0;
    while (n < cap && donor[n] == cand[n])
        ++n;
    return n;
}

} // namespace

double
ServeMetrics::tokensPerSecond() const
{
    return totalSeconds > 0.0
               ? static_cast<double>(tokensProcessed) / totalSeconds
               : 0.0;
}

double
ServeMetrics::generatedPerSecond() const
{
    return totalSeconds > 0.0
               ? static_cast<double>(tokensGenerated) / totalSeconds
               : 0.0;
}

double
ServeMetrics::stepLatencyMs(double p) const
{
    if (stepSeconds.empty())
        return 0.0;
    return stats::percentile(stepSeconds, p) * 1e3;
}

double
ServeMetrics::ttftMs(double p) const
{
    if (ttftSeconds.empty())
        return 0.0;
    return stats::percentile(ttftSeconds, p) * 1e3;
}

double
ServeMetrics::specAcceptRate() const
{
    return specDrafted > 0
               ? static_cast<double>(specAccepted) /
                     static_cast<double>(specDrafted)
               : 0.0;
}

ServeEngine::ServeEngine(const eval::LmModel &model, ServeConfig config)
    : model_(&model), cfg_(std::move(config)),
      scheme_(makeKvScheme(cfg_.cacheFormat))
{
    OLIVE_ASSERT(model.vocab > 0 && model.backbone.causal,
                 "serving needs a causal LM");
    OLIVE_ASSERT(cfg_.maxBatchTokens >= 1, "token budget must be >= 1");
    OLIVE_ASSERT(cfg_.maxActiveRequests >= 1, "batch width must be >= 1");
    OLIVE_ASSERT(cfg_.prefillChunk >= 1, "prefill chunk must be >= 1");
    OLIVE_ASSERT(cfg_.blockRows >= 1, "blocks must hold >= 1 row");
    pool_ = std::make_unique<BlockPool>(*scheme_, model.backbone.dModel,
                                        cfg_.blockRows, cfg_.poolBlocks);
    dcache_ =
        std::make_unique<DecodedBlockCache>(*pool_, cfg_.decodedCacheBlocks);
    // A block whose refcount hits zero is about to be recycled through
    // the free list; its decoded entry must go with it or a later reuse
    // of the id would serve stale rows.
    pool_->setReleaseHook(
        [d = dcache_.get()](u32 id) { d->invalidate(id); });
    if (cfg_.speculate) {
        OLIVE_ASSERT(cfg_.draftLen >= 1,
                     "speculative decode needs draftLen >= 1");
        if (cfg_.proposer != nullptr) {
            proposer_ = cfg_.proposer;
        } else {
            ownedProposer_ = std::make_unique<NgramProposer>();
            proposer_ = ownedProposer_.get();
        }
    }
}

ServeEngine::~ServeEngine()
{
    // Retained prefixes hold pool references outside any DecodeState;
    // drop them here, while pool_ (a later-destroyed member) is alive.
    const MutexLock lock(mu_);
    while (!retained_.empty())
        evictOldestRetained();
}

u64
ServeEngine::submit(std::vector<int> prompt, size_t max_new_tokens,
                    std::vector<int> stop_tokens, int priority)
{
    OLIVE_ASSERT(!prompt.empty(), "request prompt must be non-empty");
    OLIVE_ASSERT(max_new_tokens >= 1, "request must generate >= 1 token");
    for (int tok : prompt)
        OLIVE_ASSERT(tok >= 0 && static_cast<size_t>(tok) < model_->vocab,
                     "prompt token out of range");
    for (int tok : stop_tokens)
        OLIVE_ASSERT(tok >= 0 && static_cast<size_t>(tok) < model_->vocab,
                     "stop token out of range");
    const MutexLock lock(mu_);
    ActiveRequest a;
    const u64 id = nextId_++;
    a.req.id = id;
    a.req.prompt = std::move(prompt);
    a.req.maxNewTokens = max_new_tokens;
    a.req.stopTokens = std::move(stop_tokens);
    a.req.priority = priority;
    a.submitStep = metrics_.steps;
    a.submitTime = std::chrono::steady_clock::now();
    // Descending priority, FIFO within a priority: insert before the
    // first strictly lower-priority entry.  All-default queues reduce
    // to push_back — the original FIFO schedule, bit for bit.
    auto pos = pending_.begin();
    while (pos != pending_.end() && pos->req.priority >= priority)
        ++pos;
    pending_.insert(pos, std::move(a));
    return id;
}

bool
ServeEngine::cancel(u64 id)
{
    const MutexLock lock(mu_);
    const auto retire = [&](ActiveRequest &a, bool was_active) {
        FinishedRequest f;
        f.id = a.req.id;
        // Capture the cache footprint before the ActiveRequest (and
        // with it the DecodeState) is destroyed below.
        f.cacheEncodedBytes = a.state.encodedBytes();
        f.cacheFp32Bytes = a.state.fp32Bytes();
        f.prompt = std::move(a.req.prompt);
        f.generated = std::move(a.generated);
        f.submitStep = a.submitStep;
        f.admitStep = a.admitStep;
        f.firstTokenStep = a.firstTokenStep;
        f.finishStep = metrics_.steps;
        f.ttftSeconds = a.ttftSeconds;
        f.specDrafted = a.specDrafted;
        f.specAccepted = a.specAccepted;
        f.sharedPrefixRows = a.sharedPrefixRows;
        f.cancelled = true;
        if (was_active)
            committedBlocks_ -= a.reservedBlocks;
        metrics_.requestsCancelled += 1;
        finished_.push_back(std::move(f));
    };
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->req.id != id)
            continue;
        retire(*it, /*was_active=*/false);
        pending_.erase(it);
        return true;
    }
    for (auto it = active_.begin(); it != active_.end(); ++it) {
        if (it->req.id != id)
            continue;
        // Whatever prefix the request had cached is still valid K/V of
        // its tokens — retain it (if configured) before the retire
        // below moves the token vectors out.
        retainPrefix(*it);
        retire(*it, /*was_active=*/true);
        // Erasing destroys the DecodeState: its caches drop their
        // block references, and zero-refcount blocks recycle through
        // the pool free list (whose release hook invalidates the
        // decoded working set) — all inside this critical section,
        // exactly like end-of-step eviction.
        active_.erase(it);
        return true;
    }
    return false;
}

size_t
ServeEngine::worstCaseBlocks(size_t prompt_len,
                             size_t max_new_tokens) const
{
    // The cache never holds more than prompt + maxNew - 1 rows per
    // layer (the final generated token is never fed back).  Reserving
    // the full amount — ignoring any sharing discount — keeps the
    // capacity argument airtight: every block a request references,
    // shared or owned, lies within its own block table, whose length
    // this bounds; so sum(reservations) >= blocks in use always.
    const size_t rows = prompt_len + max_new_tokens - 1;
    const size_t per_layer = (rows + cfg_.blockRows - 1) / cfg_.blockRows;
    return per_layer * model_->backbone.layers.size();
}

bool
ServeEngine::fitsPool(size_t prompt_len, size_t max_new_tokens) const
{
    return cfg_.poolBlocks == 0 ||
           worstCaseBlocks(prompt_len, max_new_tokens) <= cfg_.poolBlocks;
}

void
ServeEngine::retainPrefix(ActiveRequest &a)
{
    if (!cfg_.retainPrefixes || !cfg_.prefixSharing)
        return;
    // Cache length == position at every retire point (speculative
    // rollback restores it before the step ends); a sub-block prefix
    // would share nothing, so it is not worth a retention entry.
    const size_t rows = a.state.position;
    if (rows < cfg_.blockRows)
        return;
    RetainedPrefix e;
    e.rows = rows;
    e.tokens = a.req.prompt;
    for (int tok : a.generated) {
        if (e.tokens.size() >= rows)
            break;
        e.tokens.push_back(tok);
    }
    e.tokens.resize(std::min(e.tokens.size(), rows));
    e.tables.reserve(a.state.layers.size());
    for (const auto &layer : a.state.layers) {
        const auto &paged = static_cast<const PagedKvCache &>(*layer);
        std::vector<u32> t;
        t.reserve(paged.blockCount());
        for (size_t b = 0; b < paged.blockCount(); ++b)
            t.push_back(paged.blockId(b));
        e.blocks += t.size();
        e.tables.push_back(std::move(t));
    }
    // The retention budget evicts oldest-first; an entry that would
    // not fit even alone is simply not retained.
    if (cfg_.retainBlocks > 0) {
        if (e.blocks > cfg_.retainBlocks)
            return;
        while (retainedHeldBlocks_ + e.blocks > cfg_.retainBlocks)
            evictOldestRetained();
    }
    // References go on before the retiring DecodeState drops its own —
    // the blocks never hit refcount 0, so their payload (and any
    // decoded working-set entries) survives untouched.
    for (const auto &t : e.tables)
        for (u32 id : t)
            pool_->retainRetained(id);
    retainedHeldBlocks_ += e.blocks;
    metrics_.retentionStored += 1;
    metrics_.retainedBlocks = pool_->retainedBlocks();
    metrics_.retainedPeakBytes =
        std::max(metrics_.retainedPeakBytes, pool_->retainedBytes());
    retained_.push_back(std::move(e));
}

void
ServeEngine::evictOldestRetained()
{
    OLIVE_ASSERT(!retained_.empty(), "no retained prefix to evict");
    const RetainedPrefix &e = retained_.front();
    for (const auto &t : e.tables)
        for (u32 id : t)
            pool_->releaseRetained(id);
    retainedHeldBlocks_ -= e.blocks;
    metrics_.retentionEvictions += 1;
    metrics_.retainedBlocks = pool_->retainedBlocks();
    retained_.pop_front();
}

/**
 * FIFO admission.  Each candidate passes two gates
 * before it is admitted, and admission stops at the first candidate
 * that fails one (strict FIFO, so the schedule is a pure function of
 * queue state):
 *
 *  1. Warm-donor deferral (prefixSharing): if an active request's
 *     prompt shares a longer tokenized prefix than any donor has cached
 *     SO FAR, admitting now would permanently forgo the difference —
 *     the candidate waits until the best donor's cache covers it.
 *     Donors always progress, so deferral always terminates (in the
 *     worst case the donor finishes, leaves the batch, and the
 *     candidate admits unshared).
 *  2. Capacity reservation (poolBlocks > 0): the candidate's
 *     worst-case block count must fit beside the reservations of all
 *     active requests PLUS the blocks the retention LRU holds (those
 *     references live outside the reservation sum), so
 *     BlockPool::allocate can never fail mid-step.  Retained entries
 *     are evicted, LRU first, before the gate ever stalls a candidate
 *     — retention may only save work, never delay admission.
 *
 * An admitted candidate with a shareable cached prefix seeds its block
 * tables from the donor: full blocks by reference, the partial
 * boundary block by copy-on-write, and its decode position skips past
 * the seeded rows (bit-exact — causal K/V rows are pure functions of
 * the tokens at or before them, and activation quantization is
 * per-token).  Retained prefixes of retired requests compete with live
 * donors on rows covered; they need no deferral (their rows are all
 * cached already), and a tie prefers the live donor.
 */
void
ServeEngine::admit()
{
    while (!pending_.empty() && active_.size() < cfg_.maxActiveRequests) {
        ActiveRequest &cand = pending_.front();
        size_t share_rows = 0;
        size_t donor_idx = active_.size();
        auto retained_it = retained_.end();
        size_t retained_rows = 0;
        if (cfg_.prefixSharing) {
            size_t best_future = 0;
            for (size_t i = 0; i < active_.size(); ++i) {
                const size_t lcp = shareablePrefixRows(
                    active_[i].req.prompt, cand.req.prompt);
                // Sub-block prefixes would share nothing (pure copy);
                // only a full block of rows is worth waiting for.
                if (lcp < cfg_.blockRows)
                    continue;
                best_future = std::max(best_future, lcp);
                const size_t now =
                    std::min(lcp, active_[i].state.position);
                if (now > share_rows) {
                    share_rows = now;
                    donor_idx = i;
                }
            }
            for (auto it = retained_.begin(); it != retained_.end();
                 ++it) {
                const size_t cap =
                    std::min(it->rows, cand.req.prompt.size() - 1);
                size_t lcp = 0;
                while (lcp < cap &&
                       it->tokens[lcp] == cand.req.prompt[lcp])
                    ++lcp;
                if (lcp < cfg_.blockRows)
                    continue;
                if (lcp > share_rows && lcp > retained_rows) {
                    retained_rows = lcp;
                    retained_it = it;
                }
            }
            if (best_future > std::max(share_rows, retained_rows))
                break; // gate 1: wait for the warm donor
            // Touch the matched entry to most-recently-used now, so
            // the capacity gate below evicts it last.
            if (retained_it != retained_.end())
                retained_.splice(retained_.end(), retained_,
                                 retained_it);
        }
        if (cfg_.poolBlocks > 0) {
            const size_t need = worstCaseBlocks(cand.req.prompt.size(),
                                                cand.req.maxNewTokens);
            // Evict retained prefixes before stalling: each eviction
            // releases references outside the reservation sum, so the
            // gate below can only get easier.  The matched entry sits
            // at MRU; losing it (last resort) just forfeits the share.
            while (committedBlocks_ + retainedHeldBlocks_ + need >
                       cfg_.poolBlocks &&
                   !retained_.empty()) {
                if (retained_it == retained_.begin()) {
                    retained_it = retained_.end();
                    retained_rows = 0;
                }
                evictOldestRetained();
            }
            OLIVE_ASSERT(!active_.empty() || need <= cfg_.poolBlocks,
                         "block pool is smaller than a single request's "
                         "worst-case cache");
            if (committedBlocks_ + retainedHeldBlocks_ + need >
                cfg_.poolBlocks)
                break; // gate 2: wait for evictions to release blocks
        }

        ActiveRequest a = std::move(pending_.front());
        pending_.pop_front();
        a.admitStep = metrics_.steps + 1; // the step about to run
        a.state =
            makePagedDecodeState(model_->backbone, *pool_, dcache_.get());
        a.reservedBlocks =
            worstCaseBlocks(a.req.prompt.size(), a.req.maxNewTokens);
        committedBlocks_ += a.reservedBlocks;
        if (retained_it != retained_.end()) {
            // Seed from the retained prefix of a retired request:
            // same mechanics and bit-exactness argument as the
            // live-donor path, minus any live donor.
            const RetainedPrefix &e = *retained_it;
            for (size_t li = 0; li < a.state.layers.size(); ++li) {
                static_cast<PagedKvCache &>(*a.state.layers[li])
                    .shareFromTable(e.tables[li], e.rows, retained_rows);
            }
            a.state.position = retained_rows;
            a.sharedPrefixRows = retained_rows;
            metrics_.sharedPrefillRowsSkipped += retained_rows;
            metrics_.retentionHits += 1;
            metrics_.retentionSharedRows += retained_rows;
        } else if (share_rows > 0) {
            const DecodeState &donor = active_[donor_idx].state;
            for (size_t li = 0; li < a.state.layers.size(); ++li) {
                static_cast<PagedKvCache &>(*a.state.layers[li])
                    .shareFrom(static_cast<const PagedKvCache &>(
                                   *donor.layers[li]),
                               share_rows);
            }
            a.state.position = share_rows;
            a.sharedPrefixRows = share_rows;
            metrics_.sharedPrefillRowsSkipped += share_rows;
        }
        active_.push_back(std::move(a));
    }
}

size_t
ServeEngine::runRequest(ActiveRequest &a, size_t ntok, u64 step_no) const
{
    const size_t d = model_->backbone.dModel;
    const std::vector<int> &prompt = a.req.prompt;
    size_t done = 0;
    const auto embedInto = [&](int tok, std::span<float> row) {
        const auto trow = model_->embedding.row(static_cast<size_t>(tok));
        std::copy(trow.begin(), trow.end(), row.begin());
    };
    // Extend the generation greedily with @p next; returns true when
    // the request finished.  Generation ends at the budget or at any
    // stop token — the latter makes request lengths data-dependent, so
    // eviction timing is shaped by the model's own outputs.
    const auto extend = [&](int next) {
        a.generated.push_back(next);
        if (a.firstTokenStep == 0) {
            a.firstTokenStep = step_no;
            const std::chrono::duration<double> ttft =
                std::chrono::steady_clock::now() - a.submitTime;
            a.ttftSeconds = ttft.count();
        }
        if (std::find(a.req.stopTokens.begin(), a.req.stopTokens.end(),
                      next) != a.req.stopTokens.end()) {
            a.done = true;
            a.stoppedByToken = true;
        } else if (a.generated.size() >= a.req.maxNewTokens) {
            a.done = true;
        }
        return a.done;
    };
    // One forwardChunk call per turn.  Prefill feeds a chunk of prompt
    // rows; decode feeds the last generated token plus whatever the
    // proposer drafts, so plain decode is the zero-draft case of the
    // speculative accept/rollback below.
    while (done < ntok) {
        const size_t pos = a.state.position;
        std::vector<int> feed;
        size_t k = 0; // drafted rows behind the feed token
        if (pos < prompt.size()) {
            const size_t n = std::min(
                {ntok - done, prompt.size() - pos, cfg_.prefillChunk});
            feed.assign(prompt.begin() + static_cast<std::ptrdiff_t>(pos),
                        prompt.begin() +
                            static_cast<std::ptrdiff_t>(pos + n));
        } else {
            // Decode-phase invariant: position = prompt + generated - 1,
            // so the newest generated token is the one not yet fed.
            feed.push_back(a.generated.back());
            // Speculative decode: draft likely continuations from the
            // request's own history and verify them in the same call.
            // Row i's argmax is the TRUE next token whenever rows
            // [0, i] were fed true stream tokens, so greedy
            // accept/reject reproduces plain decode bit-for-bit: the
            // proposer only decides how many tokens this turn
            // advances, never which ones.
            if (cfg_.speculate && ntok - done >= 2 &&
                a.generated.size() + 1 < a.req.maxNewTokens) {
                std::vector<int> history(prompt);
                history.insert(history.end(), a.generated.begin(),
                               a.generated.end());
                const size_t cap =
                    std::min({ntok - done - 1, cfg_.draftLen,
                              a.req.maxNewTokens - a.generated.size() - 1});
                std::vector<int> drafts = proposer_->propose(history, cap);
                if (drafts.size() > cap)
                    drafts.resize(cap); // a proposer may over-draft; clamp
                k = drafts.size();
                feed.insert(feed.end(), drafts.begin(), drafts.end());
            }
        }
        const size_t m = feed.size();
        Tensor rows({m, d});
        for (size_t i = 0; i < m; ++i)
            embedInto(feed[i], rows.row(i));
        const Tensor h =
            model_->backbone.forwardChunk(rows, a.state, cfg_.actScheme);
        done += m; // every verify row costs full compute
        if (pos + m < prompt.size())
            continue; // still mid-prefill: no logits needed yet

        // Rows [m-1-k, m) yield tokens: the final prompt row of a
        // prefill chunk, or the feed row and every draft row of a
        // decode turn.  Rows are independent in matmulTransB, so each
        // logits row is bit-identical to a (1, d) projection.
        const Tensor *tail = &h;
        Tensor last;
        if (m - 1 - k > 0) {
            last = Tensor({1, d});
            std::copy(h.row(m - 1).begin(), h.row(m - 1).end(),
                      last.row(0).begin());
            tail = &last;
        }
        const Tensor lg = model_->logitsFromHidden(*tail);
        a.specDrafted += k;
        size_t kept = 1; // row 0's feed is always a true token
        for (size_t i = 0; i <= k; ++i) {
            const int next = ops::argmaxRow(lg.row(i));
            const bool matched = i < k && next == feed[i + 1];
            if (matched)
                ++a.specAccepted;
            if (extend(next) || !matched)
                break;
            ++kept; // row i+1 was fed the now-confirmed draft
        }
        // Roll back the rows fed with rejected (or post-stop) drafts,
        // restoring cache length == position; the truncated rows live
        // in exclusively owned tail blocks (every shareable prefix row
        // precedes them), so no other request can be affected.
        if (kept < k + 1) {
            const size_t new_len = pos + kept;
            for (auto &layer : a.state.layers)
                layer->truncate(new_len);
            a.state.position = new_len;
        }
        // Autoregression: the token just produced is the next turn's
        // input, so a request generates in at most one turn per step.
        break;
    }
    return done;
}

bool
ServeEngine::step()
{
    // The whole step is one engine critical section; snapshot pollers
    // on other threads serialize against step boundaries.  Lock
    // hierarchy: mu_ is taken first, the pool and decoded-cache
    // mutexes nest inside (allocate/retain/release, hook-driven
    // invalidation), never the reverse.
    const MutexLock lock(mu_);
    admit();
    if (active_.empty())
        return false;
    const auto t0 = std::chrono::steady_clock::now();
    const u64 step_no = ++metrics_.steps;

    // Budgeting pass 1: one token each, FIFO, while budget lasts —
    // decode latency fairness.  Pass 2: leftover budget tops up
    // prefill-phase requests (chunked prefill), never past the token
    // that produces their first generation.
    std::vector<size_t> quota(active_.size(), 0);
    size_t budget = cfg_.maxBatchTokens;
    for (size_t i = 0; i < active_.size() && budget > 0; ++i) {
        quota[i] = 1;
        --budget;
    }
    for (size_t i = 0; i < active_.size() && budget > 0; ++i) {
        const ActiveRequest &a = active_[i];
        if (quota[i] == 0 || a.state.position >= a.req.prompt.size())
            continue;
        const size_t remaining = a.req.prompt.size() - a.state.position;
        const size_t extra = std::min(budget, remaining - quota[i]);
        quota[i] += extra;
        budget -= extra;
    }
    // Pass 3 (speculative decode only): grant decode-phase requests up
    // to draftLen verify rows on top of their guaranteed token.  Every
    // verify row costs the same compute as a real token, so it draws
    // from the same budget; a request that cannot emit 2+ more tokens
    // gets nothing (its verify rows could never be kept).
    if (cfg_.speculate) {
        for (size_t i = 0; i < active_.size() && budget > 0; ++i) {
            const ActiveRequest &a = active_[i];
            if (quota[i] == 0 || a.state.position < a.req.prompt.size())
                continue;
            if (a.generated.size() + 1 >= a.req.maxNewTokens)
                continue;
            const size_t extra = std::min(
                {budget, cfg_.draftLen,
                 a.req.maxNewTokens - a.generated.size() - 1});
            quota[i] += extra;
            budget -= extra;
        }
    }

    // Execute: requests are independent, so the batch parallelizes
    // deterministically (forwardChunk's inner parallel regions run
    // inline on the worker).
    std::vector<size_t> processed(active_.size(), 0);
    std::vector<size_t> gen_before(active_.size(), 0);
    std::vector<u64> drafted_before(active_.size(), 0);
    std::vector<u64> accepted_before(active_.size(), 0);
    for (size_t i = 0; i < active_.size(); ++i) {
        gen_before[i] = active_[i].generated.size();
        drafted_before[i] = active_[i].specDrafted;
        accepted_before[i] = active_[i].specAccepted;
    }
    // The kernel is annotated as running under mu_: only the issuing
    // thread formally holds the lock, but workers executing chunks are
    // synchronized with it by the pool's job handoff (no other thread
    // can hold mu_ while the region runs), so extending the critical
    // section over them is sound — the stress tier runs this under
    // TSan to back the claim up.
    par::parallelFor(0, active_.size(), 1,
                     [&](size_t b, size_t e) OLIVE_REQUIRES(mu_) {
                         for (size_t i = b; i < e; ++i)
                             processed[i] =
                                 runRequest(active_[i], quota[i], step_no);
                     });

    // Accounting (before eviction, so a finishing request's cache
    // counts toward this step's footprint).  The encoded footprint is
    // pool-level — blocks in use x block bytes — so shared blocks are
    // counted once, not once per referencing request.
    size_t fp32 = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
        metrics_.tokensProcessed += processed[i];
        metrics_.tokensGenerated +=
            active_[i].generated.size() - gen_before[i];
        metrics_.specDrafted += active_[i].specDrafted - drafted_before[i];
        metrics_.specAccepted +=
            active_[i].specAccepted - accepted_before[i];
        if (active_[i].firstTokenStep == step_no)
            metrics_.ttftSeconds.push_back(
                static_cast<float>(active_[i].ttftSeconds));
        fp32 += active_[i].state.fp32Bytes();
    }
    metrics_.peakEncodedCacheBytes =
        std::max(metrics_.peakEncodedCacheBytes, pool_->bytesInUse());
    metrics_.peakSharedSavedBytes =
        std::max(metrics_.peakSharedSavedBytes, pool_->sharedSavedBytes());
    metrics_.cowCopyRows = pool_->payloadCopyRows();
    metrics_.retainedBlocks = pool_->retainedBlocks();
    metrics_.retainedPeakBytes =
        std::max(metrics_.retainedPeakBytes, pool_->retainedBytes());
    // Cumulative counters sampled, not accumulated — the cache already
    // sums across steps.
    metrics_.decodedCacheHits = dcache_->hits();
    metrics_.decodedCacheMisses = dcache_->misses();
    metrics_.decodedCacheEvictions = dcache_->evictions();
    metrics_.decodedCacheRows = dcache_->decodedRows();
    metrics_.decodedCachePeakBytes = dcache_->peakBytes();
    metrics_.peakFp32CacheBytes =
        std::max(metrics_.peakFp32CacheBytes, fp32);

    // Evict finished requests, preserving FIFO order of the rest.
    // Destroying a request's caches releases its blocks to the
    // free list — refcount decrements only, no payload copies.
    std::vector<ActiveRequest> still;
    still.reserve(active_.size());
    for (ActiveRequest &a : active_) {
        if (!a.done) {
            still.push_back(std::move(a));
            continue;
        }
        retainPrefix(a); // before the moves below consume its tokens
        FinishedRequest f;
        f.id = a.req.id;
        f.prompt = std::move(a.req.prompt);
        f.generated = std::move(a.generated);
        f.submitStep = a.submitStep;
        f.admitStep = a.admitStep;
        f.firstTokenStep = a.firstTokenStep;
        f.finishStep = step_no;
        f.ttftSeconds = a.ttftSeconds;
        f.specDrafted = a.specDrafted;
        f.specAccepted = a.specAccepted;
        f.cacheEncodedBytes = a.state.encodedBytes();
        f.cacheFp32Bytes = a.state.fp32Bytes();
        f.sharedPrefixRows = a.sharedPrefixRows;
        f.stoppedByToken = a.stoppedByToken;
        committedBlocks_ -= a.reservedBlocks;
        finished_.push_back(std::move(f));
    }
    active_ = std::move(still);

    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    metrics_.stepSeconds.push_back(static_cast<float>(dt.count()));
    metrics_.totalSeconds += dt.count();
    return true;
}

size_t
ServeEngine::runToCompletion(size_t max_steps)
{
    size_t n = 0;
    while (step()) {
        ++n;
        OLIVE_ASSERT(max_steps == 0 || n <= max_steps,
                     "serving did not drain within the step limit");
    }
    return n;
}

size_t
ServeEngine::pendingCount() const
{
    const MutexLock lock(mu_);
    return pending_.size();
}

size_t
ServeEngine::activeCount() const
{
    const MutexLock lock(mu_);
    return active_.size();
}

size_t
ServeEngine::finishedCount() const
{
    const MutexLock lock(mu_);
    return finished_.size();
}

ServeMetrics
ServeEngine::metricsSnapshot() const
{
    const MutexLock lock(mu_);
    return metrics_;
}

std::vector<u64>
ServeEngine::activeIds() const
{
    const MutexLock lock(mu_);
    std::vector<u64> ids;
    ids.reserve(active_.size());
    for (const ActiveRequest &a : active_)
        ids.push_back(a.req.id);
    return ids;
}

std::vector<u64>
ServeEngine::pendingIds() const
{
    const MutexLock lock(mu_);
    std::vector<u64> ids;
    ids.reserve(pending_.size());
    for (const ActiveRequest &a : pending_)
        ids.push_back(a.req.id);
    return ids;
}

std::vector<FinishedRequest>
ServeEngine::finishedSnapshot(size_t from) const
{
    const MutexLock lock(mu_);
    std::vector<FinishedRequest> out;
    for (size_t i = from; i < finished_.size(); ++i)
        out.push_back(finished_[i]);
    return out;
}

std::vector<ServeEngine::ActiveProgress>
ServeEngine::progressSnapshot() const
{
    const MutexLock lock(mu_);
    std::vector<ActiveProgress> out;
    out.reserve(active_.size());
    for (const ActiveRequest &a : active_) {
        ActiveProgress p;
        p.id = a.req.id;
        p.promptRows = a.req.prompt.size();
        p.position = a.state.position;
        p.generated = a.generated;
        out.push_back(std::move(p));
    }
    return out;
}

size_t
ServeEngine::retainedBlockCount() const
{
    const MutexLock lock(mu_);
    return retainedHeldBlocks_;
}

void
ServeEngine::clearRetainedPrefixes()
{
    const MutexLock lock(mu_);
    while (!retained_.empty())
        evictOldestRetained();
}

const DecodeState *
ServeEngine::activeState(u64 id) const
{
    const MutexLock lock(mu_);
    for (const ActiveRequest &a : active_) {
        if (a.req.id == id)
            return &a.state;
    }
    return nullptr;
}

} // namespace serve
} // namespace olive
