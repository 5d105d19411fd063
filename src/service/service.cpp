#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/mpmc_queue.hpp"
#include "common/trace.hpp"

namespace bitwave::service {

namespace detail {

using Clock = std::chrono::steady_clock;

/**
 * Per-submission future state. The lock order everywhere in this file
 * is ServiceShared::jobs_mutex -> Job::mutex -> TicketState::mutex;
 * client-facing reads (status / wait / result) take only the innermost
 * lock.
 */
struct TicketState
{
    MutexCap mutex;
    CondVarCap cv;
    TicketStatus status GUARDED_BY(mutex) = TicketStatus::kQueued;
    eval::ScenarioResult result GUARDED_BY(mutex);
    std::exception_ptr error GUARDED_BY(mutex);
    ErrorKind error_kind GUARDED_BY(mutex) = ErrorKind::kInternal;
    Clock::time_point submitted;  ///< Immutable after submit().
    Clock::time_point completed GUARDED_BY(mutex);
    bool has_deadline = false;    ///< Immutable after submit().
    Clock::time_point deadline;   ///< Immutable after submit().
    bool deduped = false;         ///< Immutable after submit().
};

/// Cooperative abort shared by the jobs of one runner batch: live_jobs
/// counts jobs that still have subscribers; when the last one detaches,
/// `cancel` flips and the runner ends every unfinished job at its next
/// layer range. The watchdog flips the same flag when the batch outruns
/// its stall budget (and marks watchdog_fired so the abort classifies
/// as transient).
struct BatchControl
{
    std::atomic<bool> cancel{false};
    std::atomic<int> live_jobs{0};
    std::atomic<bool> watchdog_fired{false};
    /// Published by `running` (release/acquire): the watchdog only reads
    /// `started` after observing running == true.
    Clock::time_point started;
    std::atomic<bool> running{false};
};

/// One deduplicated evaluation: the unit the queue and batcher move.
/// N submissions with the same scenario fingerprint share one Job.
struct Job
{
    std::uint64_t fingerprint = 0;
    eval::Scenario scenario;
    std::uint64_t seed = 0;  ///< Pinned standalone seed (batch-invariant).
    /// Trace-clock phase stamps. submit_ns is written once at
    /// submit(); pop_ns by the one dispatcher that popped the job.
    std::uint64_t submit_ns = 0;
    std::uint64_t pop_ns = 0;

    MutexCap mutex;  ///< Guards everything below.
    std::vector<std::shared_ptr<TicketState>> subscribers GUARDED_BY(mutex);
    /// Every subscriber detached pre-completion.
    bool abandoned GUARDED_BY(mutex) = false;
    bool done GUARDED_BY(mutex) = false;
    /// Non-null while evaluating.
    BatchControl *batch GUARDED_BY(mutex) = nullptr;
    TicketStatus outcome GUARDED_BY(mutex) = TicketStatus::kDone;
    /// Valid when done && outcome == kDone.
    eval::ScenarioResult result GUARDED_BY(mutex);
    std::exception_ptr error GUARDED_BY(mutex);
};

/// Quarantine record of a terminally failed fingerprint: identical
/// resubmissions fail fast with the recorded payload until expiry.
struct QuarantineEntry
{
    Clock::time_point expires;
    std::exception_ptr error;
    ErrorKind kind = ErrorKind::kInternal;
};

/// Per-instance counter that mirrors every bump into a process-wide
/// registry counter: stats() keeps reading the instance-local value
/// (fresh services start at zero), while metrics::snapshot() sees the
/// aggregate service.* counters across all instances. Call sites keep
/// the plain `counter++` / `counter += n` / `counter.load()` shape of
/// the old raw atomics.
struct MirroredCounter
{
    std::atomic<std::uint64_t> local{0};
    metrics::Counter *mirror = nullptr;

    void operator++(int)
    {
        local.fetch_add(1, std::memory_order_relaxed);
        if (mirror != nullptr) {
            mirror->inc();
        }
    }

    void operator+=(std::uint64_t n)
    {
        local.fetch_add(n, std::memory_order_relaxed);
        if (mirror != nullptr) {
            mirror->inc(n);
        }
    }

    /// Named value() (not load()) on purpose: this is a plain counter
    /// read, not a std::atomic access, and the repo lint requires every
    /// atomic load to spell its memory order.
    std::uint64_t value() const
    {
        return local.load(std::memory_order_relaxed);
    }
};

struct ServiceShared
{
    explicit ServiceShared(std::size_t capacity) : queue(capacity)
    {
        submitted.mirror = &metrics::counter("service.submitted");
        dedup_hits.mirror = &metrics::counter("service.dedup_hits");
        completed.mirror = &metrics::counter("service.completed");
        failed.mirror = &metrics::counter("service.failed");
        rejected.mirror = &metrics::counter("service.rejected");
        shed.mirror = &metrics::counter("service.shed");
        cancelled.mirror = &metrics::counter("service.cancelled");
        deadline_expired.mirror =
            &metrics::counter("service.deadline_expired");
        shutdown_discarded.mirror =
            &metrics::counter("service.shutdown_discarded");
        batches.mirror = &metrics::counter("service.batches");
        batched_jobs.mirror = &metrics::counter("service.batched_jobs");
        steals.mirror = &metrics::counter("service.steals");
        chunks.mirror = &metrics::counter("service.chunks");
        retries.mirror = &metrics::counter("service.retries");
        quarantined.mirror = &metrics::counter("service.quarantined");
        quarantine_hits.mirror =
            &metrics::counter("service.quarantine_hits");
        watchdog_cancels.mirror =
            &metrics::counter("service.watchdog_cancels");
    }

    MpmcQueue<std::shared_ptr<Job>> queue;
    std::atomic<bool> abort{false};  ///< shutdown(kAbort) in progress.

    MutexCap jobs_mutex;  ///< Guards in_flight/active_batches/quarantine.
    /// Dedup index: fingerprint -> the Job new submissions attach to.
    /// Entries leave the map the moment their job completes or is
    /// abandoned, so a hit is always attachable.
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>>
        in_flight GUARDED_BY(jobs_mutex);
    std::vector<BatchControl *> active_batches GUARDED_BY(jobs_mutex);
    std::unordered_map<std::uint64_t, QuarantineEntry>
        quarantine GUARDED_BY(jobs_mutex);

    /// Watchdog parking: the thread sleeps on the cv and wakes to scan
    /// active_batches; shutdown sets stop and notifies.
    MutexCap watchdog_mutex;
    CondVarCap watchdog_cv;
    bool watchdog_stop GUARDED_BY(watchdog_mutex) = false;

    /// Sliding window of the last <= 32 evaluation-attempt outcomes
    /// (bit = failure), the input to the health state.
    MutexCap health_mutex;
    std::uint32_t health_window GUARDED_BY(health_mutex) = 0;
    int health_count GUARDED_BY(health_mutex) = 0;
    std::atomic<int> health{static_cast<int>(HealthState::kHealthy)};

    MirroredCounter submitted;
    MirroredCounter dedup_hits;
    MirroredCounter completed;
    MirroredCounter failed;
    MirroredCounter rejected;
    MirroredCounter shed;
    MirroredCounter cancelled;
    MirroredCounter deadline_expired;
    MirroredCounter shutdown_discarded;
    MirroredCounter batches;
    MirroredCounter batched_jobs;
    MirroredCounter steals;
    MirroredCounter chunks;
    MirroredCounter retries;
    MirroredCounter quarantined;
    MirroredCounter quarantine_hits;
    MirroredCounter watchdog_cancels;

    /// Per-phase latency histograms (ungated: always recorded so
    /// stats() is populated without BITWAVE_METRICS), plus gated
    /// registry mirrors for Prometheus/JSON export.
    metrics::Histogram phase_queue{/*gated=*/false};
    metrics::Histogram phase_batch{/*gated=*/false};
    metrics::Histogram phase_compute{/*gated=*/false};
    metrics::Histogram &mirror_queue =
        metrics::histogram("service.queue_wait_ns");
    metrics::Histogram &mirror_batch =
        metrics::histogram("service.batch_ns");
    metrics::Histogram &mirror_compute =
        metrics::histogram("service.compute_ns");
    /// Sampled on stats() reads; the handle is resolved here so the
    /// stats() hot path stays allocation-free.
    metrics::Gauge &queue_depth_gauge =
        metrics::gauge("service.queue_depth");
};

namespace {

/// Taxonomy kind of a stored evaluation error.
ErrorKind
classify(const std::exception_ptr &error)
{
    if (!error) {
        return ErrorKind::kInternal;
    }
    try {
        std::rethrow_exception(error);
    } catch (const FaultError &e) {
        return e.kind();
    } catch (const eval::BatchCancelled &) {
        return ErrorKind::kCancelled;
    } catch (...) {
        return ErrorKind::kInternal;
    }
}

/**
 * base + seconds, saturating to time_point::max() instead of
 * overflowing: steady_clock headroom is ~292 years, so any deadline a
 * caller can express beyond that means "never expires". The 0.5 margin
 * keeps the duration_cast itself clear of int64 overflow.
 */
Clock::time_point
saturating_deadline(Clock::time_point base, double seconds)
{
    const double headroom =
        std::chrono::duration<double>(Clock::time_point::max() - base)
            .count();
    if (!(seconds < headroom * 0.5)) {  // also catches inf / NaN
        return Clock::time_point::max();
    }
    return base +
        std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
}

/// Record one evaluation-attempt outcome and refresh the health state.
void
record_attempt(ServiceShared &shared, bool ok)
{
    MutexLock lock(shared.health_mutex);
    shared.health_window =
        (shared.health_window << 1) | (ok ? 0u : 1u);
    if (shared.health_count < 32) {
        shared.health_count++;
    }
    const std::uint32_t mask = shared.health_count >= 32
        ? 0xffffffffu
        : ((1u << shared.health_count) - 1u);
    const int fails = std::popcount(shared.health_window & mask);
    HealthState state = HealthState::kHealthy;
    if (shared.health_count >= 8) {
        if (fails * 2 >= shared.health_count) {
            state = HealthState::kFailing;
        } else if (fails * 8 >= shared.health_count) {
            state = HealthState::kDegraded;
        }
    }
    shared.health.store(static_cast<int>(state),
                        std::memory_order_relaxed);
}

/// Move @p state to a terminal status (idempotent) and bump the
/// matching service counter.
void
finish_ticket(ServiceShared &shared, TicketState &state, TicketStatus status,
              const eval::ScenarioResult *result,
              const std::exception_ptr &error,
              ErrorKind kind = ErrorKind::kInternal)
{
    {
        MutexLock lock(state.mutex);
        if (ticket_status_terminal(state.status)) {
            return;
        }
        state.status = status;
        if (result != nullptr) {
            state.result = *result;
        }
        state.error = error;
        state.error_kind = kind;
        state.completed = Clock::now();
        // Bump before the waiter can observe the terminal status (it
        // holds state.mutex inside wait()), so a stats() snapshot taken
        // right after wait() returns already includes this ticket.
        switch (status) {
          case TicketStatus::kDone: shared.completed++; break;
          case TicketStatus::kFailed: shared.failed++; break;
          case TicketStatus::kRejected: shared.rejected++; break;
          case TicketStatus::kShed: shared.shed++; break;
          case TicketStatus::kCancelled: shared.cancelled++; break;
          case TicketStatus::kDeadlineExpired:
            shared.deadline_expired++;
            break;
          case TicketStatus::kShutdown: shared.shutdown_discarded++; break;
          case TicketStatus::kQueued:
          case TicketStatus::kRunning:
            panic("finish_ticket with non-terminal status");
        }
    }
    state.cv.notify_all();
}

/// Complete a whole job: mark it done, drop it from the dedup index and
/// resolve every subscriber.
void
finish_job_locked(ServiceShared &shared, Job &job, TicketStatus status,
                  const std::exception_ptr &error,
                  ErrorKind kind = ErrorKind::kInternal)
    REQUIRES(shared.jobs_mutex, job.mutex)
{
    job.done = true;
    job.outcome = status;
    job.error = error;
    auto it = shared.in_flight.find(job.fingerprint);
    if (it != shared.in_flight.end() && it->second.get() == &job) {
        shared.in_flight.erase(it);
    }
    const eval::ScenarioResult *result =
        status == TicketStatus::kDone ? &job.result : nullptr;
    for (auto &state : job.subscribers) {
        finish_ticket(shared, *state, status, result, error, kind);
    }
    job.subscribers.clear();
}

/// The last subscriber left @p job before it completed: pull it out of
/// the dedup index and, if it is evaluating, vote its batch toward
/// abort.
void
abandon_job_locked(ServiceShared &shared, Job &job)
    REQUIRES(shared.jobs_mutex, job.mutex)
{
    job.abandoned = true;
    auto it = shared.in_flight.find(job.fingerprint);
    if (it != shared.in_flight.end() && it->second.get() == &job) {
        shared.in_flight.erase(it);
    }
    if (job.batch != nullptr &&
        job.batch->live_jobs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        job.batch->cancel.store(true, std::memory_order_relaxed);
    }
}

}  // namespace

}  // namespace detail

using detail::Clock;

const char *
ticket_status_name(TicketStatus status)
{
    switch (status) {
      case TicketStatus::kQueued: return "queued";
      case TicketStatus::kRunning: return "running";
      case TicketStatus::kDone: return "done";
      case TicketStatus::kFailed: return "failed";
      case TicketStatus::kCancelled: return "cancelled";
      case TicketStatus::kDeadlineExpired: return "deadline-expired";
      case TicketStatus::kRejected: return "rejected";
      case TicketStatus::kShed: return "shed";
      case TicketStatus::kShutdown: return "shutdown";
    }
    return "?";
}

bool
ticket_status_terminal(TicketStatus status)
{
    return status != TicketStatus::kQueued &&
        status != TicketStatus::kRunning;
}

const char *
health_state_name(HealthState state)
{
    switch (state) {
      case HealthState::kHealthy: return "healthy";
      case HealthState::kDegraded: return "degraded";
      case HealthState::kFailing: return "failing";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// EvalTicket
// ---------------------------------------------------------------------------

EvalTicket::EvalTicket() = default;
EvalTicket::~EvalTicket() = default;
EvalTicket::EvalTicket(const EvalTicket &) = default;
EvalTicket &EvalTicket::operator=(const EvalTicket &) = default;
EvalTicket::EvalTicket(EvalTicket &&) noexcept = default;
EvalTicket &EvalTicket::operator=(EvalTicket &&) noexcept = default;

TicketStatus
EvalTicket::status() const
{
    if (!valid()) {
        return TicketStatus::kRejected;
    }
    MutexLock lock(state_->mutex);
    return state_->status;
}

void
EvalTicket::wait() const
{
    MutexLock lock(state_->mutex);
    while (!ticket_status_terminal(state_->status)) {
        state_->cv.wait(state_->mutex);
    }
}

bool
EvalTicket::wait_for(double seconds) const
{
    // A wait beyond the clock's headroom (~292 years) is an unbounded
    // wait: the duration_cast below would overflow on it.
    if (!(seconds < 1e9)) {
        wait();
        return true;
    }
    const auto deadline = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(std::max(seconds, 0.0)));
    MutexLock lock(state_->mutex);
    while (!ticket_status_terminal(state_->status)) {
        if (state_->cv.wait_until(state_->mutex, deadline) ==
            std::cv_status::timeout) {
            break;
        }
    }
    return ticket_status_terminal(state_->status);
}

const eval::ScenarioResult &
EvalTicket::result() const
{
    wait();
    MutexLock lock(state_->mutex);
    if (state_->status == TicketStatus::kDone) {
        return state_->result;
    }
    if (state_->status == TicketStatus::kFailed && state_->error) {
        std::rethrow_exception(state_->error);
    }
    throw std::runtime_error(strprintf(
        "evaluation request %s", ticket_status_name(state_->status)));
}

bool
EvalTicket::cancel()
{
    if (!valid()) {
        return false;
    }
    if (!job_) {
        return false;  // failed fast at submit (quarantine / admission)
    }
    MutexLock jobs_lock(shared_->jobs_mutex);
    MutexLock job_lock(job_->mutex);
    {
        MutexLock lock(state_->mutex);
        if (ticket_status_terminal(state_->status)) {
            return false;
        }
    }
    auto &subs = job_->subscribers;
    subs.erase(std::remove(subs.begin(), subs.end(), state_), subs.end());
    detail::finish_ticket(*shared_, *state_, TicketStatus::kCancelled,
                          nullptr, nullptr, ErrorKind::kCancelled);
    if (subs.empty() && !job_->done) {
        detail::abandon_job_locked(*shared_, *job_);
    }
    return true;
}

bool
EvalTicket::deduped() const
{
    return valid() && state_->deduped;
}

double
EvalTicket::latency_seconds() const
{
    MutexLock lock(state_->mutex);
    return std::chrono::duration<double>(state_->completed -
                                         state_->submitted).count();
}

eval::ErrorKind
EvalTicket::error_kind() const
{
    if (!valid()) {
        return eval::ErrorKind::kInvalid;
    }
    MutexLock lock(state_->mutex);
    return state_->error_kind;
}

// ---------------------------------------------------------------------------
// EvalService
// ---------------------------------------------------------------------------

EvalService::EvalService(ServiceOptions options)
    : options_(options),
      shared_(std::make_shared<detail::ServiceShared>(options.queue_capacity))
{
    options_.runner.cancel = nullptr;  // per-batch, service-managed
    if (options_.max_batch == 0) {
        options_.max_batch = 1;
    }
    dispatchers_.reserve(static_cast<std::size_t>(
        std::max(options_.dispatchers, 0)));
    for (int i = 0; i < options_.dispatchers; ++i) {
        dispatchers_.emplace_back([this] { dispatcher_loop(); });
    }
    if (options_.stall_budget_seconds > 0.0) {
        watchdog_ = std::thread([this] { watchdog_loop(); });
    }
}

EvalService::~EvalService()
{
    shutdown(ShutdownMode::kDrain);
}

EvalTicket
EvalService::submit(const eval::Scenario &scenario,
                    const SubmitOptions &submit_options)
{
    auto state = std::make_shared<detail::TicketState>();
    state->submitted = Clock::now();
    if (submit_options.deadline_seconds > 0.0) {
        state->has_deadline = true;
        state->deadline = detail::saturating_deadline(
            state->submitted, submit_options.deadline_seconds);
    }
    shared_->submitted++;

    EvalTicket ticket;
    ticket.shared_ = shared_;
    ticket.state_ = state;

    const std::uint64_t fingerprint = eval::scenario_fingerprint(scenario);
    {
        MutexLock jobs_lock(shared_->jobs_mutex);
        auto it = shared_->in_flight.find(fingerprint);
        if (it != shared_->in_flight.end()) {
            // Identical request already queued or evaluating: attach as
            // another subscriber — one evaluation, N completions.
            auto job = it->second;
            MutexLock job_lock(job->mutex);
            state->deduped = true;
            if (job->batch != nullptr) {
                MutexLock lock(state->mutex);
                state->status = TicketStatus::kRunning;
            }
            job->subscribers.push_back(state);
            shared_->dedup_hits++;
            trace::instant("service.dedup_hit", "service", "fingerprint",
                           fingerprint);
            ticket.job_ = std::move(job);
            return ticket;
        }
        // Quarantine: a fingerprint that just failed terminally fails
        // fast with the recorded payload instead of re-burning the pool;
        // an expired entry is readmitted.
        auto q = shared_->quarantine.find(fingerprint);
        if (q != shared_->quarantine.end()) {
            if (state->submitted < q->second.expires) {
                shared_->quarantine_hits++;
                detail::finish_ticket(*shared_, *state,
                                      TicketStatus::kFailed, nullptr,
                                      q->second.error, q->second.kind);
                return ticket;  // no job: fail-fast ticket
            }
            shared_->quarantine.erase(q);
        }
        auto job = std::make_shared<detail::Job>();
        job->fingerprint = fingerprint;
        job->scenario = scenario;
        job->submit_ns = trace::now_ns();
        // The standalone seed: what ScenarioRunner::run({scenario})
        // would derive at batch index 0. Pinning it here is what makes
        // batch composition invisible in the results.
        job->seed = eval::scenario_rng_seed(scenario, 0);
        {
            // Unpublished job — uncontended; taken for the guarded
            // subscribers write.
            MutexLock job_lock(job->mutex);
            job->subscribers.push_back(state);
        }
        shared_->in_flight.emplace(fingerprint, job);
        ticket.job_ = std::move(job);
    }

    // Under kFailing health the service sheds load instead of blocking
    // or bouncing every submitter behind a storm of failing requests.
    BackpressurePolicy policy = options_.policy;
    if (static_cast<HealthState>(shared_->health.load(
            std::memory_order_relaxed)) == HealthState::kFailing) {
        policy = BackpressurePolicy::kShedOldest;
    }

    // Admission happens outside jobs_mutex: under kBlock this can wait
    // on the dispatchers, which need jobs_mutex to complete batches.
    // The queue's own fault point (mpmc.push) may throw here; transient
    // faults retry immediately (admission holds no state to back off
    // from), anything else fails the ticket with the payload.
    QueuePush admitted = QueuePush::kClosed;
    std::optional<std::shared_ptr<detail::Job>> shed_job;
    std::exception_ptr admission_error;
    for (int attempt = 1;; ++attempt) {
        try {
            admission_error = nullptr;
            switch (policy) {
              case BackpressurePolicy::kBlock:
                admitted = shared_->queue.push(ticket.job_);
                break;
              case BackpressurePolicy::kReject:
                admitted = shared_->queue.try_push(ticket.job_);
                break;
              case BackpressurePolicy::kShedOldest:
                admitted = shared_->queue.push_shed_oldest(ticket.job_,
                                                           &shed_job);
                break;
            }
            break;
        } catch (const FaultError &e) {
            admission_error = std::current_exception();
            if (e.kind() != ErrorKind::kTransient ||
                attempt >= options_.retry.max_attempts) {
                break;
            }
            shared_->retries++;
        }
    }
    if (admission_error) {
        MutexLock jobs_lock(shared_->jobs_mutex);
        MutexLock job_lock(ticket.job_->mutex);
        if (!ticket.job_->done && !ticket.job_->abandoned) {
            detail::finish_job_locked(*shared_, *ticket.job_,
                                      TicketStatus::kFailed,
                                      admission_error,
                                      detail::classify(admission_error));
        }
        return ticket;
    }
    if (shed_job.has_value()) {
        MutexLock jobs_lock(shared_->jobs_mutex);
        MutexLock job_lock((*shed_job)->mutex);
        detail::finish_job_locked(*shared_, **shed_job, TicketStatus::kShed,
                                  nullptr);
    }
    if (admitted != QueuePush::kAccepted) {
        const TicketStatus status = admitted == QueuePush::kFull
            ? TicketStatus::kRejected
            : TicketStatus::kShutdown;
        MutexLock jobs_lock(shared_->jobs_mutex);
        MutexLock job_lock(ticket.job_->mutex);
        detail::finish_job_locked(*shared_, *ticket.job_, status, nullptr);
    }
    return ticket;
}

bool
EvalService::process_batch(std::shared_ptr<detail::Job> first, bool linger)
{
    // Dynamic batching: gather whatever is queued right now, and — on
    // dispatcher threads only — linger once for company rather than
    // running a singleton batch into an idle worker pool.
    std::vector<std::shared_ptr<detail::Job>> jobs;
    first->pop_ns = trace::now_ns();
    jobs.push_back(std::move(first));
    bool lingered = false;
    while (jobs.size() < options_.max_batch) {
        std::shared_ptr<detail::Job> next;
        if (shared_->queue.try_pop(&next)) {
            next->pop_ns = trace::now_ns();
            jobs.push_back(std::move(next));
            continue;
        }
        if (linger && !lingered && options_.linger_seconds > 0.0) {
            lingered = true;
            bool got = false;
            {
                trace::Span linger_span("service.linger", "service");
                got = shared_->queue.pop_for(&next,
                                             options_.linger_seconds);
            }
            if (got) {
                next->pop_ns = trace::now_ns();
                jobs.push_back(std::move(next));
                continue;
            }
        }
        break;
    }

    // Aborting shutdown: everything popped from here on completes as
    // kShutdown, unevaluated.
    if (shared_->abort.load(std::memory_order_relaxed)) {
        MutexLock jobs_lock(shared_->jobs_mutex);
        for (auto &job : jobs) {
            MutexLock job_lock(job->mutex);
            if (!job->done && !job->abandoned) {
                detail::finish_job_locked(*shared_, *job,
                                          TicketStatus::kShutdown, nullptr);
            }
        }
        return false;
    }

    // Admission-to-dispatch pruning: drop subscribers whose deadline
    // already passed and jobs nobody subscribes to any more, then pin
    // the survivors to this batch's cancel control.
    detail::BatchControl control;
    std::vector<std::shared_ptr<detail::Job>> live;
    const auto now = Clock::now();
    {
        MutexLock jobs_lock(shared_->jobs_mutex);
        for (auto &job : jobs) {
            MutexLock job_lock(job->mutex);
            if (job->done || job->abandoned) {
                continue;  // resolved while queued (cancel / shed race)
            }
            auto &subs = job->subscribers;
            for (auto it = subs.begin(); it != subs.end();) {
                if ((*it)->has_deadline && (*it)->deadline <= now) {
                    detail::finish_ticket(*shared_, **it,
                                          TicketStatus::kDeadlineExpired,
                                          nullptr, nullptr);
                    it = subs.erase(it);
                } else {
                    ++it;
                }
            }
            if (subs.empty()) {
                detail::finish_job_locked(*shared_, *job,
                                          TicketStatus::kDeadlineExpired,
                                          nullptr);
                continue;
            }
            job->batch = &control;
            for (auto &state : subs) {
                MutexLock lock(state->mutex);
                if (!ticket_status_terminal(state->status)) {
                    state->status = TicketStatus::kRunning;
                }
            }
            live.push_back(job);
        }
        control.live_jobs.store(static_cast<int>(live.size()),
                                std::memory_order_relaxed);
        if (!live.empty()) {
            shared_->active_batches.push_back(&control);
        }
    }
    if (live.empty()) {
        return false;
    }

    // One runner call, one outcome per job: a failing job fails alone,
    // and transient failures were already retried in place per layer
    // range. Publish the start for the watchdog first (release pairs
    // with its acquire of `running`).
    std::vector<eval::Scenario> scenarios;
    std::vector<std::uint64_t> seeds;
    scenarios.reserve(live.size());
    seeds.reserve(live.size());
    for (const auto &job : live) {
        scenarios.push_back(job->scenario);
        seeds.push_back(job->seed);
    }
    eval::RunnerOptions runner_options = options_.runner;
    runner_options.cancel = &control.cancel;
    eval::RunnerReport report;
    control.started = Clock::now();
    control.running.store(true, std::memory_order_release);
    const std::uint64_t eval_start_ns = trace::now_ns();
    auto outcomes = eval::ScenarioRunner(runner_options)
                        .run_outcomes(scenarios, seeds, options_.retry,
                                      &report);
    control.running.store(false, std::memory_order_relaxed);
    const std::uint64_t eval_end_ns = trace::now_ns();
    const auto chunks = static_cast<std::uint64_t>(
        std::max<std::int64_t>(report.chunks, 0));
    if (trace::enabled()) {
        trace::emit_complete("service.dispatch", "service", eval_start_ns,
                             eval_end_ns - eval_start_ns, "jobs",
                             static_cast<std::uint64_t>(live.size()),
                             "chunks", chunks);
    }
    const auto sub_sat = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };

    // A cancelled job was abandoned by every subscriber, cut short by
    // shutdown(kAbort), or reclaimed by the watchdog; only the last
    // counts as evaluated, as a terminal transient failure.
    const bool stalled =
        control.watchdog_fired.load(std::memory_order_relaxed);
    std::vector<ErrorKind> kinds(live.size(), ErrorKind::kInternal);
    for (std::size_t i = 0; i < live.size(); ++i) {
        auto &out = outcomes[i];
        if (!out.error) {
            continue;
        }
        kinds[i] = detail::classify(out.error);
        if (kinds[i] == ErrorKind::kCancelled && stalled) {
            kinds[i] = ErrorKind::kTransient;
            out.error = std::make_exception_ptr(eval::EvalError(
                ErrorKind::kTransient,
                "cancelled by watchdog: stall budget exceeded"));
        }
    }
    const auto evaluated = [&](std::size_t i) {
        return kinds[i] != ErrorKind::kCancelled;
    };

    bool any_done = false;
    {
        MutexLock jobs_lock(shared_->jobs_mutex);
        auto &batches = shared_->active_batches;
        batches.erase(std::remove(batches.begin(), batches.end(), &control),
                      batches.end());
        const bool aborting = shared_->abort.load(std::memory_order_relaxed);
        // Count the batch into the stats BEFORE finishing any job: a
        // submitter whose wait() returns must observe these counters
        // already bumped (finish_ticket publishes through the ticket
        // mutex), so stats() read after a completion never lags it.
        std::uint64_t evaluated_jobs = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
            MutexLock job_lock(live[i]->mutex);
            if (!live[i]->done && !live[i]->abandoned && evaluated(i)) {
                evaluated_jobs++;
            }
        }
        if (evaluated_jobs > 0) {
            shared_->batches++;
            shared_->batched_jobs += evaluated_jobs;
            shared_->steals += static_cast<std::uint64_t>(
                std::max<std::int64_t>(report.steals, 0));
            shared_->chunks += chunks;
            shared_->retries += static_cast<std::uint64_t>(
                std::max<std::int64_t>(report.retries, 0));
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            auto &job = *live[i];
            MutexLock job_lock(job.mutex);
            job.batch = nullptr;
            if (job.done || job.abandoned) {
                job.done = true;
                continue;
            }
            auto &out = outcomes[i];
            if (evaluated(i)) {
                // Phase decomposition of this request's latency:
                // submit -> pop -> evaluation start -> evaluation end.
                const std::uint64_t queue_ns =
                    sub_sat(job.pop_ns, job.submit_ns);
                const std::uint64_t batch_ns =
                    sub_sat(eval_start_ns, job.pop_ns);
                const std::uint64_t compute_ns =
                    sub_sat(eval_end_ns, eval_start_ns);
                shared_->phase_queue.record(queue_ns);
                shared_->phase_batch.record(batch_ns);
                shared_->phase_compute.record(compute_ns);
                shared_->mirror_queue.record(queue_ns);
                shared_->mirror_batch.record(batch_ns);
                shared_->mirror_compute.record(compute_ns);
                if (trace::enabled()) {
                    trace::emit_complete("service.queue_wait", "service",
                                         job.submit_ns, queue_ns,
                                         "fingerprint", job.fingerprint);
                    trace::emit_complete("service.batch", "service",
                                         job.pop_ns, batch_ns,
                                         "fingerprint", job.fingerprint);
                    trace::emit_complete("service.compute", "service",
                                         eval_start_ns, compute_ns,
                                         "fingerprint", job.fingerprint);
                }
            }
            if (!out.error) {
                job.result = std::move(out.result);
                detail::finish_job_locked(*shared_, job, TicketStatus::kDone,
                                          nullptr);
                detail::record_attempt(*shared_, true);
                any_done = true;
                continue;
            }
            if (!evaluated(i)) {
                // A cancelled job with live subscribers only happens
                // under shutdown(kAbort); organic cancellation implies
                // every subscriber already detached.
                detail::finish_job_locked(
                    *shared_, job,
                    aborting ? TicketStatus::kShutdown
                             : TicketStatus::kCancelled,
                    nullptr, ErrorKind::kCancelled);
                continue;
            }
            detail::record_attempt(*shared_, false);
            // Terminal failure: quarantine the fingerprint so identical
            // resubmissions fail fast for a TTL.
            if (options_.quarantine_ttl_seconds > 0.0) {
                detail::QuarantineEntry entry;
                entry.expires = detail::saturating_deadline(
                    Clock::now(), options_.quarantine_ttl_seconds);
                entry.error = out.error;
                entry.kind = kinds[i];
                shared_->quarantine[job.fingerprint] = entry;
                shared_->quarantined++;
                trace::instant("service.quarantine", "service",
                               "fingerprint", job.fingerprint);
            }
            detail::finish_job_locked(*shared_, job, TicketStatus::kFailed,
                                      out.error, kinds[i]);
        }
    }
    if (trace::enabled()) {
        trace::emit_complete("service.finalize", "service", eval_end_ns,
                             sub_sat(trace::now_ns(), eval_end_ns), "jobs",
                             static_cast<std::uint64_t>(live.size()));
    }
    return any_done;
}

int
EvalService::pump(int max_batches)
{
    int ran = 0;
    std::shared_ptr<detail::Job> job;
    while (ran < max_batches && shared_->queue.try_pop(&job)) {
        if (process_batch(std::move(job), /*linger=*/false)) {
            ++ran;
        }
        job.reset();
    }
    return ran;
}

void
EvalService::dispatcher_loop()
{
    std::shared_ptr<detail::Job> job;
    while (shared_->queue.pop(&job)) {
        process_batch(std::move(job), /*linger=*/true);
        job.reset();
    }
}

void
EvalService::watchdog_loop()
{
    const auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options_.stall_budget_seconds));
    const auto poll = std::clamp(
        budget / 4,
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::milliseconds(1)),
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::milliseconds(50)));
    for (;;) {
        {
            const auto deadline = Clock::now() + poll;
            MutexLock lock(shared_->watchdog_mutex);
            while (!shared_->watchdog_stop) {
                if (shared_->watchdog_cv.wait_until(
                        shared_->watchdog_mutex, deadline) ==
                    std::cv_status::timeout) {
                    break;
                }
            }
            if (shared_->watchdog_stop) {
                return;
            }
        }
        const auto now = Clock::now();
        MutexLock jobs_lock(shared_->jobs_mutex);
        for (detail::BatchControl *batch : shared_->active_batches) {
            if (!batch->running.load(std::memory_order_acquire)) {
                continue;
            }
            if (batch->watchdog_fired.load(std::memory_order_relaxed)) {
                continue;
            }
            if (now - batch->started < budget) {
                continue;
            }
            batch->watchdog_fired.store(true, std::memory_order_relaxed);
            batch->cancel.store(true, std::memory_order_relaxed);
            shared_->watchdog_cancels++;
            trace::instant("service.watchdog_cancel", "service");
            warn_once("service-watchdog",
                      "watchdog cancelled a batch exceeding the %.0f ms "
                      "stall budget (unfinished jobs fail as transient)",
                      options_.stall_budget_seconds * 1e3);
        }
    }
}

void
EvalService::shutdown(ShutdownMode mode)
{
    if (mode == ShutdownMode::kAbort) {
        shared_->abort.store(true, std::memory_order_relaxed);
        // Evaluating batches abort at their next layer range.
        MutexLock jobs_lock(shared_->jobs_mutex);
        for (detail::BatchControl *batch : shared_->active_batches) {
            batch->cancel.store(true, std::memory_order_relaxed);
        }
    }
    shared_->queue.close();
    for (auto &dispatcher : dispatchers_) {
        if (dispatcher.joinable()) {
            dispatcher.join();
        }
    }
    dispatchers_.clear();
    // Resolve whatever is still queued: dispatchers==0 services, and
    // jobs admitted after the dispatchers drained. Under kAbort
    // process_batch completes them as kShutdown without evaluating.
    // The closed queue admits nothing new, so this loop terminates. The
    // watchdog stays alive until the drain finishes — a stalling final
    // batch must still be reclaimed.
    std::shared_ptr<detail::Job> job;
    while (shared_->queue.try_pop(&job)) {
        process_batch(std::move(job), /*linger=*/false);
        job.reset();
    }
    {
        MutexLock lock(shared_->watchdog_mutex);
        shared_->watchdog_stop = true;
    }
    shared_->watchdog_cv.notify_all();
    if (watchdog_.joinable()) {
        watchdog_.join();
    }
}

ServiceStats
EvalService::stats() const
{
    ServiceStats s;
    s.submitted = shared_->submitted.value();
    s.dedup_hits = shared_->dedup_hits.value();
    s.completed = shared_->completed.value();
    s.failed = shared_->failed.value();
    s.rejected = shared_->rejected.value();
    s.shed = shared_->shed.value();
    s.cancelled = shared_->cancelled.value();
    s.deadline_expired = shared_->deadline_expired.value();
    s.shutdown_discarded = shared_->shutdown_discarded.value();
    s.batches = shared_->batches.value();
    s.batched_jobs = shared_->batched_jobs.value();
    s.steals = shared_->steals.value();
    s.chunks = shared_->chunks.value();
    s.retries = shared_->retries.value();
    s.quarantined = shared_->quarantined.value();
    s.quarantine_hits = shared_->quarantine_hits.value();
    s.watchdog_cancels = shared_->watchdog_cancels.value();
    s.queue_depth = shared_->queue.size();
    s.peak_queue_depth = shared_->queue.peak_size();
    s.health = static_cast<HealthState>(
        shared_->health.load(std::memory_order_relaxed));
    s.queue_wait_ns = shared_->phase_queue.snapshot();
    s.batch_ns = shared_->phase_batch.snapshot();
    s.compute_ns = shared_->phase_compute.snapshot();
    shared_->queue_depth_gauge.set(
        static_cast<std::int64_t>(s.queue_depth));
    return s;
}

}  // namespace bitwave::service
