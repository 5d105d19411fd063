#include "service/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
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
/// layer range.
struct BatchControl
{
    std::atomic<bool> cancel{false};
    std::atomic<int> live_jobs{0};
};

/// One deduplicated evaluation: the unit the queue and batcher move.
/// N submissions with the same scenario fingerprint share one Job.
struct Job
{
    std::uint64_t fingerprint = 0;
    /// Read only by the dispatcher that popped the job; a kept failure
    /// drops it (see finish_job_locked).
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
    /// The evaluated result, moved in just before a kDone finish.
    eval::ScenarioResult result GUARDED_BY(mutex);
    /// Set when done; a kept failure answers resubmissions with them.
    std::exception_ptr error GUARDED_BY(mutex);
    ErrorKind error_kind GUARDED_BY(mutex) = ErrorKind::kInternal;
};

struct ServiceShared
{
    explicit ServiceShared(std::size_t capacity) : queue(capacity) {}

    MpmcQueue<std::shared_ptr<Job>> queue;
    std::atomic<bool> abort{false};  ///< shutdown(kAbort) in progress.

    MutexCap jobs_mutex;  ///< Guards jobs/kept/active_batches.
    /// The outcome table: fingerprint -> the Job new submissions attach
    /// to. A job leaves it when it completes or is abandoned, unless it
    /// failed kInvalid: then it stays, done, so that resubmissions are
    /// answered at submit().
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>>
        jobs GUARDED_BY(jobs_mutex);
    /// Fingerprints of the kept failures, oldest first.
    std::deque<std::uint64_t> kept GUARDED_BY(jobs_mutex);
    std::vector<BatchControl *> active_batches GUARDED_BY(jobs_mutex);

    /// This instance's counters; stats() reads them.
    metrics::Counter submitted;
    metrics::Counter dedup_hits;
    /// Finished tickets per TicketStatus (the non-terminal slots stay 0).
    std::array<metrics::Counter,
               static_cast<std::size_t>(TicketStatus::kShutdown) + 1>
        finished;
    metrics::Counter batches;
    metrics::Counter batched_jobs;
    metrics::Counter chunks;
    metrics::Counter retries;
    metrics::Counter quarantined;

    /// Per-phase latency histograms (ungated: always recorded so
    /// stats() is populated without BITWAVE_METRICS).
    metrics::Histogram phase_queue{/*gated=*/false};
    metrics::Histogram phase_batch{/*gated=*/false};
    metrics::Histogram phase_compute{/*gated=*/false};
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

/// Move @p state to a terminal status (idempotent) and count it.
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
        shared.finished[static_cast<std::size_t>(status)].inc();
    }
    state.cv.notify_all();
}

/// Complete a whole job and resolve every subscriber. The job leaves
/// the outcome table unless evaluation failed it as kInvalid: that
/// request can only fail again, so it stays (without its Scenario,
/// which may pin a custom workload) and the oldest kept failure past
/// kMaxKeptFailures is evicted.
void
finish_job_locked(ServiceShared &shared, Job &job, TicketStatus status,
                  const std::exception_ptr &error,
                  ErrorKind kind = ErrorKind::kInternal)
    REQUIRES(shared.jobs_mutex, job.mutex)
{
    job.done = true;
    job.error = error;
    job.error_kind = kind;
    auto it = shared.jobs.find(job.fingerprint);
    if (it != shared.jobs.end() && it->second.get() == &job) {
        if (status == TicketStatus::kFailed && kind == ErrorKind::kInvalid) {
            job.scenario = eval::Scenario{};
            shared.kept.push_back(job.fingerprint);
            shared.quarantined.inc();
            if (shared.kept.size() > kMaxKeptFailures) {
                shared.jobs.erase(shared.kept.front());
                shared.kept.pop_front();
            }
        } else {
            shared.jobs.erase(it);
        }
    }
    const eval::ScenarioResult *result =
        status == TicketStatus::kDone ? &job.result : nullptr;
    for (auto &state : job.subscribers) {
        finish_ticket(shared, *state, status, result, error, kind);
    }
    job.subscribers.clear();
}

/// The last subscriber left @p job before it completed: pull it out of
/// the outcome table and, if it is evaluating, vote its batch toward
/// abort.
void
abandon_job_locked(ServiceShared &shared, Job &job)
    REQUIRES(shared.jobs_mutex, job.mutex)
{
    job.abandoned = true;
    auto it = shared.jobs.find(job.fingerprint);
    if (it != shared.jobs.end() && it->second.get() == &job) {
        shared.jobs.erase(it);
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
    if (!valid()) {
        return;
    }
    MutexLock lock(state_->mutex);
    while (!ticket_status_terminal(state_->status)) {
        state_->cv.wait(state_->mutex);
    }
}

bool
EvalTicket::wait_for(double seconds) const
{
    if (!valid()) {
        return true;
    }
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
    if (!valid()) {
        throw std::runtime_error("evaluation request rejected");
    }
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
        return false;  // answered at submit by a kept failure
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
    if (!valid()) {
        return 0.0;
    }
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
    shared_->submitted.inc();

    EvalTicket ticket;
    ticket.shared_ = shared_;
    ticket.state_ = state;

    const std::uint64_t fingerprint = eval::scenario_fingerprint(scenario);
    {
        MutexLock jobs_lock(shared_->jobs_mutex);
        auto it = shared_->jobs.find(fingerprint);
        if (it != shared_->jobs.end()) {
            // Identical request already queued or evaluating: attach as
            // another subscriber — one evaluation, N completions. A kept
            // failure answers right here with its stored error.
            auto job = it->second;
            MutexLock job_lock(job->mutex);
            state->deduped = true;
            shared_->dedup_hits.inc();
            trace::instant("service.dedup_hit", "service", "fingerprint",
                           fingerprint);
            if (job->done) {
                detail::finish_ticket(*shared_, *state,
                                      TicketStatus::kFailed, nullptr,
                                      job->error, job->error_kind);
                return ticket;
            }
            if (job->batch != nullptr) {
                MutexLock lock(state->mutex);
                state->status = TicketStatus::kRunning;
            }
            job->subscribers.push_back(state);
            ticket.job_ = std::move(job);
            return ticket;
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
        shared_->jobs.emplace(fingerprint, job);
        ticket.job_ = std::move(job);
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
            switch (options_.policy) {
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
            shared_->retries.inc();
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
    // range.
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
    const std::uint64_t eval_start_ns = trace::now_ns();
    auto outcomes = eval::ScenarioRunner(runner_options)
                        .run_outcomes(scenarios, seeds, options_.retry,
                                      &report);
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

    // A cancelled job was abandoned by every subscriber or cut short by
    // shutdown(kAbort), so it does not count as evaluated.
    std::vector<ErrorKind> kinds(live.size(), ErrorKind::kInternal);
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (outcomes[i].error) {
            kinds[i] = detail::classify(outcomes[i].error);
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
            shared_->batches.inc();
            shared_->batched_jobs.inc(evaluated_jobs);
            shared_->chunks.inc(chunks);
            shared_->retries.inc(static_cast<std::uint64_t>(
                std::max<std::int64_t>(report.retries, 0)));
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
    // The closed queue admits nothing new, so this loop terminates.
    std::shared_ptr<detail::Job> job;
    while (shared_->queue.try_pop(&job)) {
        process_batch(std::move(job), /*linger=*/false);
        job.reset();
    }
}

ServiceStats
EvalService::stats() const
{
    const auto finished = [&](TicketStatus status) {
        return shared_->finished[static_cast<std::size_t>(status)].value();
    };
    ServiceStats s;
    s.submitted = shared_->submitted.value();
    s.dedup_hits = shared_->dedup_hits.value();
    s.completed = finished(TicketStatus::kDone);
    s.failed = finished(TicketStatus::kFailed);
    s.rejected = finished(TicketStatus::kRejected);
    s.shed = finished(TicketStatus::kShed);
    s.cancelled = finished(TicketStatus::kCancelled);
    s.deadline_expired = finished(TicketStatus::kDeadlineExpired);
    s.shutdown_discarded = finished(TicketStatus::kShutdown);
    s.batches = shared_->batches.value();
    s.batched_jobs = shared_->batched_jobs.value();
    s.chunks = shared_->chunks.value();
    s.retries = shared_->retries.value();
    s.quarantined = shared_->quarantined.value();
    s.queue_depth = shared_->queue.size();
    s.peak_queue_depth = shared_->queue.peak_size();
    s.queue_wait_ns = shared_->phase_queue.snapshot();
    s.batch_ns = shared_->phase_batch.snapshot();
    s.compute_ns = shared_->phase_compute.snapshot();
    return s;
}

}  // namespace bitwave::service
