/**
 * @file
 * EvalService — the long-running evaluation front end over the
 * ScenarioRunner: clients `submit()` scenarios and get back EvalTickets
 * (futures); dispatcher threads drain a bounded MPMC queue, coalesce
 * compatible requests into shared runner batches, and complete the
 * tickets asynchronously.
 *
 * Three mechanisms turn "a batch API" into "a server under load":
 *
 *  - **Dedup by content.** Requests are keyed by scenario_fingerprint()
 *    in one outcome table; an arriving request whose fingerprint matches
 *    a queued *or currently evaluating* job attaches to it as an
 *    additional subscriber — one evaluation, N completions. Multi-tenant
 *    sweeps hammering the same design points pay for each point once.
 *
 *  - **Dynamic batching.** A dispatcher pops one job, then gathers more
 *    (up to `max_batch`, lingering `linger_seconds` for company) into a
 *    single ScenarioRunner batch, so the runner's pool and the
 *    content-hash caches (bit-planes, Bit-Flip twins, mapping memos)
 *    see cross-tenant locality instead of singletons.
 *
 *  - **Admission control.** The queue is bounded; `BackpressurePolicy`
 *    picks what saturation means: block the submitter, reject the new
 *    request, or shed the oldest queued one. Depth and
 *    rejection/shed counters are exported via stats().
 *
 * Determinism contract: every completed result is **bit-identical** to a
 * direct `ScenarioRunner::run({scenario})` of the same request, no
 * matter how the batcher composed batches, what the admission order was,
 * or in what order the runner's pool ran its chunks. The service pins
 * each job's RNG seed to its standalone value
 * (`scenario_rng_seed(s, 0)`) and evaluates through `run_outcomes()`
 * with those seeds, so batch position is pure scheduling.
 *
 * Deadlines and cancellation ride the runner's cooperative cancel flag:
 * an expired or cancelled request detaches from its job; a batch with
 * no subscribers left aborts at the next layer range instead of burning
 * the pool.
 *
 * Self-healing (the robustness layer on top):
 *
 *  - **Structured failures.** Evaluation errors cross the service
 *    boundary as eval::EvalError with an ErrorKind; a failed ticket
 *    lands in kFailed, result() rethrows the payload, error_kind()
 *    reports the taxonomy.
 *
 *  - **Per-scenario outcomes.** Each batch is one runner call that
 *    returns one outcome per job, so a failing job fails only its own
 *    tickets; coalesced siblings complete normally.
 *
 *  - **Retry.** The runner re-runs a layer range that failed kTransient
 *    in place, under ServiceOptions::retry; nothing else is retried.
 *
 *  - **Outcome table.** A job leaves the table when it finishes, unless
 *    evaluation failed it as kInvalid: that request is unservable, so
 *    the failure stays (without its Scenario, up to kMaxKeptFailures,
 *    oldest evicted first) and an identical resubmission completes
 *    inside submit() with the stored error.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "eval/error.hpp"
#include "eval/runner.hpp"

namespace bitwave::service {

namespace detail {
struct ServiceShared;
struct Job;
struct TicketState;
}  // namespace detail

/// What a saturated request queue does to the next submission.
enum class BackpressurePolicy
{
    kBlock,      ///< submit() blocks until space frees up (default).
    kReject,     ///< The new request completes immediately as kRejected.
    kShedOldest, ///< The oldest queued request completes as kShed and
                 ///< the new one is admitted.
};

/// Most kInvalid failures the outcome table keeps for resubmissions;
/// the oldest is evicted first.
inline constexpr std::size_t kMaxKeptFailures = 1024;

/// Service configuration.
struct ServiceOptions
{
    /// Bounded request-queue capacity (jobs, after dedup).
    std::size_t queue_capacity = 256;
    BackpressurePolicy policy = BackpressurePolicy::kBlock;
    /**
     * Dispatcher threads draining the queue. 0 starts no threads — the
     * owner drives dispatch explicitly via pump(), which the
     * backpressure/deadline tests use to stay timing-independent.
     * Each dispatcher runs full runner batches, so 1 is the right
     * number unless batches underfill the worker pool.
     */
    int dispatchers = 1;
    /// Max jobs coalesced into one runner batch.
    std::size_t max_batch = 16;
    /**
     * How long a dispatcher holding an underfull batch waits for
     * company before running it anyway. Only dispatcher threads linger;
     * pump() never does.
     */
    double linger_seconds = 0.002;
    /// Evaluation core configuration (threads, grain, chaos_seed). The
    /// per-batch cancel flag is service-managed; any `cancel` pointer
    /// set here is ignored.
    eval::RunnerOptions runner;
    /// In-place retry of kTransient failures: layer ranges in the
    /// runner, and queue admission in submit().
    eval::RetryPolicy retry;
};

/// Per-request submission knobs.
struct SubmitOptions
{
    /**
     * Relative deadline in seconds; <= 0 means none. An expired request
     * completes as kDeadlineExpired: before dispatch it is pruned
     * without evaluating; once evaluating it can only be reclaimed by
     * cancellation of all its subscribers (the runner polls the batch
     * cancel flag before every layer range). Huge values (including
     * infinity) saturate to "no deadline ever expires" instead of
     * overflowing the clock.
     */
    double deadline_seconds = 0.0;
};

/// Lifecycle of one submitted request.
enum class TicketStatus
{
    kQueued,           ///< Waiting in the request queue.
    kRunning,          ///< Part of an evaluating batch.
    kDone,             ///< Completed; result() is valid.
    kFailed,           ///< Evaluation threw; result() rethrows.
    kCancelled,        ///< cancel() before completion.
    kDeadlineExpired,  ///< Deadline passed before completion.
    kRejected,         ///< Bounced by kReject admission control.
    kShed,             ///< Evicted by kShedOldest admission control.
    kShutdown,         ///< Service shut down before evaluation.
};

/// Display name of a status ("done", "rejected", ...).
const char *ticket_status_name(TicketStatus status);

/// True for every state a ticket can never leave.
bool ticket_status_terminal(TicketStatus status);

class EvalService;

/**
 * Client-side future of one submitted request. Copyable (all copies
 * observe the same request) and safe to wait on from any thread.
 * Tickets must not outlive the EvalService that issued them. A
 * default-constructed ticket acts as a terminal kRejected one.
 */
class EvalTicket
{
  public:
    // Special members live in service.cpp: the detail types are
    // incomplete here and shared_ptr destruction needs them complete.
    EvalTicket();
    ~EvalTicket();
    EvalTicket(const EvalTicket &);
    EvalTicket &operator=(const EvalTicket &);
    EvalTicket(EvalTicket &&) noexcept;
    EvalTicket &operator=(EvalTicket &&) noexcept;

    bool valid() const { return state_ != nullptr; }

    /// Current status (racy by nature; terminal states are stable).
    TicketStatus status() const;

    /// Block until the ticket reaches a terminal state.
    void wait() const;

    /// Bounded wait; true when terminal within @p seconds.
    bool wait_for(double seconds) const;

    /**
     * The evaluation result. Blocks until terminal; throws
     * BatchCancelled-style runtime errors for every non-kDone terminal
     * state and rethrows the evaluation's own exception for kFailed.
     */
    const eval::ScenarioResult &result() const;

    /**
     * Withdraw this request. True when the ticket was still live (it
     * completes as kCancelled); false when already terminal. When the
     * last subscriber of an evaluating job cancels — and every other
     * job of its batch is likewise abandoned — the batch aborts through
     * the runner's cancel flag.
     */
    bool cancel();

    /// True when this submission was answered by an identical request's
    /// job (pending, or a kept kInvalid failure) instead of enqueueing a
    /// new evaluation.
    bool deduped() const;

    /// Submit-to-terminal latency; meaningful once terminal.
    double latency_seconds() const;

    /// Taxonomy kind of a kFailed ticket (kInternal otherwise);
    /// result() rethrows the full eval::EvalError payload.
    eval::ErrorKind error_kind() const;

  private:
    friend class EvalService;
    std::shared_ptr<detail::ServiceShared> shared_;
    std::shared_ptr<detail::Job> job_;
    std::shared_ptr<detail::TicketState> state_;
};

/// Counter snapshot; see the individual fields.
struct ServiceStats
{
    std::uint64_t submitted = 0;      ///< submit() calls accepted or not.
    std::uint64_t dedup_hits = 0;     ///< Submissions answered by an
                                      ///< existing job (pending, or a
                                      ///< kept failure).
    std::uint64_t completed = 0;      ///< Tickets finished kDone.
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;       ///< kReject admission bounces.
    std::uint64_t shed = 0;           ///< kShedOldest evictions.
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t shutdown_discarded = 0;
    std::uint64_t batches = 0;        ///< Runner batches executed.
    std::uint64_t batched_jobs = 0;   ///< Jobs evaluated across them.
    std::uint64_t chunks = 0;         ///< Executed chunks (aggregate).
    std::uint64_t retries = 0;        ///< Transient failures retried in
                                      ///< place: layer ranges in the
                                      ///< runner, and queue admission.
    /// Always 0: the runner reports each job's outcome, so nothing is
    /// bisected. Kept so existing readers of the field still build.
    std::uint64_t bisections = 0;
    std::uint64_t quarantined = 0;    ///< kInvalid failures kept in the
                                      ///< outcome table.
    std::size_t queue_depth = 0;      ///< Current queue size.
    std::size_t peak_queue_depth = 0;
    /**
     * Per-phase latency decomposition of evaluated requests, in
     * nanoseconds: submit -> pop (queue_wait_ns), pop -> evaluation
     * start (batch_ns: gather/linger/prune), and the shared
     * runner evaluation (compute_ns). Always recorded — these are the
     * service's own ungated histograms — and fixed-size, so stats()
     * stays allocation-free.
     */
    metrics::HistogramSnapshot queue_wait_ns;
    metrics::HistogramSnapshot batch_ns;
    metrics::HistogramSnapshot compute_ns;
};

/// See the file comment.
class EvalService
{
  public:
    explicit EvalService(ServiceOptions options = {});

    /// Drains gracefully (shutdown(kDrain)) if still running.
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Submit one scenario for evaluation. Always returns a valid
     * ticket; admission failures surface as ticket status (kRejected /
     * kShed / kShutdown), not exceptions. Under kBlock this call blocks
     * while the queue is full.
     */
    EvalTicket submit(const eval::Scenario &scenario,
                      const SubmitOptions &submit_options = {});

    /**
     * Drive dispatch inline on the calling thread: pop and evaluate
     * batches (without lingering) until @p max_batches of them have
     * completed a job or the queue is empty, and return that count — a
     * batch whose jobs all failed or expired does not count. The
     * test-facing engine for `dispatchers = 0` services —
     * deterministic, no background timing.
     */
    int pump(int max_batches = 1);

    /// How shutdown() treats queued-but-unstarted work.
    enum class ShutdownMode
    {
        kDrain,  ///< Evaluate everything already admitted, then stop.
        kAbort,  ///< Complete queued work as kShutdown unevaluated and
                 ///< cancel evaluating batches at the next chunk.
    };

    /**
     * Stop the service: close admission, resolve the backlog per
     * @p mode, join the dispatchers, and complete every remaining
     * ticket (nothing ever hangs in kQueued/kRunning afterwards).
     * Idempotent; later submit() calls complete as kShutdown.
     */
    void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

    /// Counter snapshot (monotonic except queue_depth).
    ServiceStats stats() const;

  private:
    void dispatcher_loop();
    /// Evaluate one batch seeded from @p first; true if anything ran.
    bool process_batch(std::shared_ptr<detail::Job> first, bool linger);

    ServiceOptions options_;
    std::shared_ptr<detail::ServiceShared> shared_;
    std::vector<std::thread> dispatchers_;
};

}  // namespace bitwave::service
