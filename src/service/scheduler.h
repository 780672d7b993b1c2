/**
 * @file
 * SearchService: the multi-tenant virus-search scheduler. Accepts
 * JobSpecs under admission control, queues them per tenant, and
 * interleaves their GA generations over one shared WorkerFleet using
 * weighted-fair queuing — the long-running service the ROADMAP's
 * north star asks for, built directly on the batch-era pieces
 * (GaDriver supplies resumable generation steps, BatchEvaluator
 * evaluates each generation on the fleet, the ArtifactStore serves
 * repeated specs).
 *
 * Scheduling model:
 *  - Admission control: a global in-flight cap and a per-tenant cap;
 *    jobs beyond either are rejected at submit (no unbounded queues).
 *  - Weighted-fair queuing: each tenant carries a virtual time,
 *    advanced by 1/weight per generation stepped. The scheduler
 *    always steps the lowest-virtual-time tenant with runnable work
 *    (ties broken by tenant name for determinism), round-robin over
 *    that tenant's jobs. A tenant going from idle to busy resyncs its
 *    virtual time to the busiest minimum, so idle time banks no
 *    credit.
 *  - The unit of scheduling is one GA generation (one GaDriver
 *    step). Fleet-level parallelism comes from within a generation's
 *    population batch, plus overlap across jobs when multiple runner
 *    threads step different jobs concurrently.
 *
 * Determinism contract: job results are bit-identical to direct
 * GaEngine runs of the same spec, for any fleet width and runner
 * count — GaDriver *is* GaEngine's execution path, evaluation noise
 * is kernel-derived, and each generation's batch writes slot-isolated
 * results merged in index order. Scheduling changes only latency and
 * interleaving, never result bits.
 *
 * Execution modes: `runners` background threads step jobs
 * continuously; with runners = 0 the service steps only when the
 * caller pumps stepOnce()/drainManual(), which makes scheduler
 * decisions single-threaded and exactly reproducible for tests.
 */

#ifndef EMSTRESS_SERVICE_SCHEDULER_H
#define EMSTRESS_SERVICE_SCHEDULER_H

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/artifact_store.h"
#include "service/job.h"
#include "util/worker_fleet.h"

namespace emstress {
namespace service {

/** Service-wide configuration. */
struct ServiceConfig
{
    /// Shared evaluation workers (0 = auto via EMSTRESS_THREADS /
    /// hardware concurrency). Every job's generation batches run on
    /// this one fleet; GaConfig::threads of submitted specs is
    /// ignored.
    std::size_t fleet_threads = 1;
    /// Scheduler threads stepping jobs; 0 = manual mode (the caller
    /// pumps stepOnce(), deterministic for tests).
    std::size_t runners = 1;
    /// Admission: maximum queued + running jobs service-wide.
    std::size_t max_jobs_in_flight = 256;
    /// Admission: maximum queued + running jobs per tenant.
    std::size_t max_jobs_per_tenant = 64;
    /// Fair-share weight of tenants absent from tenant_weights.
    double default_tenant_weight = 1.0;
    /// Per-tenant fair-share weights (higher = more generations per
    /// unit of contention).
    std::map<std::string, double> tenant_weights;
    /// Virtual-time discount of kInteractive generations: an
    /// interactive step charges 1 / (tenant weight * boost), so
    /// interactive-heavy tenants advance their clock slower and get
    /// picked more often. 1.0 makes classes order-only (interactive
    /// still drains ahead of batch within a tenant).
    double interactive_weight_boost = 4.0;
    /// Orphaned-stream grace window, in completed searches: a parked
    /// stream's job survives this many service-wide job completions
    /// before the reaper cancels it (still running) or retires its
    /// retained state (terminal). 0 = park forever (no reaping).
    std::size_t orphan_grace_searches = 64;
    /// Serve repeated specs from the content-addressed store.
    bool use_artifact_store = true;
    ArtifactStore::Config artifacts;
    /// Evaluator construction; null uses makePlatformEvaluator.
    EvaluatorFactory evaluator_factory;
};

/** Outcome of submit(). */
struct Submission
{
    JobId id = 0; ///< 0 when rejected.
    bool accepted = false;
    std::string reject_reason; ///< Set when rejected.
};

/** Point-in-time view of one job. */
struct JobStatus
{
    JobState state = JobState::kQueued;
    std::string tenant;
    PlatformPreset platform = PlatformPreset::kJunoA72;
    JobClass job_class = JobClass::kBatch;
    std::size_t generations_done = 0;
    std::size_t generations_total = 0; ///< 0 until the job started.
    bool cancel_requested = false;
    bool parked = false; ///< Stream orphaned, awaiting resume/reap.
};

/**
 * The scheduler. Thread-safe: submit/cancel/status/event calls may
 * come from any number of transport threads.
 */
class SearchService
{
  public:
    explicit SearchService(ServiceConfig config);

    SearchService(const SearchService &) = delete;
    SearchService &operator=(const SearchService &) = delete;

    /** Stops the runners; jobs still queued stay unfinished. */
    ~SearchService();

    /**
     * Admit a job. Rejections (capacity, invalid spec) are reported
     * in the Submission, not thrown. An accepted job has already
     * emitted its kAccepted event; a spec whose fingerprint hits the
     * artifact store completes instantly without occupying a slot.
     * A nonzero resume_token registers the job for kResume
     * re-attachment after a dropped stream (latest registration of a
     * token wins).
     */
    Submission submit(const JobSpec &spec,
                      std::uint64_t resume_token = 0);

    /**
     * Request cancellation. True when the job existed and was not
     * yet terminal: queued jobs cancel immediately, running jobs
     * drain their in-flight generation (skipped evaluations are
     * never scored or cached — BatchEvaluator guarantee 5) and then
     * report kCancelled. False, too, for a job whose search has
     * finished and whose artifact is being written: it completes.
     */
    bool cancel(JobId id);

    /** Status of a job. @throws ConfigError for an unknown id. */
    JobStatus status(JobId id) const;

    /**
     * Deliver the job's next undelivered event, blocking until one
     * is available. Terminal events (kCompleted/kCancelled/kFailed)
     * are the last a job ever emits. Events are retained after
     * delivery (the delivery cursor advances, the deque does not
     * shrink) so a resumed stream can replay them.
     * @throws ConfigError for an unknown id.
     */
    JobEvent waitEvent(JobId id);

    /** Deliver the job's next event if one is pending. */
    std::optional<JobEvent> pollEvent(JobId id);

    /// @{ Streaming re-attachment (the socket transport's resume
    /// machinery; in-process callers never need these).

    /**
     * Attach the calling stream to a job: unparks it, bumps its
     * stream epoch (superseding any previous stream blocked in
     * waitStreamEvent) and rewinds the delivery cursor so that
     * replay skips lifecycle events and progress the client already
     * acknowledged (generations_done <= last_acked_generation) but
     * repeats everything after, terminals included. Returns the new
     * stream epoch. @throws ConfigError for an unknown id.
     */
    std::uint64_t attachStream(JobId id,
                               std::uint64_t last_acked_generation);

    /**
     * waitEvent for an attached stream. @throws SimulationError when
     * a newer attachStream supersedes this stream or interruptWaits
     * fires — the caller's connection is no longer the job's stream.
     */
    JobEvent waitStreamEvent(JobId id, std::uint64_t stream_epoch);

    /**
     * Mark the job's stream orphaned (its connection died). A parked
     * job keeps running and retains its events for the grace window
     * (ServiceConfig::orphan_grace_searches); a kResume re-attaches
     * it. No-op when stream_epoch is stale (a newer stream owns the
     * job) or the id is unknown.
     */
    void parkStream(JobId id, std::uint64_t stream_epoch);

    /** Job registered under a resume token; 0 when unknown. */
    JobId resolveResumeToken(std::uint64_t token) const;

    /** Wake every blocked waitStreamEvent with an error (server
     *  shutdown path, so connection threads can be joined). */
    void interruptWaits();
    /// @}

    /**
     * Block until the job is terminal (does not consume events).
     * Returns the terminal state.
     */
    JobState waitTerminal(JobId id);

    /** A completed job's result; null unless state is kCompleted. */
    std::shared_ptr<const JobResult> result(JobId id) const;

    /**
     * Step one generation of the next schedulable job on the calling
     * thread (the manual-mode pump; also usable alongside runners).
     * False when nothing was runnable.
     */
    bool stepOnce();

    /** Pump stepOnce() until no job is runnable (manual mode). */
    void drainManual();

    /** The shared artifact store. */
    ArtifactStore &artifacts() { return store_; }

    /** The shared evaluation fleet. */
    WorkerFleet &fleet() { return fleet_; }

    /** Resolved configuration. */
    const ServiceConfig &config() const { return config_; }

  private:
    /**
     * Everything the service knows about one job. Mutable scheduling
     * state carries `// guards: mutex_` so emstress-lint R7 proves
     * every touch happens under the service-wide lock. `driver` and
     * `evaluator` are deliberately unannotated: ownership of a
     * stepped job is claimed via `stepping`, so exactly one thread
     * dereferences them outside the lock (see stepJob()).
     */
    struct Job
    {
        JobId id = 0;
        JobSpec spec;
        std::uint64_t fingerprint = 0;      // guards: mutex_
        JobState state = JobState::kQueued; // guards: mutex_
        bool cancel_requested = false;      // guards: mutex_
        /// A thread is inside driver->step(). guards: mutex_
        bool stepping = false;
        /// Search done, artifact being written off the lock; the job
        /// turns kCompleted once it is durable. guards: mutex_
        bool publishing = false;
        std::shared_ptr<std::atomic<bool>> cancel_flag;
        std::unique_ptr<ga::FitnessEvaluator> evaluator;
        std::unique_ptr<ga::GaDriver> driver;
        /// Full retained event history (never popped; replayable).
        std::deque<JobEvent> events; // guards: mutex_
        /// Delivery cursor into events. guards: mutex_
        std::size_t events_delivered = 0;
        std::shared_ptr<const JobResult> result; // guards: mutex_
        /// Client-generated resume token (0 = none). guards: mutex_
        std::uint64_t resume_token = 0;
        /// Bumped per attachStream; stale streams are superseded.
        /// guards: mutex_
        std::uint64_t stream_epoch = 0;
        /// Stream orphaned (connection died). guards: mutex_
        bool parked = false;
        /// Monotonic submit time (metrics). guards: mutex_
        double submit_s = 0.0;
        bool first_step_recorded = false; // guards: mutex_
    };

    /** Per-tenant fair-queuing state (all of it under mutex_). */
    struct Tenant
    {
        double weight = 1.0; // guards: mutex_
        /// Virtual time consumed. guards: mutex_
        double vtime = 0.0;
        /// Round-robin runnable jobs, one ring per priority class;
        /// kInteractive drains ahead of kBatch. guards: mutex_
        std::array<std::deque<JobId>, kJobClassCount> queues;
        /// Queued + running jobs. guards: mutex_
        std::size_t live = 0;
    };

    Job &jobRef(JobId id);
    const Job &jobRef(JobId id) const;

    /** Smallest virtual time among tenants with live jobs. */
    double minActiveVtimeLocked() const;

    /** Enqueue a job as runnable on its tenant. */
    void enqueueRunnableLocked(Job &job);

    /** Pick and claim the next job to step; null when none. */
    Job *pickNextLocked();

    /**
     * Step one generation of a claimed job. Called with the lock
     * held and job.stepping set; drops the lock around evaluation.
     */
    void stepJob(std::unique_lock<std::mutex> &lock, Job &job);

    /// @{ Terminal transitions (lock held).

    /**
     * Complete a job whose driver is done: retire it under the lock,
     * drop the lock to insert its artifact into the store (encoding
     * and disk I/O), then re-take it and publish kCompleted.
     */
    void finalizeCompleted(std::unique_lock<std::mutex> &lock,
                           Job &job);
    void finalizeCancelled(Job &job);
    void finalizeFailed(Job &job, const std::string &error);
    void finalizeCommon(Job &job, JobEvent event);
    /// @}

    /** Request cancellation of a job (lock held); the body of
     *  cancel() and the reaper's expiry action. */
    bool cancelLocked(Job &job);

    /**
     * Reap parked streams whose grace window lapsed: cancel the ones
     * still running, erase the terminal ones (events, result, token
     * registration). Runs after every completed search (lock held).
     */
    void reapParkedLocked();

    void runnerLoop();

    ServiceConfig config_;
    ArtifactStore store_;
    WorkerFleet fleet_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;   ///< Runnable work appeared.
    std::condition_variable events_cv_; ///< Job events/state changed.
    std::unordered_map<JobId, std::unique_ptr<Job>> jobs_; // guards: mutex_
    /// std::map: scheduler decisions iterate tenants, and iteration
    /// order must be deterministic (and lint-clean). guards: mutex_
    std::map<std::string, Tenant> tenants_;
    /// Resume-token registry (ordered for deterministic reaping).
    /// guards: mutex_
    std::map<std::uint64_t, JobId> resume_tokens_;
    /// Parked job -> searches_finished_ at park time (the grace
    /// clock; ordered so the reaper visits deterministically).
    /// guards: mutex_
    std::map<JobId, std::size_t> parked_jobs_;
    JobId next_id_ = 1;          // guards: mutex_
    std::size_t live_jobs_ = 0;  // guards: mutex_
    std::size_t runnable_ = 0;   // guards: mutex_
    /// Service-wide terminal transitions (the reaper's clock).
    /// guards: mutex_
    std::size_t searches_finished_ = 0;
    bool reaping_ = false;       // guards: mutex_ (reentrancy guard)
    bool waits_interrupted_ = false; // guards: mutex_
    bool stop_ = false;          // guards: mutex_

    std::vector<std::thread> runners_;
};

} // namespace service
} // namespace emstress

#endif // EMSTRESS_SERVICE_SCHEDULER_H
