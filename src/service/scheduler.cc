/**
 * @file
 * SearchService implementation.
 *
 * Locking: one mutex guards every scheduling structure (jobs,
 * tenants, queues, events). It is dropped for the expensive parts —
 * evaluator construction and driver->step(), i.e. the platform
 * simulation, and a completed job's artifact write (encoding and
 * disk I/O) — so transports and other runners stay responsive while
 * generations evaluate on the fleet. A job being stepped is claimed
 * via Job::stepping, so at most one thread is ever inside a given
 * job's driver; a completing job is claimed via Job::publishing until
 * its kCompleted event is out.
 *
 * Latency metrics recorded here (queue-wait, job latency) are
 * observability only, never control flow: the scheduler's decisions
 * are pure functions of submission order and virtual time, which is
 * what keeps manual-mode tests exactly reproducible. Wall-clock reads
 * live behind metrics::enabled() and are sanctioned for scheduler/
 * transport files only (see emstress-lint) — worker evaluation paths
 * stay clock-free.
 */

#include "service/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/metrics.h"

namespace emstress {
namespace service {

namespace {

/** Progress payload of one reportable generation record. */
JobProgress
progressOf(const ga::GenerationRecord &rec, const ga::GaDriver &driver)
{
    JobProgress p;
    p.generation = rec.generation;
    p.generations_done = driver.generationsDone();
    p.generations_total = driver.totalGenerations();
    p.best_fitness = rec.best_fitness;
    p.mean_fitness = rec.mean_fitness;
    p.dominant_freq_hz = rec.best_detail.dominant_freq_hz;
    return p;
}

/** Queue ring index of a class (interactive drains first). */
std::size_t
classIndex(JobClass job_class)
{
    return static_cast<std::size_t>(job_class);
}

} // namespace

SearchService::SearchService(ServiceConfig config)
    : config_(std::move(config)), store_(config_.artifacts),
      fleet_(config_.fleet_threads)
{
    requireConfig(config_.max_jobs_in_flight >= 1,
                  "service needs capacity for at least one job");
    requireConfig(config_.max_jobs_per_tenant >= 1,
                  "tenants need capacity for at least one job");
    requireConfig(config_.default_tenant_weight > 0.0,
                  "tenant weights must be positive");
    requireConfig(config_.interactive_weight_boost > 0.0,
                  "interactive weight boost must be positive");
    for (const auto &[name, weight] : config_.tenant_weights) {
        (void)name;
        requireConfig(weight > 0.0, "tenant weights must be positive");
    }
    if (!config_.evaluator_factory)
        config_.evaluator_factory = &makePlatformEvaluator;
    runners_.reserve(config_.runners);
    for (std::size_t r = 0; r < config_.runners; ++r)
        runners_.emplace_back([this] { runnerLoop(); });
}

SearchService::~SearchService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : runners_)
        t.join();
}

SearchService::Job &
SearchService::jobRef(JobId id)
{
    const auto it = jobs_.find(id);
    requireConfig(it != jobs_.end(), "unknown job id");
    return *it->second;
}

const SearchService::Job &
SearchService::jobRef(JobId id) const
{
    const auto it = jobs_.find(id);
    requireConfig(it != jobs_.end(), "unknown job id");
    return *it->second;
}

double
SearchService::minActiveVtimeLocked() const
{
    double min_v = 0.0;
    bool any = false;
    for (const auto &[name, tenant] : tenants_) {
        (void)name;
        // Live (not merely queued): a tenant whose only job is
        // momentarily being stepped is still active, and must keep
        // its fair-share credit.
        if (tenant.live == 0)
            continue;
        if (!any || tenant.vtime < min_v)
            min_v = tenant.vtime;
        any = true;
    }
    return any ? min_v : 0.0;
}

void
SearchService::enqueueRunnableLocked(Job &job)
{
    Tenant &tenant = tenants_[job.spec.tenant];
    tenant.queues[classIndex(job.spec.job_class)].push_back(job.id);
    ++runnable_;
    work_cv_.notify_one();
}

SearchService::Job *
SearchService::pickNextLocked()
{
    while (runnable_ > 0) {
        Tenant *best = nullptr;
        for (auto &[name, tenant] : tenants_) {
            (void)name;
            if (tenant.queues[0].empty() && tenant.queues[1].empty())
                continue;
            // Strict < plus in-order iteration of the name-sorted
            // tenant map = deterministic tie-break by tenant name.
            if (best == nullptr || tenant.vtime < best->vtime)
                best = &tenant;
        }
        if (best == nullptr)
            return nullptr; // runnable_ out of sync; defensive.
        // Interactive work drains ahead of batch within the tenant.
        auto &ring =
            best->queues[classIndex(JobClass::kInteractive)].empty()
                ? best->queues[classIndex(JobClass::kBatch)]
                : best->queues[classIndex(JobClass::kInteractive)];
        const JobId id = ring.front();
        ring.pop_front();
        --runnable_;
        Job &job = jobRef(id);
        // A queued entry may have been cancelled out from under the
        // queue; skip it rather than charging the tenant for it.
        if (isTerminal(job.state) || job.stepping)
            continue;
        // An interactive generation charges less virtual time, so
        // interactive-heavy tenants come back around sooner.
        const double boost =
            job.spec.job_class == JobClass::kInteractive
                ? config_.interactive_weight_boost
                : 1.0;
        best->vtime += 1.0 / (best->weight * boost);
        job.stepping = true;
        return &job;
    }
    return nullptr;
}

void
SearchService::stepJob(std::unique_lock<std::mutex> &lock, Job &job)
{
    const bool observe = metrics::enabled();
    if (job.state == JobState::kQueued) {
        job.state = JobState::kRunning;
        JobEvent ev;
        ev.type = JobEventType::kStarted;
        ev.id = job.id;
        job.events.push_back(std::move(ev));
        events_cv_.notify_all();
    }
    if (observe && !job.first_step_recorded) {
        job.first_step_recorded = true;
        metrics::Registry::instance().recordLatency(
            "service.queue_wait",
            metrics::monotonicSeconds() - job.submit_s);
    }

    // The expensive part runs unlocked: evaluator construction spins
    // up a platform replica, and one driver step simulates a whole
    // generation on the fleet.
    ga::GaDriver *driver = job.driver.get();
    const JobSpec &spec = job.spec;
    const auto cancel_flag = job.cancel_flag;
    lock.unlock();

    std::string error;
    const ga::GenerationRecord *rec = nullptr;
    std::unique_ptr<ga::FitnessEvaluator> new_evaluator;
    std::unique_ptr<ga::GaDriver> new_driver;
    try {
        if (driver == nullptr) {
            new_evaluator = config_.evaluator_factory(spec);
            requireSim(new_evaluator != nullptr,
                       "evaluator factory returned null");
            ga::BatchHooks hooks;
            hooks.fleet = &fleet_;
            hooks.cancel = cancel_flag;
            new_driver = std::make_unique<ga::GaDriver>(
                presetPool(spec.platform), spec.ga, *new_evaluator,
                std::vector<isa::Kernel>{}, hooks);
            driver = new_driver.get();
        }
        rec = driver->step();
    } catch (const std::exception &e) {
        error = e.what();
        if (error.empty())
            error = "unknown evaluation error";
    }

    lock.lock();
    if (new_evaluator)
        job.evaluator = std::move(new_evaluator);
    if (new_driver)
        job.driver = std::move(new_driver);
    job.stepping = false;

    if (!error.empty()) {
        finalizeFailed(job, error);
        return;
    }
    if (observe)
        metrics::Registry::instance().add(
            "service.generations_stepped");
    if (rec != nullptr) {
        JobEvent ev;
        ev.type = JobEventType::kProgress;
        ev.id = job.id;
        ev.progress = progressOf(*rec, *job.driver);
        job.events.push_back(std::move(ev));
        events_cv_.notify_all();
    }
    if (job.cancel_requested || job.driver->cancelled()) {
        finalizeCancelled(job);
        return;
    }
    if (job.driver->done()) {
        finalizeCompleted(lock, job);
        return;
    }
    enqueueRunnableLocked(job);
}

void
SearchService::finalizeCommon(Job &job, JobEvent event)
{
    Tenant &tenant = tenants_[job.spec.tenant];
    requireSim(tenant.live > 0, "tenant live-count underflow");
    --tenant.live;
    requireSim(live_jobs_ > 0, "service live-count underflow");
    --live_jobs_;
    if (metrics::enabled()) {
        auto &reg = metrics::Registry::instance();
        const double latency =
            metrics::monotonicSeconds() - job.submit_s;
        reg.recordLatency("service.job_latency", latency);
        // Per-class ledger: the priority machinery is only worth its
        // complexity if interactive p95/p99 visibly beats batch.
        reg.recordLatency(std::string("service.job_latency.")
                              + jobClassName(job.spec.job_class),
                          latency);
        if (job.spec.deadline_s > 0.0)
            reg.add(latency <= job.spec.deadline_s
                        ? "service.deadline_met"
                        : "service.deadline_missed");
    }
    job.events.push_back(std::move(event));
    events_cv_.notify_all();
    ++searches_finished_;
    reapParkedLocked();
}

void
SearchService::finalizeCompleted(std::unique_lock<std::mutex> &lock,
                                 Job &job)
{
    // 1. Retire the job under the lock. Completion is committed from
    //    here on: cancel() reports false, the reaper leaves the job
    //    alone, and status() reads progress off the result.
    auto result = std::make_shared<JobResult>();
    // Report the metric that actually drove the search: active-EMFI
    // jobs (and substituted test evaluators) are not described by the
    // passive virus-metric enum.
    result->metric = job.evaluator
        ? job.evaluator->metricName()
        : core::virusMetricName(job.spec.metric);
    result->ga = job.driver->finish();
    result->fingerprint = job.fingerprint;
    job.result = result;
    job.publishing = true;
    // Retire the heavy per-job machinery eagerly: hundreds of live
    // platform replicas would otherwise linger until the map dies.
    // The driver refers to the evaluator, so it goes first.
    std::unique_ptr<ga::FitnessEvaluator> evaluator =
        std::move(job.evaluator);
    std::unique_ptr<ga::GaDriver> driver = std::move(job.driver);
    const std::uint64_t fingerprint = job.fingerprint;
    const PlatformPreset preset = job.spec.platform;

    // 2. Off the lock: free the machinery, then make the artifact
    //    durable (encode, write temps, rename into place).
    lock.unlock();
    driver.reset();
    evaluator.reset();
    if (config_.use_artifact_store) {
        store_.insert(fingerprint, result, preset);
        // Logical time = completed searches.
        store_.advanceEpoch();
    }
    lock.lock();

    // 3. Publish: the completion event follows the durable write, so
    //    a client that saw kCompleted finds the artifact on disk.
    job.publishing = false;
    job.state = JobState::kCompleted;
    if (metrics::enabled())
        metrics::Registry::instance().add("service.jobs_completed");
    JobEvent ev;
    ev.type = JobEventType::kCompleted;
    ev.id = job.id;
    ev.result = std::move(result);
    finalizeCommon(job, std::move(ev));
}

void
SearchService::finalizeCancelled(Job &job)
{
    job.state = JobState::kCancelled;
    job.driver.reset();
    job.evaluator.reset();
    if (metrics::enabled())
        metrics::Registry::instance().add("service.jobs_cancelled");
    JobEvent ev;
    ev.type = JobEventType::kCancelled;
    ev.id = job.id;
    finalizeCommon(job, std::move(ev));
}

void
SearchService::finalizeFailed(Job &job, const std::string &error)
{
    job.state = JobState::kFailed;
    job.driver.reset();
    job.evaluator.reset();
    if (metrics::enabled())
        metrics::Registry::instance().add("service.jobs_failed");
    JobEvent ev;
    ev.type = JobEventType::kFailed;
    ev.id = job.id;
    ev.error = error;
    finalizeCommon(job, std::move(ev));
}

Submission
SearchService::submit(const JobSpec &spec,
                      std::uint64_t resume_token)
{
    Submission out;
    try {
        ga::validateGaConfig(spec.ga);
        requireConfig(!spec.tenant.empty(), "tenant must be named");
    } catch (const ConfigError &e) {
        out.reject_reason = e.what();
        if (metrics::enabled())
            metrics::Registry::instance().add("service.jobs_rejected");
        return out;
    }

    const std::uint64_t fingerprint = jobFingerprint(spec);
    std::shared_ptr<const JobResult> served;
    if (config_.use_artifact_store)
        served = store_.fetch(fingerprint);

    std::lock_guard<std::mutex> lock(mutex_);
    if (metrics::enabled()) {
        auto &reg = metrics::Registry::instance();
        reg.add("service.jobs_submitted");
        if (config_.use_artifact_store)
            reg.add(served ? "service.artifact_hits"
                           : "service.artifact_misses");
    }

    if (served) {
        // Content hit: the stored artifact IS the result this spec's
        // search would produce. Complete instantly; no slot consumed.
        Job &job = *jobs_
                        .emplace(next_id_,
                                 std::make_unique<Job>())
                        .first->second;
        job.id = next_id_++;
        job.spec = spec;
        job.fingerprint = fingerprint;
        job.state = JobState::kCompleted;
        job.resume_token = resume_token;
        if (resume_token != 0)
            resume_tokens_[resume_token] = job.id;
        auto result = std::make_shared<JobResult>(*served);
        result->from_artifact_store = true;
        job.result = result;
        JobEvent accepted;
        accepted.type = JobEventType::kAccepted;
        accepted.id = job.id;
        job.events.push_back(std::move(accepted));
        JobEvent completed;
        completed.type = JobEventType::kCompleted;
        completed.id = job.id;
        completed.result = std::move(result);
        job.events.push_back(std::move(completed));
        events_cv_.notify_all();
        if (metrics::enabled())
            metrics::Registry::instance().add(
                "service.jobs_completed");
        out.id = job.id;
        out.accepted = true;
        return out;
    }

    if (live_jobs_ >= config_.max_jobs_in_flight) {
        out.reject_reason = "service at capacity";
        if (metrics::enabled())
            metrics::Registry::instance().add("service.jobs_rejected");
        return out;
    }
    Tenant &tenant = tenants_[spec.tenant];
    if (tenant.weight == 1.0 && tenant.vtime == 0.0
        && tenant.live == 0 && tenant.queues[0].empty()
        && tenant.queues[1].empty()) {
        // Freshly materialized tenant: resolve its weight once.
        const auto it = config_.tenant_weights.find(spec.tenant);
        tenant.weight = it != config_.tenant_weights.end()
            ? it->second
            : config_.default_tenant_weight;
    }
    if (tenant.live >= config_.max_jobs_per_tenant) {
        out.reject_reason = "tenant at capacity";
        if (metrics::enabled())
            metrics::Registry::instance().add("service.jobs_rejected");
        return out;
    }

    Job &job =
        *jobs_.emplace(next_id_, std::make_unique<Job>())
             .first->second;
    job.id = next_id_++;
    job.spec = spec;
    job.fingerprint = fingerprint;
    job.state = JobState::kQueued;
    job.cancel_flag = makeCancelFlag();
    job.resume_token = resume_token;
    if (resume_token != 0)
        resume_tokens_[resume_token] = job.id;
    if (metrics::enabled())
        job.submit_s = metrics::monotonicSeconds();
    if (tenant.live == 0) {
        // Idle -> busy: forfeit banked credit so a long-idle tenant
        // cannot monopolize the fleet on return. (The tenant itself
        // is excluded from the minimum — its live count is still 0.)
        tenant.vtime = std::max(tenant.vtime, minActiveVtimeLocked());
    }
    ++tenant.live;
    ++live_jobs_;
    JobEvent ev;
    ev.type = JobEventType::kAccepted;
    ev.id = job.id;
    job.events.push_back(std::move(ev));
    events_cv_.notify_all();
    enqueueRunnableLocked(job);
    out.id = job.id;
    out.accepted = true;
    return out;
}

bool
SearchService::cancelLocked(Job &job)
{
    if (isTerminal(job.state) || job.cancel_requested
        || job.publishing)
        return false;
    job.cancel_requested = true;
    if (job.cancel_flag)
        job.cancel_flag->store(true, std::memory_order_relaxed);
    if (!job.stepping) {
        // Not inside a step: cancel takes effect immediately. Remove
        // the queue entry so the tenant is never charged for it.
        Tenant &tenant = tenants_[job.spec.tenant];
        auto &ring = tenant.queues[classIndex(job.spec.job_class)];
        const auto pos =
            std::find(ring.begin(), ring.end(), job.id);
        if (pos != ring.end()) {
            ring.erase(pos);
            requireSim(runnable_ > 0, "runnable-count underflow");
            --runnable_;
        }
        finalizeCancelled(job);
    }
    // else: the stepping thread observes the fired token once the
    // fleet drains its batch and finalizes the job itself.
    return true;
}

bool
SearchService::cancel(JobId id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    return cancelLocked(*it->second);
}

void
SearchService::reapParkedLocked()
{
    if (reaping_ || config_.orphan_grace_searches == 0)
        return;
    reaping_ = true;
    for (auto it = parked_jobs_.begin();
         it != parked_jobs_.end();) {
        if (searches_finished_ - it->second
            <= config_.orphan_grace_searches) {
            ++it;
            continue;
        }
        const auto jit = jobs_.find(it->first);
        if (jit == jobs_.end()) {
            it = parked_jobs_.erase(it);
            continue;
        }
        Job &job = *jit->second;
        if (!isTerminal(job.state)) {
            // A still-running orphan past its grace: cancel it. Its
            // retained state is reaped on a later pass, once the
            // cancellation drains to a terminal event.
            cancelLocked(job);
            if (!isTerminal(job.state)) {
                ++it;
                continue;
            }
        }
        if (job.resume_token != 0) {
            const auto tok = resume_tokens_.find(job.resume_token);
            if (tok != resume_tokens_.end()
                && tok->second == job.id)
                resume_tokens_.erase(tok);
        }
        jobs_.erase(jit);
        it = parked_jobs_.erase(it);
        if (metrics::enabled())
            metrics::Registry::instance().add(
                "service.streams_reaped");
    }
    reaping_ = false;
}

JobStatus
SearchService::status(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Job &job = jobRef(id);
    JobStatus st;
    st.state = job.state;
    st.tenant = job.spec.tenant;
    st.platform = job.spec.platform;
    st.job_class = job.spec.job_class;
    st.cancel_requested = job.cancel_requested;
    st.parked = job.parked;
    if (job.driver) {
        st.generations_done = job.driver->generationsDone();
        st.generations_total = job.driver->totalGenerations();
    } else if (job.result) {
        st.generations_total = job.result->ga.history.size();
        st.generations_done = st.generations_total;
    }
    return st;
}

JobEvent
SearchService::waitEvent(JobId id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Job &job = jobRef(id);
    events_cv_.wait(lock, [&job] {
        return job.events_delivered < job.events.size();
    });
    // Copy, not pop: the history stays replayable for resume.
    return job.events[job.events_delivered++];
}

std::optional<JobEvent>
SearchService::pollEvent(JobId id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Job &job = jobRef(id);
    if (job.events_delivered >= job.events.size())
        return std::nullopt;
    return job.events[job.events_delivered++];
}

std::uint64_t
SearchService::attachStream(JobId id,
                            std::uint64_t last_acked_generation)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Job &job = jobRef(id);
    job.parked = false;
    parked_jobs_.erase(id);
    ++job.stream_epoch;
    // Rewind the delivery cursor: lifecycle events (kAccepted is
    // acked by the submit/resume reply itself, kStarted is implicit
    // in the first progress frame) and progress the client already
    // processed are skipped; everything past the ack — terminals
    // included — replays.
    std::size_t cursor = 0;
    while (cursor < job.events.size()) {
        const JobEvent &ev = job.events[cursor];
        const bool skippable =
            ev.type == JobEventType::kAccepted
            || ev.type == JobEventType::kStarted
            || (ev.type == JobEventType::kProgress
                && ev.progress.generations_done
                       <= static_cast<std::size_t>(
                           last_acked_generation));
        if (!skippable)
            break;
        ++cursor;
    }
    job.events_delivered = cursor;
    // Wake a superseded stream blocked on this job so it can bail.
    events_cv_.notify_all();
    return job.stream_epoch;
}

JobEvent
SearchService::waitStreamEvent(JobId id, std::uint64_t stream_epoch)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Job &job = jobRef(id);
    events_cv_.wait(lock, [&] {
        return waits_interrupted_
            || job.stream_epoch != stream_epoch
            || job.events_delivered < job.events.size();
    });
    if (waits_interrupted_)
        throwSimulationError("service waits interrupted");
    if (job.stream_epoch != stream_epoch)
        throwSimulationError("stream superseded by a newer attach");
    return job.events[job.events_delivered++];
}

void
SearchService::parkStream(JobId id, std::uint64_t stream_epoch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return;
    Job &job = *it->second;
    // Stale epoch: a newer stream owns the job now; losing the old
    // connection says nothing about the new one.
    if (job.stream_epoch != stream_epoch || job.parked)
        return;
    job.parked = true;
    parked_jobs_[id] = searches_finished_;
    if (metrics::enabled())
        metrics::Registry::instance().add("service.streams_parked");
}

JobId
SearchService::resolveResumeToken(std::uint64_t token) const
{
    if (token == 0)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = resume_tokens_.find(token);
    return it == resume_tokens_.end() ? 0 : it->second;
}

void
SearchService::interruptWaits()
{
    std::lock_guard<std::mutex> lock(mutex_);
    waits_interrupted_ = true;
    events_cv_.notify_all();
}

JobState
SearchService::waitTerminal(JobId id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Job &job = jobRef(id);
    events_cv_.wait(lock, [&job] { return isTerminal(job.state); });
    return job.state;
}

std::shared_ptr<const JobResult>
SearchService::result(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Job &job = jobRef(id);
    return job.state == JobState::kCompleted ? job.result : nullptr;
}

bool
SearchService::stepOnce()
{
    std::unique_lock<std::mutex> lock(mutex_);
    Job *job = pickNextLocked();
    if (job == nullptr)
        return false;
    stepJob(lock, *job);
    return true;
}

void
SearchService::drainManual()
{
    while (stepOnce()) {
    }
}

void
SearchService::runnerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock,
                      [this] { return stop_ || runnable_ > 0; });
        if (stop_)
            return;
        Job *job = pickNextLocked();
        if (job == nullptr)
            continue;
        stepJob(lock, *job);
    }
}

} // namespace service
} // namespace emstress
