/**
 * @file
 * The search service's job model: what a tenant submits (JobSpec), how
 * the service names it (JobId), the lifecycle it moves through
 * (JobState), what the service streams back while it runs (JobEvent)
 * and what it returns at the end (JobResult).
 *
 * A job is a complete, self-contained description of one virus
 * search: platform preset + platform seed, feedback metric, GA budget
 * and evaluation settings. Everything that can change the search
 * *result* is part of the spec — which is what makes jobs
 * content-addressable (jobFingerprint) and lets the artifact store
 * serve a byte-identical result for a repeated spec without
 * re-searching. The tenant name is identity, not content: two tenants
 * submitting the same spec share one artifact.
 */

#ifndef EMSTRESS_SERVICE_JOB_H
#define EMSTRESS_SERVICE_JOB_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/emfi.h"
#include "core/virus_generator.h"
#include "ga/ga_engine.h"

namespace emstress {
namespace service {

/** Service-wide job identifier (1-based; 0 is "no job"). */
using JobId = std::uint64_t;

/** The built-in platforms a job may target (Table 1). */
enum class PlatformPreset : std::uint8_t
{
    kJunoA72 = 0, ///< Juno R2 Cortex-A72 domain (OC-DSO + SCL).
    kJunoA53 = 1, ///< Juno R2 Cortex-A53 domain (no visibility).
    kAthlon = 2,  ///< AMD Athlon II X4 (Kelvin pads).
};

/**
 * Calibrated platform config of a preset: one immutable instance per
 * preset, built by the platform::*Config() factory on first use and
 * shared for the life of the process (thread-safe; every call returns
 * the same address). The factories re-solve the die-tank calibration
 * on every call, so service code reaches configs only through here.
 */
const platform::PlatformConfig &presetConfig(PlatformPreset preset);

/**
 * The instruction pool a preset's platform draws kernels from —
 * content-identical to Platform(presetConfig(p), seed).pool(), so GA
 * runs seeded from either produce the same individuals. One shared
 * immutable instance per ISA family, picked from the preset alone:
 * never builds or calibrates a config, so it is cheap enough for the
 * wire codec and the artifact store's hot paths.
 */
const isa::InstructionPool &presetPool(PlatformPreset preset);

/** Stable lowercase name of a preset ("a72", "a53", "athlon"). */
std::string presetName(PlatformPreset preset);

/** Inverse of presetName; false when the name is unknown. */
bool presetFromName(const std::string &name, PlatformPreset &out);

/** What a job searches for. */
enum class JobMode : std::uint8_t
{
    kPassiveVirus = 0, ///< Maximize voltage noise (the classic job).
    kActiveEmfi = 1,   ///< Minimize faulting pulse energy.
};

/** Stable lowercase name of a mode ("virus", "emfi"). */
std::string jobModeName(JobMode mode);

/**
 * Scheduling priority class of a job. Classes multiply the tenant's
 * fair-share weight (an interactive generation charges less virtual
 * time than a batch one) and interactive work is drained ahead of
 * batch work within a tenant. Like the tenant name, the class is
 * identity, not content: it never enters the job fingerprint, so an
 * interactive and a batch submission of the same spec share one
 * artifact.
 */
enum class JobClass : std::uint8_t
{
    kBatch = 0,       ///< Throughput work, the default.
    kInteractive = 1, ///< Latency-sensitive; scheduled ahead.
};

/** Number of distinct job classes. */
inline constexpr std::size_t kJobClassCount = 2;

/** Stable lowercase name of a class ("batch", "interactive"). */
std::string jobClassName(JobClass job_class);

/**
 * Active-EMFI portion of a job spec: the victim and the pulse search
 * space, all result-defining and therefore fingerprinted. The victim
 * kernel is derived deterministically from (platform preset,
 * victim_seed, victim_length) so it never crosses the wire as code.
 */
struct EmfiJobSpec
{
    std::uint64_t victim_seed = 7; ///< Seeds the victim kernel draw.
    std::size_t victim_length = 8; ///< Victim loop-body length.
    std::size_t target_slot = 3;   ///< Victim instruction to fault.
    /// Fault-effects manifestation/corruption schedule seed.
    std::uint64_t schedule_seed = 1;
    double t0_max_s = 2e-6;        ///< Pulse-grid trigger-time span.
    double amplitude_max_a = 30.0; ///< Pulse-grid amplitude ceiling.
};

/** One submitted search job. */
struct JobSpec
{
    /// Tenant the job is accounted to (admission caps and fair
    /// queuing); never part of the job's content fingerprint.
    std::string tenant = "default";
    PlatformPreset platform = PlatformPreset::kJunoA72;
    /// Seeds the platform's instrument-noise streams.
    std::uint64_t platform_seed = 42;
    core::VirusMetric metric = core::VirusMetric::EmAmplitude;
    ga::GaConfig ga;         ///< GA budget (seed included).
    core::EvalSettings eval; ///< Measurement settings.
    JobMode mode = JobMode::kPassiveVirus;
    EmfiJobSpec emfi;        ///< Active-mode fields (ignored, and
                             ///< unfingerprinted, in passive mode).
    /// Priority class (scheduling identity, never fingerprinted).
    JobClass job_class = JobClass::kBatch;
    /// Target completion latency in seconds; 0 = no deadline. Purely
    /// observability (deadline-met/missed counters and the per-class
    /// latency ledger) — the scheduler never reorders on it, so
    /// results stay a pure function of the spec.
    double deadline_s = 0.0;
};

/** Job lifecycle. */
enum class JobState : std::uint8_t
{
    kQueued = 0,    ///< Admitted, waiting for its first generation.
    kRunning = 1,   ///< At least one generation stepped.
    kCompleted = 2, ///< Result available.
    kCancelled = 3, ///< Cancelled before completion; drained cleanly.
    kFailed = 4,    ///< An evaluation raised a non-fault error.
};

/** Display name of a state. */
std::string jobStateName(JobState state);

/** True for states a job never leaves. */
inline bool
isTerminal(JobState state)
{
    return state == JobState::kCompleted || state == JobState::kCancelled
        || state == JobState::kFailed;
}

/** What a finished job returns. */
struct JobResult
{
    std::string metric;  ///< Metric that drove the search.
    ga::GaResult ga;     ///< Full result: best, history, EvalStats.
    bool from_artifact_store = false; ///< Served, not searched.
    std::uint64_t fingerprint = 0;    ///< Content address of the spec.
};

/** Streamed progress of a running job (one generation). */
struct JobProgress
{
    std::size_t generation = 0;        ///< Reported generation index.
    std::size_t generations_done = 0;  ///< Steps executed (all phases).
    std::size_t generations_total = 0; ///< Steps the job will run.
    double best_fitness = 0.0;
    double mean_fitness = 0.0;
    double dominant_freq_hz = 0.0;
};

/** Event kinds a job emits over its lifetime. */
enum class JobEventType : std::uint8_t
{
    kAccepted = 0,  ///< Admitted and queued.
    kStarted = 1,   ///< First generation about to run.
    kProgress = 2,  ///< One reportable generation finished.
    kCompleted = 3, ///< Terminal: result attached.
    kCancelled = 4, ///< Terminal: drained without a result.
    kFailed = 5,    ///< Terminal: error attached.
};

/** One event in a job's stream. */
struct JobEvent
{
    JobEventType type = JobEventType::kAccepted;
    JobId id = 0;
    JobProgress progress; ///< kProgress payload.
    /// kCompleted payload (shared with the artifact store).
    std::shared_ptr<const JobResult> result;
    std::string error; ///< kFailed payload.
};

/**
 * Human-readable serialization of every result-defining field of a
 * job — the preimage of its content address. Mirrors the cross-bench
 * cache's budgetDescription contract: anything that can change the
 * search result must appear here, so a stored artifact can never be
 * served for a spec that would have searched differently. The tenant
 * is deliberately absent; the noise model version (kNoiseModelVersion)
 * is present, so artifacts computed under an older measurement model
 * miss instead of being served as current.
 */
std::string jobDescription(const JobSpec &spec);

/** Content address of a spec: FNV-1a of jobDescription. */
std::uint64_t jobFingerprint(const JobSpec &spec);

/**
 * Build the platform-backed fitness evaluator a spec asks for. The
 * returned evaluator owns its platform replica (safe to keep past
 * this call) and clones for parallel batches. This is the service's
 * default evaluator factory; tests substitute synthetic ones.
 */
std::unique_ptr<ga::FitnessEvaluator>
makePlatformEvaluator(const JobSpec &spec);

/**
 * Pluggable evaluator construction: maps a spec to the evaluator its
 * job runs against. Lets tests and benches run the full service path
 * with cheap deterministic evaluators (or fault-injecting wrappers)
 * instead of platform simulation.
 */
using EvaluatorFactory =
    std::function<std::unique_ptr<ga::FitnessEvaluator>(
        const JobSpec &)>;

} // namespace service
} // namespace emstress

#endif // EMSTRESS_SERVICE_JOB_H
