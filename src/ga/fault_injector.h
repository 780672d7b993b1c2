/**
 * @file
 * Fault-injection harness for the GA's measurement loop. A
 * FaultInjector binds a FaultSchedule (util/faultpoint.h) to the
 * evaluation pipeline: evaluators ask it, at
 * each named fault point, whether this (kernel, attempt) faults —
 * and it throws a FaultError when the schedule says so, while
 * keeping thread-safe per-point injection counters for reporting.
 *
 * FaultyEvaluator makes any FitnessEvaluator faultable without
 * touching it: it injects the connection-level faults (timeout,
 * hang, glitched reading) around the wrapped evaluation — the
 * synthetic-fitness GA and service tests use it to prove
 * fault-tolerant evaluation end to end.
 *
 * The platform-bound evaluators (core/fitness.h) consult an injector
 * directly so that stream-truncation faults can unwind
 * Platform::streamKernel mid-capture.
 */

#ifndef EMSTRESS_GA_FAULT_INJECTOR_H
#define EMSTRESS_GA_FAULT_INJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "ga/ga_engine.h"
#include "util/faultpoint.h"

namespace emstress {
namespace ga {

/**
 * Timing model of the paper's host-target-instrument loop (Section
 * 3.2): the GA host ships each individual to the target, which
 * compiles and runs it while the host reads the analyzer. Costs
 * modeled lab time for measurements and faulted attempts.
 */
struct ConnectionLatency
{
    double deploy_s = 0.3;      ///< Ship + compile one individual.
    double start_stop_s = 0.1;  ///< Launch and kill the binary.
    double per_sample_s = 0.6;  ///< One instrument sample (the paper:
                                ///< 30 samples take ~18 s).
    double timeout_s = 5.0;     ///< Host-side wait before an
                                ///< unresponsive deploy/run/trigger
                                ///< is declared faulted; charged to
                                ///< every faulted attempt.
};

/**
 * Thread-safe injection driver around a FaultSchedule. Deciding
 * whether a fault fires is pure (see FaultSchedule); the injector
 * only adds the throw and the monotonic injection counters, so one
 * instance is safely shared by every evaluator clone of a parallel
 * batch.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultSchedule &schedule);

    /** The bound schedule (pure decision function). */
    const FaultSchedule &schedule() const { return schedule_; }

    /**
     * Fault point check: throws FaultError when the schedule fires
     * at (point, key, attempt), charging `cost_seconds` of modeled
     * lab time to the fault.
     */
    void at(FaultPoint point, std::uint64_t key,
            std::uint32_t attempt, double cost_seconds);

    /**
     * Record an injection performed by an external component built
     * from this schedule (e.g. a TruncatingSink about to throw).
     */
    void recordInjected(FaultPoint point);

    /** Faults injected so far at one point. */
    std::size_t injected(FaultPoint point) const;

    /** Faults injected so far across every point. */
    std::size_t totalInjected() const;

  private:
    FaultSchedule schedule_;
    std::array<std::atomic<std::uint64_t>, kFaultPointCount>
        injected_{};
};

/**
 * Decorator that injects connection-level faults around any fitness
 * evaluator: ConnectionTimeout and KernelHang before the wrapped
 * evaluation, GlitchedReading after it (the measurement completed
 * but the reading is unusable, so its full cost is wasted). Clones
 * share the injector — counters aggregate across workers — while the
 * wrapped evaluator clones normally.
 */
class FaultyEvaluator : public FitnessEvaluator
{
  public:
    /**
     * @param base     Wrapped evaluator; must outlive this object.
     * @param injector Shared fault driver (non-null).
     * @param latency  Timing model used to cost faulted attempts.
     */
    FaultyEvaluator(FitnessEvaluator &base,
                    std::shared_ptr<FaultInjector> injector,
                    const ConnectionLatency &latency = {});

    double evaluate(const isa::Kernel &kernel,
                    EvalDetail *detail) override;

    double evaluate(const isa::Kernel &kernel, EvalDetail *detail,
                    std::uint32_t attempt) override;

    std::string metricName() const override;

    std::unique_ptr<FitnessEvaluator> clone() const override;

  private:
    /** Clone constructor: owns the wrapped clone. */
    FaultyEvaluator(std::unique_ptr<FitnessEvaluator> owned,
                    std::shared_ptr<FaultInjector> injector,
                    const ConnectionLatency &latency);

    FitnessEvaluator *base_;
    std::unique_ptr<FitnessEvaluator> owned_;
    std::shared_ptr<FaultInjector> injector_;
    ConnectionLatency latency_;
};

} // namespace ga
} // namespace emstress

#endif // EMSTRESS_GA_FAULT_INJECTOR_H
