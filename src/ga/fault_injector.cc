/**
 * @file
 * Fault injector implementation.
 */

#include "ga/fault_injector.h"

#include <utility>

namespace emstress {
namespace ga {

FaultInjector::FaultInjector(const FaultSchedule &schedule)
    : schedule_(schedule)
{}

void
FaultInjector::at(FaultPoint point, std::uint64_t key,
                  std::uint32_t attempt, double cost_seconds)
{
    if (!schedule_.fires(point, key, attempt))
        return;
    recordInjected(point);
    throw FaultError(point, key, attempt, cost_seconds);
}

void
FaultInjector::recordInjected(FaultPoint point)
{
    injected_[static_cast<std::size_t>(point)].fetch_add(
        1, std::memory_order_relaxed);
}

std::size_t
FaultInjector::injected(FaultPoint point) const
{
    return injected_[static_cast<std::size_t>(point)].load(
        std::memory_order_relaxed);
}

std::size_t
FaultInjector::totalInjected() const
{
    std::size_t total = 0;
    for (const auto &c : injected_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

FaultyEvaluator::FaultyEvaluator(
    FitnessEvaluator &base, std::shared_ptr<FaultInjector> injector,
    const ConnectionLatency &latency)
    : base_(&base), injector_(std::move(injector)), latency_(latency)
{
    requireConfig(injector_ != nullptr,
                  "FaultyEvaluator needs a fault injector");
}

FaultyEvaluator::FaultyEvaluator(
    std::unique_ptr<FitnessEvaluator> owned,
    std::shared_ptr<FaultInjector> injector,
    const ConnectionLatency &latency)
    : base_(owned.get()), owned_(std::move(owned)),
      injector_(std::move(injector)), latency_(latency)
{}

double
FaultyEvaluator::evaluate(const isa::Kernel &kernel,
                          EvalDetail *detail)
{
    return evaluate(kernel, detail, 0);
}

double
FaultyEvaluator::evaluate(const isa::Kernel &kernel,
                          EvalDetail *detail, std::uint32_t attempt)
{
    const std::uint64_t key = kernel.hash();
    // Deploy times out: only the deploy wait is lost.
    injector_->at(FaultPoint::ConnectionTimeout, key, attempt,
                  latency_.deploy_s + latency_.timeout_s);
    // Kernel hangs after deploy: deploy + launch + the timeout wait.
    injector_->at(FaultPoint::KernelHang, key, attempt,
                  latency_.deploy_s + latency_.start_stop_s
                      + latency_.timeout_s);
    const double result = base_->evaluate(kernel, detail, attempt);
    // Reading glitched after the fact: the whole measurement cost is
    // wasted (it already accrued into detail->measurement_seconds of
    // this discarded attempt).
    const double spent = detail != nullptr
        ? detail->measurement_seconds
        : latency_.deploy_s + latency_.start_stop_s
            + latency_.per_sample_s;
    injector_->at(FaultPoint::GlitchedReading, key, attempt, spent);
    return result;
}

std::string
FaultyEvaluator::metricName() const
{
    return base_->metricName();
}

std::unique_ptr<FitnessEvaluator>
FaultyEvaluator::clone() const
{
    auto inner = base_->clone();
    if (!inner)
        return nullptr;
    return std::unique_ptr<FitnessEvaluator>(new FaultyEvaluator(
        std::move(inner), injector_, latency_));
}

} // namespace ga
} // namespace emstress
