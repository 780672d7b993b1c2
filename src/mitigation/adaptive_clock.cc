/**
 * @file
 * Adaptive-clocking implementation.
 */

#include "mitigation/adaptive_clock.h"

#include <array>

#include "circuit/transient.h"
#include "util/error.h"
#include "util/stats.h"

namespace emstress {
namespace mitigation {

AdaptiveClock::AdaptiveClock(const pdn::PdnModel &pdn,
                             const AdaptiveClockParams &params)
    : pdn_(pdn), params_(params)
{
    requireConfig(params.threshold_below_nominal > 0.0,
                  "trip threshold must be below nominal");
    requireConfig(params.response_latency >= 0.0,
                  "response latency must be non-negative");
    requireConfig(params.throttle_ratio > 0.0
                      && params.throttle_ratio <= 1.0,
                  "throttle ratio outside (0, 1]");
    requireConfig(params.hold_time >= 0.0,
                  "hold time must be non-negative");
}

MitigatedRunResult
AdaptiveClock::run(const Trace &i_load) const
{
    return simulate(i_load, true);
}

MitigatedRunResult
AdaptiveClock::runUnmitigated(const Trace &i_load) const
{
    return simulate(i_load, false);
}

MitigatedRunResult
AdaptiveClock::simulate(const Trace &i_load, bool mitigate) const
{
    requireConfig(!i_load.empty(), "mitigation run needs a load");
    const double dt = i_load.dt();
    const double v_nom = pdn_.params().v_nom;
    const double v_trip = v_nom - params_.threshold_below_nominal;
    const auto latency_steps =
        static_cast<std::size_t>(params_.response_latency / dt);
    const auto hold_steps = static_cast<std::size_t>(
        params_.hold_time / dt);

    // Closed-loop stepping over the PDN, one step per call, biased at
    // the mean load so slow tanks start settled.
    circuit::TransientAnalysis engine(pdn_.netlist(), dt);
    double mean_load = stats::mean(i_load.samples());
    const std::array<double, 2> bias = {mean_load, 0.0};
    const std::array<std::size_t, 1> v_idx = {
        engine.mna().stateIndexOfNode(pdn_.dieNode())};
    auto stepper = engine.makeBlockStepper(bias, v_idx);

    MitigatedRunResult out{Trace(dt), Trace(dt)};
    out.v_die.reserve(i_load.size());
    out.throttle.reserve(i_load.size());

    bool throttled = false;
    std::size_t throttle_until = 0; ///< Step index to hold through.
    std::size_t pending_trip_at = 0; ///< Step at which the throttle
                                     ///< engages (post-latency).
    bool trip_pending = false;
    std::size_t throttled_steps = 0;

    for (std::size_t k = 0; k < i_load.size(); ++k) {
        // Engage a pending trip after the response latency.
        if (mitigate && trip_pending && k >= pending_trip_at) {
            throttled = true;
            trip_pending = false;
            throttle_until = k + hold_steps;
            ++out.trip_count;
        }
        // Release after the hold.
        if (throttled && k >= throttle_until)
            throttled = false;

        const double scale =
            throttled ? params_.throttle_ratio : 1.0;
        const std::array<double, 2> currents = {i_load[k] * scale,
                                                0.0};
        double v = 0.0;
        stepper.stepBlock(currents.data(), 1, &v);
        out.v_die.push(v);
        out.throttle.push(throttled ? 1.0 : 0.0);
        if (throttled)
            ++throttled_steps;

        // Detector: observe the current sample.
        if (mitigate && !throttled && !trip_pending && v < v_trip) {
            trip_pending = true;
            pending_trip_at = k + latency_steps;
        }
    }

    out.min_v_die = stats::minimum(out.v_die.samples());
    out.throttled_fraction = static_cast<double>(throttled_steps)
        / static_cast<double>(i_load.size());
    return out;
}

} // namespace mitigation
} // namespace emstress
