/**
 * @file
 * Physical-soundness property tests for the circuit engine and PDN:
 * passivity (an RLC network never generates energy: Re{Z(jw)} >= 0),
 * bounded-input/bounded-output transient stability on random
 * ladders, KCL at the die node, and reciprocity of transfer
 * impedances. These guard the substrate every experiment stands on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/ac.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "transient_oracle.h"
#include "pdn/pdn_model.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace emstress {
namespace circuit {
namespace {

/** Random RLC ladder of a few stages, always with resistive losses. */
Netlist
randomLadder(Rng &rng, NodeId &drive_node, NodeId &far_node)
{
    Netlist nl;
    const int stages = rng.uniformInt(2, 5);
    NodeId prev = nl.newNode();
    drive_node = prev;
    for (int s = 0; s < stages; ++s) {
        const NodeId mid = nl.newNode();
        const NodeId next = nl.newNode();
        const std::string tag = std::to_string(s);
        nl.addResistor("r" + tag, prev, mid,
                       rng.uniform(0.05, 1.0));
        nl.addInductor("l" + tag, mid, next,
                       rng.uniform(1e-12, 1e-8));
        const NodeId capn = nl.newNode();
        nl.addCapacitor("c" + tag, next, capn,
                        rng.uniform(1e-11, 1e-6));
        nl.addResistor("esr" + tag, capn, kGround,
                       rng.uniform(0.05, 0.5));
        prev = next;
    }
    nl.addResistor("r_term", prev, kGround,
                   rng.uniform(0.01, 10.0));
    far_node = prev;
    nl.addCurrentSource("i_drive", drive_node, kGround, 0.0);
    return nl;
}

class RandomLadderTest : public ::testing::TestWithParam<int>
{};

TEST_P(RandomLadderTest, InputImpedanceIsPassive)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    NodeId drive = kGround, far = kGround;
    const auto nl = randomLadder(rng, drive, far);
    AcAnalysis ac(nl);
    const auto freqs = logFrequencyGrid(1e3, 2e9, 80);
    const auto sweep = ac.inputImpedance(drive, freqs);
    for (std::size_t i = 0; i < sweep.values.size(); ++i) {
        // A passive one-port never has negative input resistance.
        EXPECT_GE(sweep.values[i].real(), -1e-9)
            << "f=" << freqs[i];
    }
}

TEST_P(RandomLadderTest, TransferImpedanceIsReciprocal)
{
    // Reciprocity of linear RLC networks: Z(drive a, observe b) ==
    // Z(drive b, observe a).
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    NodeId drive = kGround, far = kGround;
    const auto nl = randomLadder(rng, drive, far);
    AcAnalysis ac(nl);
    const std::vector<double> freqs = {1e5, 1e7, 3e8};
    const auto fwd = ac.transferImpedance(drive, far, freqs);
    const auto rev = ac.transferImpedance(far, drive, freqs);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        EXPECT_NEAR(std::abs(fwd.values[i] - rev.values[i]), 0.0,
                    1e-9 * (1.0 + std::abs(fwd.values[i])))
            << "f=" << freqs[i];
    }
}

TEST_P(RandomLadderTest, TransientStaysBoundedAndDoesNotGrow)
{
    // Stability property of the integrator on dissipative networks:
    // the response to a bounded drive never grows without bound. The
    // early portion of the run must already contain the worst
    // excursion (no late blow-up), and everything stays finite.
    // (A strict ring-down-to-zero check is deliberately not used:
    // trapezoidal integration leaves a *bounded* Nyquist ripple on
    // storage-free node chains — see transient.h.)
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
    NodeId drive = kGround, far = kGround;
    const auto nl = randomLadder(rng, drive, far);

    TransientAnalysis tr(nl, 0.25e-9);
    const double drive_end = 1e-6;
    auto result = runTransient(
        tr, 16000,
        {[drive_end](double t) {
            if (t >= drive_end)
                return 0.0;
            return std::fmod(t, 20e-9) < 10e-9 ? 1.0 : 0.0;
        }},
        {{ProbeKind::NodeVoltage, drive, "", "v"}});
    const auto &v = result.trace("v");

    double peak_early = 0.0;
    for (std::size_t k = 0; k < 6000; ++k) {
        ASSERT_TRUE(std::isfinite(v[k])) << "step " << k;
        peak_early = std::max(peak_early, std::abs(v[k]));
    }
    double peak_late = 0.0;
    for (std::size_t k = 6000; k < v.size(); ++k) {
        ASSERT_TRUE(std::isfinite(v[k])) << "step " << k;
        peak_late = std::max(peak_late, std::abs(v[k]));
    }
    EXPECT_LE(peak_late, peak_early * 1.05 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLadderTest,
                         ::testing::Range(1, 9));

TEST(PdnPhysics, DieNodeImpedanceIsPassiveEverywhere)
{
    pdn::PdnParameters params;
    params.calibrateDieTank(mega(67.0), mega(85.0), 2, nano(120.0));
    pdn::PdnModel model(params);
    AcAnalysis ac(model.netlist());
    const auto freqs = logFrequencyGrid(1e3, 5e9, 150);
    const auto sweep = ac.inputImpedance(model.dieNode(), freqs);
    for (std::size_t i = 0; i < sweep.values.size(); ++i)
        EXPECT_GE(sweep.values[i].real(), -1e-9) << freqs[i];
}

TEST(PdnPhysics, EnergyDeliveredNeverNegative)
{
    // Cumulative energy flowing out of the supply into a passive
    // network under arbitrary load never goes negative.
    pdn::PdnParameters params;
    params.calibrateDieTank(mega(67.0), mega(85.0), 2, nano(120.0));
    pdn::PdnModel model(params);
    Rng rng(5);
    Trace load(0.25e-9);
    for (int i = 0; i < 8000; ++i)
        load.push(rng.uniform(0.0, 2.0));
    const auto sim = model.simulate(load);
    double energy = 0.0;
    for (std::size_t k = 0; k < sim.v_die.size(); ++k) {
        // Power delivered to the load branch.
        energy += sim.v_die[k] * load[std::min(k, load.size() - 1)]
            * sim.v_die.dt();
        EXPECT_GE(energy, -1e-15) << "step " << k;
    }
    // And the average die voltage stays below the supply (net
    // dissipation, not generation).
    EXPECT_LE(stats::mean(sim.v_die.samples()), params.v_nom + 1e-9);
}

} // namespace
} // namespace circuit
} // namespace emstress
