/**
 * @file
 * Tests for the circuit engine: LU solver, netlist validation, MNA
 * assembly, DC operating point, transient accuracy against analytic
 * solutions, and AC analysis against closed-form impedances.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/ac.h"
#include "circuit/linalg.h"
#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "transient_oracle.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace emstress {
namespace circuit {
namespace {

TEST(LinAlg, SolvesRandomSystems)
{
    Rng rng(21);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + rng.index(12);
        Matrix<double> a(n, n);
        std::vector<double> x_true(n);
        for (std::size_t i = 0; i < n; ++i) {
            x_true[i] = rng.uniform(-5.0, 5.0);
            for (std::size_t j = 0; j < n; ++j)
                a(i, j) = rng.uniform(-1.0, 1.0);
            a(i, i) += 3.0; // keep well-conditioned
        }
        std::vector<double> b(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                b[i] += a(i, j) * x_true[j];
        LuSolver<double> lu(a);
        const auto x = lu.solve(b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-9);
    }
}

TEST(LinAlg, SolvesComplexSystem)
{
    Matrix<std::complex<double>> a(2, 2);
    a(0, 0) = {1.0, 1.0};
    a(0, 1) = {0.0, -1.0};
    a(1, 0) = {2.0, 0.0};
    a(1, 1) = {1.0, 0.0};
    LuSolver<std::complex<double>> lu(a);
    const std::vector<std::complex<double>> b = {{1.0, 0.0}, {0.0, 1.0}};
    const auto x = lu.solve(b);
    // Verify A x == b.
    for (std::size_t r = 0; r < 2; ++r) {
        std::complex<double> acc = 0.0;
        acc += a(r, 0) * x[0];
        acc += a(r, 1) * x[1];
        EXPECT_NEAR(std::abs(acc - b[r]), 0.0, 1e-12);
    }
}

TEST(LinAlg, SingularMatrixThrows)
{
    Matrix<double> a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_THROW(LuSolver<double> lu(a), SimulationError);
}

TEST(LinAlg, RequiresSquare)
{
    Matrix<double> a(2, 3);
    EXPECT_THROW(LuSolver<double> lu(a), SimulationError);
}

TEST(Netlist, ValidatesElements)
{
    Netlist nl;
    const auto n1 = nl.newNode();
    EXPECT_THROW(nl.addResistor("r_bad", n1, kGround, -1.0),
                 ConfigError);
    EXPECT_THROW(nl.addResistor("r_self", n1, n1, 1.0), ConfigError);
    nl.addResistor("r1", n1, kGround, 10.0);
    EXPECT_THROW(nl.addResistor("r1", n1, kGround, 5.0), ConfigError);
    EXPECT_THROW(nl.addCapacitor("c_bad", n1, kGround, 0.0),
                 ConfigError);
    EXPECT_THROW((void)nl.elementIndex("nope"), ConfigError);
    EXPECT_EQ(nl.nodeCount(), 2u);
}

TEST(Mna, VoltageDividerDc)
{
    // 10 V across 1k + 3k: middle node sits at 7.5 V.
    Netlist nl;
    const auto top = nl.newNode();
    const auto mid = nl.newNode();
    nl.addVoltageSource("vs", top, kGround, 10.0);
    nl.addResistor("r1", top, mid, 1000.0);
    nl.addResistor("r2", mid, kGround, 3000.0);
    MnaSystem mna(nl);
    const auto x = mna.dcOperatingPoint();
    EXPECT_NEAR(x[mna.stateIndexOfNode(top)], 10.0, 1e-9);
    EXPECT_NEAR(x[mna.stateIndexOfNode(mid)], 7.5, 1e-9);
    // Source branch current: 10 V / 4 kOhm = 2.5 mA flowing out.
    EXPECT_NEAR(std::abs(x[mna.stateIndexOfBranch("vs")]), 2.5e-3,
                1e-9);
}

TEST(Mna, InductorIsDcShort)
{
    // V -- L -- R to ground: all voltage falls across R.
    Netlist nl;
    const auto a = nl.newNode();
    const auto b = nl.newNode();
    nl.addVoltageSource("vs", a, kGround, 5.0);
    nl.addInductor("l1", a, b, 1e-6);
    nl.addResistor("r1", b, kGround, 50.0);
    MnaSystem mna(nl);
    const auto x = mna.dcOperatingPoint();
    EXPECT_NEAR(x[mna.stateIndexOfNode(b)], 5.0, 1e-9);
    EXPECT_NEAR(x[mna.stateIndexOfBranch("l1")], 0.1, 1e-9);
}

TEST(Mna, CurrentSourceDcInjection)
{
    // 2 A pulled from a node held up by a 1 ohm resistor to a 3 V
    // source: node sits at 1 V.
    Netlist nl;
    const auto s = nl.newNode();
    const auto n = nl.newNode();
    nl.addVoltageSource("vs", s, kGround, 3.0);
    nl.addResistor("r1", s, n, 1.0);
    nl.addCurrentSource("load", n, kGround, 2.0);
    MnaSystem mna(nl);
    const auto x = mna.dcOperatingPoint();
    EXPECT_NEAR(x[mna.stateIndexOfNode(n)], 1.0, 1e-9);
}

TEST(Mna, GroundHasNoStateIndex)
{
    Netlist nl;
    const auto n = nl.newNode();
    nl.addResistor("r", n, kGround, 1.0);
    MnaSystem mna(nl);
    EXPECT_THROW((void)mna.stateIndexOfNode(kGround), ConfigError);
    EXPECT_THROW((void)mna.stateIndexOfBranch("r"), ConfigError);
}

TEST(Transient, RcChargingMatchesAnalytic)
{
    // Series RC driven by a DC source from t=0; capacitor voltage
    // follows V(1 - exp(-t/RC)).
    const double r = 100.0;
    const double c = 1e-9;
    const double v = 1.0;
    Netlist nl;
    const auto a = nl.newNode();
    const auto b = nl.newNode();
    nl.addVoltageSource("vs", a, kGround, v);
    nl.addResistor("r1", a, b, r);
    nl.addCapacitor("c1", b, kGround, c);
    // A weak bleed resistor keeps the DC solution at 0...
    // not needed: DC op gives cap fully charged. To observe charging,
    // drive via a current source instead: start from zero source.
    const double tau = r * c;
    const double dt = tau / 200.0;
    TransientAnalysis tr(nl, dt);
    // DC op with the source at v means the cap starts charged; so
    // verify it *stays* at v (steady state) — and separately check
    // charging with a stepped current source below.
    auto res =
        runTransient(tr, 500, {}, {{ProbeKind::NodeVoltage, b, "", "vc"}});
    for (std::size_t i = 0; i < res.trace("vc").size(); ++i)
        EXPECT_NEAR(res.trace("vc")[i], v, 1e-6);
}

TEST(Transient, RcStepCurrentMatchesAnalytic)
{
    // Current step I into parallel RC: v(t) = I R (1 - exp(-t/RC)).
    const double r = 50.0;
    const double c = 2e-9;
    const double i0 = 0.01;
    Netlist nl;
    const auto n = nl.newNode();
    nl.addResistor("r1", n, kGround, r);
    nl.addCapacitor("c1", n, kGround, c);
    // Source pushes current INTO the node: from ground to n.
    nl.addCurrentSource("is", kGround, n, 0.0);
    const double tau = r * c;
    const double dt = tau / 500.0;
    TransientAnalysis tr(nl, dt);
    auto res = runTransient(
        tr, 2000, {[i0](double t) { return t > 0.0 ? i0 : 0.0; }},
        {{ProbeKind::NodeVoltage, n, "", "v"}});
    const auto &vt = res.trace("v");
    for (std::size_t k = 100; k < vt.size(); k += 100) {
        const double t = vt.dt() * static_cast<double>(k + 1);
        const double expect = i0 * r * (1.0 - std::exp(-t / tau));
        EXPECT_NEAR(vt[k], expect, 0.01 * i0 * r) << "step " << k;
    }
}

TEST(Transient, LcTankRingsAtResonance)
{
    // Parallel LC excited by a brief current pulse rings at
    // f = 1/(2*pi*sqrt(LC)). Light damping via series resistance.
    const double l = 1e-9;
    const double c = 1e-9;
    const double f0 = lcResonanceHz(l, c);
    Netlist nl;
    const auto n = nl.newNode();
    const auto m = nl.newNode();
    nl.addInductor("l1", n, m, l);
    nl.addResistor("rl", m, kGround, 0.01);
    nl.addCapacitor("c1", n, kGround, c);
    nl.addCurrentSource("is", n, kGround, 0.0);
    const double dt = 1.0 / (f0 * 200.0);
    TransientAnalysis tr(nl, dt);
    const double pulse_end = 5.0 * dt;
    auto res = runTransient(
        tr, 4000,
        {[pulse_end](double t) { return t < pulse_end ? 0.1 : 0.0; }},
        {{ProbeKind::NodeVoltage, n, "", "v"}});
    const auto &vt = res.trace("v");
    // Count zero crossings after the pulse to estimate frequency.
    std::size_t crossings = 0;
    for (std::size_t i = 20; i + 1 < vt.size(); ++i)
        if ((vt[i] <= 0.0) != (vt[i + 1] <= 0.0))
            ++crossings;
    const double observed_f = static_cast<double>(crossings)
        / (2.0 * vt.duration());
    EXPECT_NEAR(observed_f, f0, 0.03 * f0);
}

TEST(Transient, TrapezoidalPreservesLcAmplitude)
{
    // With zero resistance in the loop the trapezoidal rule must not
    // numerically damp the oscillation: late-time amplitude stays
    // close to early-time amplitude.
    const double l = 1e-9;
    const double c = 1e-9;
    Netlist nl;
    const auto n = nl.newNode();
    nl.addInductor("l1", n, kGround, l);
    nl.addCapacitor("c1", n, kGround, c);
    nl.addCurrentSource("is", n, kGround, 0.0);
    const double f0 = lcResonanceHz(l, c);
    const double dt = 1.0 / (f0 * 100.0);
    TransientAnalysis tr(nl, dt);
    const double pulse_end = 3.0 * dt;
    auto res = runTransient(
        tr, 20000,
        {[pulse_end](double t) { return t < pulse_end ? 0.1 : 0.0; }},
        {{ProbeKind::NodeVoltage, n, "", "v"}});
    const auto &vt = res.trace("v");
    double early = 0.0, late = 0.0;
    for (std::size_t i = 100; i < 2100; ++i)
        early = std::max(early, std::abs(vt[i]));
    for (std::size_t i = vt.size() - 2000; i < vt.size(); ++i)
        late = std::max(late, std::abs(vt[i]));
    EXPECT_GT(late, 0.98 * early);
}

TEST(Transient, WaveformCountValidated)
{
    Netlist nl;
    const auto n = nl.newNode();
    nl.addResistor("r", n, kGround, 1.0);
    nl.addCurrentSource("i1", n, kGround, 0.0);
    TransientAnalysis tr(nl, 1e-9);
    EXPECT_THROW(runTransient(tr, 10, {}, {}), ConfigError);
}

TEST(Ac, RcLowPassImpedance)
{
    // |Z| of parallel RC: R / sqrt(1 + (wRC)^2).
    const double r = 100.0;
    const double c = 1e-9;
    Netlist nl;
    const auto n = nl.newNode();
    nl.addResistor("r1", n, kGround, r);
    nl.addCapacitor("c1", n, kGround, c);
    AcAnalysis ac(nl);
    const std::vector<double> freqs = {1e3, 1e6, 1.59e6, 1e8};
    const auto z = ac.inputImpedance(n, freqs).magnitudes();
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        const double w = kTwoPi * freqs[i];
        const double expect = r / std::sqrt(1.0 + w * r * c * w * r * c);
        EXPECT_NEAR(z[i], expect, 1e-3 * expect) << freqs[i];
    }
}

TEST(Ac, SeriesRlcResonanceMinimum)
{
    // Series RLC to ground: impedance minimum at the resonance.
    const double r = 1.0;
    const double l = 1e-6;
    const double c = 1e-9;
    const double f0 = lcResonanceHz(l, c);
    Netlist nl;
    const auto a = nl.newNode();
    const auto b = nl.newNode();
    const auto d = nl.newNode();
    nl.addResistor("r1", a, b, r);
    nl.addInductor("l1", b, d, l);
    nl.addCapacitor("c1", d, kGround, c);
    AcAnalysis ac(nl);
    const auto freqs = linFrequencyGrid(0.5 * f0, 1.5 * f0, 201);
    const auto z = ac.inputImpedance(a, freqs).magnitudes();
    std::size_t min_idx = 0;
    for (std::size_t i = 1; i < z.size(); ++i)
        if (z[i] < z[min_idx])
            min_idx = i;
    EXPECT_NEAR(freqs[min_idx], f0, 0.02 * f0);
    EXPECT_NEAR(z[min_idx], r, 0.05 * r);
}

TEST(Ac, GridGenerators)
{
    const auto log_grid = logFrequencyGrid(1e3, 1e6, 4);
    ASSERT_EQ(log_grid.size(), 4u);
    EXPECT_NEAR(log_grid[0], 1e3, 1e-6);
    EXPECT_NEAR(log_grid[1], 1e4, 1e-3);
    EXPECT_NEAR(log_grid[3], 1e6, 1e-3);
    const auto lin_grid = linFrequencyGrid(0.0, 10.0, 11);
    ASSERT_EQ(lin_grid.size(), 11u);
    EXPECT_DOUBLE_EQ(lin_grid[5], 5.0);
    EXPECT_THROW((void)logFrequencyGrid(0.0, 1e6, 10), ConfigError);
    EXPECT_THROW((void)linFrequencyGrid(5.0, 1.0, 10), ConfigError);
}

} // namespace
} // namespace circuit
} // namespace emstress
