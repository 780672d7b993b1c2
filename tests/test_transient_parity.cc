/**
 * @file
 * Transient engine against its long-double oracle (DESIGN.md §12):
 * the state-space fast path — energy-scaled reduced state, matrix
 * powers, fused block mat-vecs, all in double — must agree with
 * TransientOracle's per-step companion-model replay to
 * kOracleParityTol over long runs on randomized RLC ladders, the PDN
 * with its optional damped bulk branch and pulse source, and a
 * fig15-style two-domain coupled netlist. The fast path must also
 * satisfy the algebraic-row constraints (G x = s on storage-free
 * rows) to solver precision at every checkpoint.
 *
 * Also pins the construction-time stability guard on every preset
 * and power-gating state, the stepper construction convention (a
 * stepper and the oracle replay run() with no priming call), bit-exact
 * block replay and the step/block counters.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "pdn/pdn_model.h"
#include "platform/platform.h"
#include "transient_oracle.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace emstress {
namespace circuit {
namespace {

/**
 * Deterministic multi-tone source value: a square wave (exciting
 * every resonance) plus two incommensurate sines, scaled per source
 * so multi-source netlists see distinct drives.
 */
double
sourceValue(std::size_t source, std::size_t step)
{
    const double t = static_cast<double>(step);
    const double phase = static_cast<double>(source + 1);
    const double square = (step / 37 % 2 == 0) ? 1.0 : 0.0;
    return phase
        * (0.4 * square + 0.3 * std::sin(2e-2 * phase * t)
           + 0.2 * std::sin(3.1e-3 * t + phase));
}

/**
 * Random PDN-like RLC ladder: vs -> (R -> storage-free mid -> L)
 * segments, each tapped node damped by a C+ESR branch, a load
 * current source and bleed resistor at the far end. The mid nodes
 * and the voltage-source row are pure algebraic rows, exercising the
 * index-aware half of the discretization.
 */
Netlist
randomLadder(Rng &rng, std::size_t segments)
{
    Netlist nl;
    NodeId prev = nl.newNode();
    nl.addVoltageSource("vs", prev, kGround,
                        rng.uniform(0.8, 1.2));
    for (std::size_t s = 0; s < segments; ++s) {
        const auto tag = std::to_string(s);
        const NodeId mid = nl.newNode();
        const NodeId next = nl.newNode();
        nl.addResistor("r" + tag, prev, mid,
                       rng.uniform(1e-3, 5e-2));
        nl.addInductor("l" + tag, mid, next,
                       rng.uniform(1e-11, 1e-9));
        const NodeId ctap = nl.newNode();
        nl.addCapacitor("c" + tag, next, ctap,
                        rng.uniform(1e-9, 1e-6));
        nl.addResistor("esr" + tag, ctap, kGround,
                       rng.uniform(1e-3, 1e-1));
        prev = next;
    }
    nl.addResistor("r_load", prev, kGround, rng.uniform(0.5, 5.0));
    nl.addCurrentSource("i_load", prev, kGround, 0.0);
    return nl;
}

/**
 * fig15-style coupling: one shared PCB/package spine feeding two die
 * domains, each with its own tank and load source, so load activity
 * in one domain rings the other through the shared impedance.
 */
Netlist
twoDomainNetlist()
{
    Netlist nl;
    const NodeId n_vrm = nl.newNode();
    const NodeId n_pcb = nl.newNode();
    nl.addVoltageSource("vs", n_vrm, kGround, 1.0);
    nl.addResistor("r_vrm", n_vrm, n_pcb, 1e-3);
    const NodeId n_blk = nl.newNode();
    nl.addCapacitor("c_pcb", n_pcb, n_blk, 1e-4);
    nl.addResistor("esr_pcb", n_blk, kGround, 6e-3);
    const NodeId n_pkg = nl.newNode();
    const NodeId n_pcb_mid = nl.newNode();
    nl.addResistor("r_pcb", n_pcb, n_pcb_mid, 8e-3);
    nl.addInductor("l_pcb", n_pcb_mid, n_pkg, 1e-9);
    for (int d = 0; d < 2; ++d) {
        const auto tag = std::to_string(d);
        const NodeId n_mid = nl.newNode();
        const NodeId n_die = nl.newNode();
        const NodeId n_cap = nl.newNode();
        nl.addResistor("r_pkg" + tag, n_pkg, n_mid, 0.35e-3);
        nl.addInductor("l_die" + tag, n_mid, n_die,
                       d == 0 ? 14e-12 : 20e-12);
        nl.addResistor("r_die" + tag, n_die, n_cap, 0.25e-3);
        nl.addCapacitor("c_die" + tag, n_cap, kGround,
                        d == 0 ? 300e-9 : 200e-9);
        nl.addCurrentSource("i_load" + tag, n_die, kGround, 0.0);
    }
    return nl;
}

/**
 * Step the engine and the oracle for the same netlist in lockstep —
 * the engine both per step and in full blocks over every MNA unknown
 * — asserting oracle parity over the whole run and the algebraic-row
 * residual (|G x - s_now| to solver precision) at periodic
 * checkpoints. `steps` is a multiple of kStreamBlock.
 */
void
expectParity(const Netlist &nl, double dt, std::size_t steps)
{
    const TransientAnalysis tr(nl, dt);
    const MnaSystem &mna = tr.mna();
    const std::size_t n = mna.size();
    const std::size_t n_src = mna.currentSourceNames().size();

    // Algebraic rows recomputed independently of the engine.
    std::vector<bool> algebraic(n, true);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if (mna.c()(r, c) != 0.0) {
                algebraic[r] = false;
                break;
            }

    std::vector<double> currents(n_src);
    for (std::size_t j = 0; j < n_src; ++j)
        currents[j] = sourceValue(j, 0);
    SingleStepper ps(tr, currents);
    TransientOracle oracle(nl, dt, currents);
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i)
        all[i] = i;
    TransientBlockStepper bs = tr.makeBlockStepper(currents, all);
    std::vector<double> in(kStreamBlock * n_src);
    std::vector<double> out(kStreamBlock * n);
    std::vector<long double> want_block(kStreamBlock * n);

    double step_diff = 0.0;
    double block_diff = 0.0;
    double max_abs = 0.0;
    for (std::size_t step = 1; step <= steps; ++step) {
        const std::size_t c = (step - 1) % kStreamBlock;
        for (std::size_t j = 0; j < n_src; ++j)
            in[c * n_src + j] = currents[j] = sourceValue(j, step);
        ps.step(currents);
        oracle.step(currents);
        if (c + 1 == kStreamBlock)
            bs.stepBlock(in.data(), kStreamBlock, out.data());
        for (std::size_t i = 0; i < n; ++i) {
            const long double want = oracle.value(i);
            want_block[c * n + i] = want;
            step_diff = std::max(
                step_diff,
                static_cast<double>(std::abs(ps.value(i) - want)));
            max_abs = std::max(max_abs,
                               static_cast<double>(std::abs(want)));
        }
        if (c + 1 == kStreamBlock)
            for (std::size_t r = 0; r < kStreamBlock * n; ++r)
                block_diff = std::max(
                    block_diff, static_cast<double>(std::abs(
                                    out[r] - want_block[r])));
        if (step % 5000 == 0 || step == steps) {
            // Constraint rows hold at t_now: the outputs are read off
            // the state, so this checks the realization itself.
            const std::vector<double> s_now =
                mna.sourceVector(currents);
            for (std::size_t r = 0; r < n; ++r) {
                if (!algebraic[r])
                    continue;
                double res = -s_now[r];
                double scale = std::abs(s_now[r]);
                for (std::size_t col = 0; col < n; ++col) {
                    res += mna.g()(r, col) * ps.value(col);
                    scale += std::abs(mna.g()(r, col) * ps.value(col));
                }
                EXPECT_LT(std::abs(res), 1e-9 * std::max(scale, 1.0))
                    << "row " << r << ", step " << step;
            }
        }
    }
    ASSERT_GT(max_abs, 0.0);
    EXPECT_LT(step_diff, kOracleParityTol * max_abs)
        << "per-step max |x - x_oracle| = " << step_diff
        << " over max |x| = " << max_abs;
    EXPECT_LT(block_diff, kOracleParityTol * max_abs)
        << "blocked max |x - x_oracle| = " << block_diff
        << " over max |x| = " << max_abs;
}

TEST(TransientParity, RandomizedRlcLadders)
{
    Rng rng(2018);
    for (int trial = 0; trial < 3; ++trial) {
        const std::size_t segments = 2 + rng.index(3);
        const Netlist nl = randomLadder(rng, segments);
        expectParity(nl, 1e-10, 100000);
    }
}

TEST(TransientParity, PdnLadderWithBulkBranch)
{
    pdn::PdnParameters params;
    params.c_pkg_bulk = 22e-6; // enable the damped bulk branch
    const pdn::PdnModel model(params);
    expectParity(model.netlist(), 1e-9, 100000);
}

TEST(TransientParity, TwoDomainCoupledNetlist)
{
    expectParity(twoDomainNetlist(), 1e-10, 100000);
}

TEST(TransientParity, PdnWithPulseSourceThirdColumn)
{
    // The EMFI pulse source adds a third current-source column to
    // the PDN netlist; the engine must keep oracle parity with it
    // present and driven.
    pdn::PdnModel model{pdn::PdnParameters{}};
    model.setPulseSource(true);
    ASSERT_TRUE(model.pulseSource());
    expectParity(model.netlist(), 1e-9, 100000);
}

TEST(TransientParity, AthlonPdnAtThePdnTimestep)
{
    // The preset whose MNA-form block update used to diverge.
    const pdn::PdnModel model(platform::athlonConfig().pdn);
    expectParity(model.netlist(), platform::kPdnDt, 100000);
}

TEST(TransientParity, ZeroPulseColumnIsBoundedAgainstTwoSources)
{
    // An all-zero third source column is algebraically a no-op, but
    // it widens the fused block mat-vec, so the result is only
    // tolerance-close to the two-source topology — which is exactly
    // why Platform::armPulse elides a null pulse instead of wiring a
    // zero waveform (the bit-identity tests live in test_emfi.cc).
    std::vector<double> load(4000);
    for (std::size_t k = 0; k < load.size(); ++k)
        load[k] = 0.5 + 0.3 * sourceValue(0, k);
    const Trace i_load(std::move(load), 1e-9);

    pdn::PdnModel two{pdn::PdnParameters{}};
    pdn::PdnModel three{pdn::PdnParameters{}};
    three.setPulseSource(true);
    const auto a = two.simulate(i_load);
    const auto b =
        three.simulate(i_load, nullptr, [](double) { return 0.0; });

    ASSERT_EQ(a.v_die.size(), b.v_die.size());
    double max_diff = 0.0;
    double max_abs = 0.0;
    for (std::size_t i = 0; i < a.v_die.size(); ++i) {
        max_diff =
            std::max(max_diff, std::abs(a.v_die[i] - b.v_die[i]));
        max_abs = std::max(max_abs, std::abs(a.v_die[i]));
    }
    ASSERT_GT(max_abs, 0.0);
    EXPECT_LT(max_diff, kOracleParityTol * max_abs)
        << "max |v_2src - v_3src| = " << max_diff;
}

TEST(TransientParity, FastPathStaysBoundedAtStiffDt)
{
    // At dt = 1e-10 the PDN's stiffness ratio (c_pcb/dt = 1e7
    // against mOhm conductances) is the regime where per-step
    // substitution on the MNA form slowly diverged. A 1 A load step
    // released to free decay must settle at the DC point (~1 V
    // values), never grow.
    const pdn::PdnModel model(pdn::PdnParameters{});
    const TransientAnalysis tr(model.netlist(), 1e-10);
    const std::array<double, 2> on = {1.0, 0.0};
    const std::array<double, 2> off = {0.0, 0.0};
    SingleStepper s(tr, on);
    const std::size_t n = tr.mna().size();
    double max_abs = 0.0;
    for (std::size_t step = 1; step <= 200000; ++step) {
        s.step(off);
        if (step % 1000 == 0)
            for (std::size_t i = 0; i < n; ++i)
                max_abs = std::max(max_abs, std::abs(s.value(i)));
    }
    EXPECT_LT(max_abs, 1.5);
}

TEST(TransientParity, FastPathIsBitIdenticalRunToRun)
{
    // Repeating a run must be bit-exact: the step arithmetic is
    // sequential with a fixed operation order.
    Rng rng(7);
    const Netlist nl = randomLadder(rng, 3);
    const TransientAnalysis tr(nl, 1e-10);
    const std::vector<SourceWaveform> waves = {
        [](double t) { return sourceValue(0, static_cast<std::size_t>(
                                                 t * 1e10 + 0.5)); }};
    const std::vector<Probe> probes = {
        {ProbeKind::NodeVoltage, 2, "", "v"}};
    const auto a = runTransient(tr, 5000, waves, probes);
    const auto b = runTransient(tr, 5000, waves, probes);
    for (std::size_t i = 0; i < a.trace("v").size(); ++i)
        ASSERT_EQ(a.trace("v")[i], b.trace("v")[i]) << i;
}

TEST(TransientStability, EveryPresetAndGatingStatePassesTheGuard)
{
    // The guard squares each block update out to
    // kStableHorizonSteps; every shipped PDN, at every powered-core
    // count and with the EMFI pulse source on or off, must pass it.
    for (const auto &cfg :
         {platform::junoA72Config(), platform::junoA53Config(),
          platform::athlonConfig()}) {
        pdn::PdnModel model(cfg.pdn);
        for (std::size_t cores = 1; cores <= cfg.pdn.n_cores;
             ++cores) {
            model.setPoweredCores(cores);
            for (const bool pulse : {false, true}) {
                model.setPulseSource(pulse);
                EXPECT_NO_THROW(
                    (void)TransientAnalysis(model.netlist(),
                                            platform::kPdnDt))
                    << cfg.name << ", " << cores << " cores, pulse "
                    << pulse;
            }
        }
    }
}

TEST(TransientStability, RejectsAnActiveNetlist)
{
    // A parallel LC tank across a negative resistor gains energy
    // every cycle: the guard must refuse to build the engine rather
    // than let a stream overflow.
    Netlist nl;
    const NodeId a = nl.newNode();
    nl.addCapacitor("c", a, kGround, 1e-9);
    nl.addInductor("l", a, kGround, 1e-9);
    nl.addResistor("r", a, kGround, 10.0);
    nl.addCurrentSource("i", a, kGround, 0.0);
    EXPECT_NO_THROW((void)TransientAnalysis(nl, 1e-11));
    nl.setValue("r", -10.0);
    EXPECT_THROW((void)TransientAnalysis(nl, 1e-11), ConfigError);
}

TEST(TransientStability, ReducesInductorCutsetsAndFollowsDrivenOnes)
{
    // The PDN's series decap branches put an inductor cutset around
    // the PCB and package nodes, so its 3 capacitors and 5 inductors
    // carry 6 independent states.
    const pdn::PdnModel model(pdn::PdnParameters{});
    EXPECT_EQ(TransientAnalysis(model.netlist(), platform::kPdnDt)
                  .stateCount(),
              6u);
    // A current source feeding a node joined to the rest only by
    // two inductors fixes their sum, i_l1 + i_l2 = u: one
    // combination is a free state, the other follows the input, and
    // the voltages across both carry L·du/dt. The engine carries the
    // trapezoidal derivative estimate of the input for them, exactly
    // as the oracle's companion model does.
    Netlist nl;
    const NodeId a = nl.newNode();
    const NodeId b = nl.newNode();
    const NodeId c = nl.newNode();
    nl.addCurrentSource("i", kGround, a, 0.0);
    nl.addInductor("l1", a, b, 1e-9);
    nl.addInductor("l2", a, c, 3e-9);
    nl.addResistor("r1", b, kGround, 0.5);
    nl.addCapacitor("c2", c, kGround, 1e-9);
    nl.addResistor("r2", c, kGround, 1.0);
    // Two free states and one derivative estimate.
    EXPECT_EQ(TransientAnalysis(nl, 1e-11).stateCount(), 3u);
    expectParity(nl, 1e-11, 20000);
}

/**
 * A stepper constructed as makeStepper(bias) replays run() with NO
 * priming call: run() executes in kStreamBlock folds, so the
 * per-step stepper agrees to kBlockedStreamParityTol (relative to the
 * waveform scale) — bit-exact replay is pinned separately via the
 * block stepper below. The oracle, the reference replay, agrees with
 * run() to kOracleParityTol under the same convention. Pinned for
 * both the biased and the empty-bias conventions.
 */
void
expectStepperReplaysRun(bool reference, bool with_bias)
{
    Rng rng(42);
    const Netlist nl = randomLadder(rng, 3);
    const double dt = 1e-10;
    const TransientAnalysis tr(nl, dt);
    const std::size_t steps = 2000;
    const std::vector<SourceWaveform> waves = {[dt](double t) {
        return sourceValue(0,
                           static_cast<std::size_t>(t / dt + 0.5));
    }};
    const std::size_t probe_node = 2;
    const std::vector<Probe> probes = {
        {ProbeKind::NodeVoltage, probe_node, "", "v"}};
    const std::array<double, 1> bias = {0.37};
    const auto batch = with_bias
        ? runTransient(tr, steps, waves, probes, bias)
        : runTransient(tr, steps, waves, probes);
    const auto &vt = batch.trace("v");
    double scale = 0.0;
    for (std::size_t i = 0; i < vt.size(); ++i)
        scale = std::max(scale, std::abs(vt[i]));
    ASSERT_GT(scale, 0.0);

    // Without a bias, run() starts settled at the t = 0 values.
    const std::array<double, 1> w0 = {sourceValue(0, 0)};
    const std::span<const double> start =
        with_bias ? std::span<const double>(bias) : w0;
    SingleStepper stepper(tr, start);
    TransientOracle oracle(nl, dt, start);
    const std::size_t idx = tr.mna().stateIndexOfNode(probe_node);
    std::array<double, 1> currents{};
    for (std::size_t step = 1; step <= steps; ++step) {
        currents[0] = sourceValue(0, step);
        if (reference) {
            oracle.step(currents);
            ASSERT_NEAR(static_cast<double>(oracle.value(idx)),
                        vt[step - 1], kOracleParityTol * scale)
                << "step " << step;
        } else {
            stepper.step(currents);
            ASSERT_NEAR(stepper.value(idx), vt[step - 1],
                        kBlockedStreamParityTol * scale)
                << "step " << step;
        }
    }
    if (!reference) {
        EXPECT_EQ(stepper.stepsTaken(), steps);
    }
}

TEST(TransientStepperReplay, FastPathWithBias)
{
    expectStepperReplaysRun(false, true);
}

TEST(TransientStepperReplay, FastPathEmptyBias)
{
    expectStepperReplaysRun(false, false);
}

TEST(TransientStepperReplay, ReferencePathWithBias)
{
    expectStepperReplaysRun(true, true);
}

TEST(TransientStepperReplay, ReferencePathEmptyBias)
{
    expectStepperReplaysRun(true, false);
}

/**
 * The bit-exactness pin: a TransientBlockStepper fed run()'s block
 * partition (full kStreamBlock blocks from step 1, the remainder as
 * one tail call) replays run() bit-exactly — the invariant the PDN
 * streaming sinks rely on for sample-for-sample equality with batch
 * simulation. `steps` is deliberately not a multiple of kStreamBlock
 * so the tail path is exercised too.
 */
TEST(TransientBlockStepper, ReplaysRunBitExactly)
{
    Rng rng(42);
    const Netlist nl = randomLadder(rng, 3);
    const double dt = 1e-10;
    const TransientAnalysis tr(nl, dt);
    const std::size_t steps = 2003;
    const std::vector<SourceWaveform> waves = {[dt](double t) {
        return sourceValue(0,
                           static_cast<std::size_t>(t / dt + 0.5));
    }};
    const std::size_t probe_node = 2;
    const std::vector<Probe> probes = {
        {ProbeKind::NodeVoltage, probe_node, "", "v"}};
    const std::array<double, 1> bias = {0.37};
    const auto batch = runTransient(tr, steps, waves, probes, bias);
    const auto &vt = batch.trace("v");

    const std::array<std::size_t, 1> probe_idx = {
        tr.mna().stateIndexOfNode(probe_node)};
    TransientBlockStepper bs = tr.makeBlockStepper(bias, probe_idx);
    std::array<double, kStreamBlock> in{};
    std::array<double, kStreamBlock> out{};
    std::size_t step = 1;
    while (step <= steps) {
        const std::size_t count =
            std::min(kStreamBlock, steps - step + 1);
        for (std::size_t c = 0; c < count; ++c)
            in[c] = sourceValue(0, step + c);
        bs.stepBlock(in.data(), count, out.data());
        for (std::size_t c = 0; c < count; ++c)
            ASSERT_EQ(out[c], vt[step + c - 1])
                << "step " << step + c;
        step += count;
    }
    EXPECT_EQ(bs.stepsTaken(), steps);
}

/**
 * Blocked vs per-step agreement under arbitrary (non-aligned) block
 * partitions: a stepper advanced in a mix of full blocks and tails
 * must track a per-step stepper to kBlockedStreamParityTol — the
 * documented contract for streams whose length is not a multiple of
 * kStreamBlock.
 */
TEST(TransientBlockStepper, AgreesWithPerStepStepperOnMixedBlocks)
{
    pdn::PdnParameters params;
    const pdn::PdnModel model(params);
    const TransientAnalysis tr(model.netlist(), 1e-9);
    const std::size_t n_src =
        tr.mna().currentSourceNames().size();
    ASSERT_EQ(n_src, 2u);
    const std::array<double, 2> bias = {0.2, 0.0};
    const std::array<std::size_t, 2> probe_idx = {
        tr.mna().stateIndexOfNode(model.dieNode()),
        tr.mna().stateIndexOfBranch("l_pkg_die")};
    TransientBlockStepper bs = tr.makeBlockStepper(bias, probe_idx);
    SingleStepper ps(tr, bias);

    // Deterministic irregular partition cycling through every
    // possible tail length, full blocks interleaved.
    std::array<double, kStreamBlock * 2> in{};
    std::array<double, kStreamBlock * 2> out{};
    std::array<double, 2> cur{};
    double max_diff = 0.0;
    double max_abs = 0.0;
    std::size_t step = 1;
    for (std::size_t round = 0; step < 4000; ++round) {
        const std::size_t count =
            1 + (round * 3) % kStreamBlock;
        for (std::size_t c = 0; c < count; ++c) {
            in[2 * c] = sourceValue(0, step + c);
            in[2 * c + 1] = sourceValue(1, step + c);
        }
        bs.stepBlock(in.data(), count, out.data());
        for (std::size_t c = 0; c < count; ++c) {
            cur[0] = in[2 * c];
            cur[1] = in[2 * c + 1];
            ps.step(cur);
            for (std::size_t p = 0; p < 2; ++p) {
                max_diff = std::max(
                    max_diff, std::abs(out[2 * c + p]
                                       - ps.value(probe_idx[p])));
                max_abs = std::max(
                    max_abs, std::abs(ps.value(probe_idx[p])));
            }
        }
        step += count;
    }
    ASSERT_GT(max_abs, 0.0);
    EXPECT_LT(max_diff, kBlockedStreamParityTol * max_abs)
        << "max |blocked - per-step| = " << max_diff
        << " over max |x| = " << max_abs;
}

/** Counter value from a fresh snapshot (0 when never recorded). */
std::uint64_t
counter(const metrics::MetricsSnapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(TransientCounters, RunReportsActivePathTruthfully)
{
    metrics::setEnabled(true);
    Rng rng(11);
    const Netlist nl = randomLadder(rng, 2);
    const std::vector<SourceWaveform> waves = {
        [](double) { return 0.1; }};

    auto &reg = metrics::Registry::instance();
    reg.reset();
    const TransientAnalysis tr(nl, 1e-10);
    (void)runTransient(tr, 500, waves, {});
    const auto snap = reg.snapshot();
    EXPECT_EQ(counter(snap, "circuit.transient.steps"), 500u);
    EXPECT_EQ(counter(snap, "circuit.transient.state_updates"), 500u);
    // No per-step LU path exists, so nothing reports LU solves.
    EXPECT_EQ(counter(snap, "circuit.transient.lu_solves"), 0u);
    reg.reset();
}

TEST(TransientCounters, StepperFlushesOwnStepsIdempotently)
{
    metrics::setEnabled(true);
    Rng rng(12);
    const Netlist nl = randomLadder(rng, 2);
    const std::array<double, 1> currents = {0.2};

    auto &reg = metrics::Registry::instance();
    reg.reset();
    const TransientAnalysis tr(nl, 1e-10);
    {
        SingleStepper s(tr, currents);
        for (int i = 0; i < 7; ++i)
            s.step(currents);
        s.flushMetrics();
        s.flushMetrics(); // idempotent: no double counting
        for (int i = 0; i < 3; ++i)
            s.step(currents);
        // Destructor flushes the remaining 3.
    }
    const auto snap = reg.snapshot();
    EXPECT_EQ(counter(snap, "circuit.transient.steps"), 10u);
    EXPECT_EQ(counter(snap, "circuit.transient.state_updates"), 10u);
    EXPECT_EQ(counter(snap, "circuit.transient.lu_solves"), 0u);
    reg.reset();
}

TEST(TransientCounters, BlockStepperCountsStepsAndBlocks)
{
    metrics::setEnabled(true);
    Rng rng(13);
    const Netlist nl = randomLadder(rng, 2);
    auto &reg = metrics::Registry::instance();
    reg.reset();
    const TransientAnalysis tr(nl, 1e-10);
    {
        const std::array<double, 1> w0 = {0.1};
        const std::array<std::size_t, 1> probe_idx = {0};
        TransientBlockStepper bs = tr.makeBlockStepper(w0, probe_idx);
        std::array<double, kStreamBlock> in{};
        std::array<double, kStreamBlock> out{};
        bs.stepBlock(in.data(), kStreamBlock, out.data());
        bs.stepBlock(in.data(), kStreamBlock, out.data());
        bs.stepBlock(in.data(), 3, out.data()); // tail: not a block
        bs.flushMetrics();
        bs.flushMetrics(); // idempotent: no double counting
        EXPECT_EQ(bs.stepsTaken(), 2 * kStreamBlock + 3);
        // Destructor has nothing left to flush.
    }
    const auto snap = reg.snapshot();
    EXPECT_EQ(counter(snap, "circuit.transient.steps"),
              2 * kStreamBlock + 3);
    EXPECT_EQ(counter(snap, "circuit.transient.state_updates"),
              2 * kStreamBlock + 3);
    EXPECT_EQ(counter(snap, "circuit.transient.stream_blocks"), 2u);
    EXPECT_EQ(counter(snap, "circuit.transient.lu_solves"), 0u);
    reg.reset();
}

} // namespace
} // namespace circuit
} // namespace emstress
