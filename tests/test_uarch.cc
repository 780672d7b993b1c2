/**
 * @file
 * Tests for the core models: issue disciplines, latency/dependency
 * handling, IPC bounds, loop statistics and the current model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/kernel.h"
#include "isa/pool.h"
#include "uarch/core_model.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workload.h"

namespace emstress {
namespace uarch {
namespace {

/** Kernel of n independent ADDs (different destination registers). */
isa::Kernel
independentAdds(const isa::InstructionPool &pool, std::size_t n)
{
    std::vector<isa::Instruction> code;
    const std::size_t add = pool.defIndex("ADD");
    for (std::size_t i = 0; i < n; ++i) {
        isa::Instruction instr;
        instr.def_index = add;
        instr.dest = static_cast<int>(i % 8);
        instr.src = {static_cast<int>((i + 1) % 8),
                     static_cast<int>((i + 2) % 8)};
        code.push_back(instr);
    }
    return isa::Kernel(std::move(code));
}

/** Kernel of n fully serialized ADDs (each depends on the last). */
isa::Kernel
chainedAdds(const isa::InstructionPool &pool, std::size_t n)
{
    std::vector<isa::Instruction> code;
    const std::size_t add = pool.defIndex("ADD");
    for (std::size_t i = 0; i < n; ++i) {
        isa::Instruction instr;
        instr.def_index = add;
        instr.dest = 0;
        instr.src = {0, 0};
        code.push_back(instr);
    }
    return isa::Kernel(std::move(code));
}

/** Kernel of self-dependent long-latency divides. */
isa::Kernel
chainedDivs(const isa::InstructionPool &pool, std::size_t n)
{
    std::vector<isa::Instruction> code;
    const std::size_t div = pool.defIndex("SDIV");
    for (std::size_t i = 0; i < n; ++i) {
        isa::Instruction instr;
        instr.def_index = div;
        instr.dest = 0;
        instr.src = {0, 0};
        code.push_back(instr);
    }
    return isa::Kernel(std::move(code));
}

TEST(CoreModel, IndependentAddsReachIssueWidthBoundedIpc)
{
    const auto pool = isa::InstructionPool::armV8();
    // Two integer ALUs bound ADD throughput at 2/cycle even on the
    // 3-wide A72.
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, independentAdds(pool, 16), 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.ipc, 2.0, 0.1);

    CoreModel a53(cortexA53Params());
    const auto run53 =
        a53.runLoop(pool, independentAdds(pool, 16), 950e6, 4e-6);
    EXPECT_NEAR(run53.stats.ipc, 2.0, 0.1);
}

TEST(CoreModel, ChainedAddsSerializeToIpcOne)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, chainedAdds(pool, 16), 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.ipc, 1.0, 0.05);
}

TEST(CoreModel, ChainedDivsGiveLatencyLimitedIpc)
{
    const auto pool = isa::InstructionPool::armV8();
    const unsigned lat = pool.def(pool.defIndex("SDIV")).latency;
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, chainedDivs(pool, 8), 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.ipc, 1.0 / static_cast<double>(lat), 0.01);
}

TEST(CoreModel, OutOfOrderBeatsInOrderOnMixedCode)
{
    // Mutually independent long-latency FSQRTs, each followed by
    // dependent FADDs: the in-order core stalls the consumers at the
    // head of the pipe while the OoO core overlaps FSQRTs from
    // adjacent iterations.
    const auto pool = isa::InstructionPool::armV8();
    std::vector<isa::Instruction> code;
    isa::Instruction q;
    q.def_index = pool.defIndex("FSQRT");
    q.dest = 1;
    q.src = {2, -1}; // f2 is never written: FSQRTs independent
    code.push_back(q);
    for (int j = 0; j < 12; ++j) {
        isa::Instruction f;
        f.def_index = pool.defIndex("FADD");
        f.dest = 3;
        f.src = {1, 1}; // consumers of the FSQRT result
        code.push_back(f);
    }
    isa::Kernel kernel(std::move(code));

    auto ooo_params = cortexA72Params();
    auto ino_params = cortexA72Params();
    ino_params.out_of_order = false;
    CoreModel ooo(ooo_params);
    CoreModel ino(ino_params);
    const double ipc_ooo =
        ooo.runLoop(pool, kernel, 1.2e9, 4e-6).stats.ipc;
    const double ipc_ino =
        ino.runLoop(pool, kernel, 1.2e9, 4e-6).stats.ipc;
    EXPECT_GT(ipc_ooo, ipc_ino * 1.3);
}

TEST(CoreModel, LoopFrequencyMatchesCycleCount)
{
    // 8 independent ADDs at 2/cycle + serializing MUL(lat 4):
    // period 8 cycles -> loop frequency f_clk / 8.
    const auto pool = isa::InstructionPool::armV8();
    std::vector<isa::Instruction> code;
    isa::Instruction m;
    m.def_index = pool.defIndex("MUL");
    m.dest = 1;
    m.src = {2, 2};
    code.push_back(m);
    for (int i = 0; i < 8; ++i) {
        isa::Instruction a;
        a.def_index = pool.defIndex("ADD");
        a.dest = 2;
        a.src = {1, 1};
        code.push_back(a);
    }
    isa::Kernel kernel(std::move(code));
    CoreModel a72(cortexA72Params());
    const auto run = a72.runLoop(pool, kernel, 1.2e9, 4e-6);
    EXPECT_NEAR(run.stats.loop_freq_hz, 1.2e9 / 8.0, 1.2e9 / 8.0 * 0.02);
}

TEST(CoreModel, LoopFrequencyScalesWithClock)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto kernel = independentAdds(pool, 16);
    CoreModel a72(cortexA72Params());
    const double f1 =
        a72.runLoop(pool, kernel, 1.2e9, 4e-6).stats.loop_freq_hz;
    const double f2 =
        a72.runLoop(pool, kernel, 0.6e9, 8e-6).stats.loop_freq_hz;
    EXPECT_NEAR(f1 / f2, 2.0, 0.05);
}

TEST(CoreModel, CurrentTraceDtMatchesClock)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    const auto run =
        a72.runLoop(pool, independentAdds(pool, 8), 1.0e9, 2e-6);
    EXPECT_DOUBLE_EQ(run.current.dt(), 1e-9);
    EXPECT_GE(run.current.size(), 1900u);
}

TEST(CoreModel, BusyCodeDrawsMoreCurrentThanStallingCode)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    const auto busy =
        a72.runLoop(pool, independentAdds(pool, 16), 1.2e9, 4e-6);
    const auto stall =
        a72.runLoop(pool, chainedDivs(pool, 8), 1.2e9, 4e-6);
    EXPECT_GT(stats::mean(busy.current.samples()),
              2.0 * stats::mean(stall.current.samples()));
}

TEST(CoreModel, CurrentNeverBelowIdleFloor)
{
    const auto pool = isa::InstructionPool::armV8();
    const auto params = cortexA72Params();
    CoreModel a72(params);
    const auto run =
        a72.runLoop(pool, chainedDivs(pool, 4), 1.2e9, 2e-6);
    EXPECT_GE(stats::minimum(run.current.samples()),
              params.idle_current - 1e-12);
}

TEST(CoreModel, TwoPhaseKernelProducesPeriodicCurrentSwings)
{
    // The virus mechanism: alternating high/low current phases must
    // show up as a large swing in the per-cycle current trace. A
    // self-chained FSQRT stalls the FP pipe (low phase); the burst of
    // dependent FADDs afterwards is the high phase.
    const auto pool = isa::InstructionPool::armV8();
    std::vector<isa::Instruction> code;
    isa::Instruction q;
    q.def_index = pool.defIndex("FSQRT");
    q.dest = 1;
    q.src = {1, -1};
    code.push_back(q);
    for (int i = 0; i < 16; ++i) {
        isa::Instruction a;
        a.def_index = pool.defIndex("FADD");
        a.dest = 2;
        a.src = {1, 1};
        code.push_back(a);
    }
    isa::Kernel kernel(std::move(code));
    CoreModel a72(cortexA72Params());
    const auto run = a72.runLoop(pool, kernel, 1.2e9, 4e-6);
    const double swing = stats::peakToPeak(run.current.samples());
    const double mean = stats::mean(run.current.samples());
    EXPECT_GT(swing, 0.5 * mean);
}

TEST(CoreModel, RunStreamExecutesAllInstructions)
{
    const auto pool = isa::InstructionPool::armV8();
    Rng rng(3);
    std::vector<isa::Instruction> stream;
    for (int i = 0; i < 2000; ++i)
        stream.push_back(pool.randomInstruction(rng));
    CoreModel a53(cortexA53Params());
    const auto run = a53.runStream(pool, stream, 950e6);
    EXPECT_EQ(run.stats.instructions, 2000u);
    EXPECT_GT(run.stats.ipc, 0.05);
    EXPECT_LE(run.stats.ipc, 2.0 + 1e-9);
}

TEST(CoreModel, ValidatesInput)
{
    const auto pool = isa::InstructionPool::armV8();
    CoreModel a72(cortexA72Params());
    isa::Kernel empty;
    EXPECT_THROW((void)a72.runLoop(pool, empty, 1.2e9, 1e-6),
                 ConfigError);
    EXPECT_THROW((void)a72.runLoop(pool, independentAdds(pool, 4),
                                   -1.0, 1e-6),
                 ConfigError);
    EXPECT_THROW(
        (void)a72.runStream(pool, std::vector<isa::Instruction>{},
                            1e9),
        ConfigError);

    auto bad = cortexA72Params();
    bad.issue_width = 0;
    EXPECT_THROW(CoreModel m(bad), ConfigError);
}

TEST(CoreModel, DeterministicAcrossRuns)
{
    const auto pool = isa::InstructionPool::armV8();
    Rng rng(4);
    const auto kernel = isa::Kernel::random(pool, 50, rng);
    CoreModel a72(cortexA72Params());
    const auto r1 = a72.runLoop(pool, kernel, 1.2e9, 2e-6);
    const auto r2 = a72.runLoop(pool, kernel, 1.2e9, 2e-6);
    ASSERT_EQ(r1.current.size(), r2.current.size());
    for (std::size_t i = 0; i < r1.current.size(); ++i)
        EXPECT_DOUBLE_EQ(r1.current[i], r2.current[i]);
    EXPECT_DOUBLE_EQ(r1.stats.ipc, r2.stats.ipc);
}

TEST(CoreModel, ReloadedPoolRunsTheSameLoop)
{
    // A pool saved as XML and read back drives the core to the same
    // current, sample for sample.
    const auto pool = isa::InstructionPool::armV8();
    const auto reloaded =
        isa::InstructionPool::fromXmlString(pool.toXmlString());
    Rng rng(4);
    const auto kernel = isa::Kernel::random(pool, 50, rng);
    CoreModel a72(cortexA72Params());
    const auto want = a72.runLoop(pool, kernel, 1.2e9, 2e-6);
    const auto got = a72.runLoop(reloaded, kernel, 1.2e9, 2e-6);
    ASSERT_EQ(got.current.size(), want.current.size());
    for (std::size_t i = 0; i < want.current.size(); ++i)
        ASSERT_EQ(got.current[i], want.current[i]) << "sample " << i;
}

/** FNV-1a 64 over the bytes of each word. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (word >> (8 * b)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }

    /** Every emitted sample, then every KernelRunStats field. */
    void
    add(const CoreRunResult &run)
    {
        add(static_cast<std::uint64_t>(run.current.size()));
        for (double x : run.current.samples())
            add(x);
        add(run.stats.ipc);
        add(run.stats.loop_period_s);
        add(run.stats.loop_freq_hz);
        add(static_cast<std::uint64_t>(run.stats.cycles));
        add(static_cast<std::uint64_t>(run.stats.instructions));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One modeled CPU at its top clock, with its pool. */
struct CorpusCpu
{
    CoreParams params;
    isa::InstructionPool pool;
    double f_clk_hz;
    /// Seeds past the shared range 1..60: kernels whose state never
    /// recurs within the run, so no period can be replayed.
    std::vector<std::uint64_t> never_recurring;
    const char *profile; ///< Workload profile run as one stream.
    std::uint64_t loops_hash;
    std::uint64_t stream_hash;
};

std::vector<CorpusCpu>
corpusCpus()
{
    return {
        {cortexA72Params(), isa::InstructionPool::armV8(), 1.2e9,
         {307, 337}, "mcf", 0x106186b8af5f9697ull,
         0x655fc78d8bc605f8ull},
        {cortexA53Params(), isa::InstructionPool::armV8(), 950e6, {},
         "lbm", 0x0b991695f5c86a6bull, 0xc0fdff4119d9928cull},
        {athlonX4Params(), isa::InstructionPool::x86Sse2(), 3.1e9,
         {108, 223}, "prime95", 0x27d7c44d8d3c6a9bull,
         0x8e51696487999d08ull},
    };
}

TEST(CoreModel, SeededCorpusEmitsPinnedBits)
{
    // Seeded 50-instruction kernels over the GA's 4 us window: the
    // range holds kernels that recur within a few iterations, kernels
    // whose state settles onto its period only thousands of cycles
    // after warmup, and (the extra seeds) kernels that never recur.
    // The pins cover every emitted sample and every statistic, so any
    // change to how the engine steps, detects or replays shows here.
    for (const auto &cpu : corpusCpus()) {
        SCOPED_TRACE(cpu.params.name);
        const CoreModel core(cpu.params);
        std::vector<std::uint64_t> seeds;
        for (std::uint64_t s = 1; s <= 60; ++s)
            seeds.push_back(s);
        seeds.insert(seeds.end(), cpu.never_recurring.begin(),
                     cpu.never_recurring.end());
        Fnv1a loops;
        for (std::uint64_t seed : seeds) {
            Rng rng(seed);
            const auto kernel = isa::Kernel::random(cpu.pool, 50, rng);
            loops.add(core.runLoop(cpu.pool, kernel, cpu.f_clk_hz, 4e-6));
        }
        Fnv1a stream;
        stream.add(core.runStream(
            cpu.pool,
            workloads::generateStream(
                workloads::findProfile(
                    cpu.profile == std::string("prime95")
                        ? workloads::desktopSuite()
                        : workloads::spec2006Suite(),
                    cpu.profile),
                cpu.pool, 8000, Rng(9)),
            cpu.f_clk_hz));
        EXPECT_EQ(loops.value(), cpu.loops_hash)
            << std::hex << "0x" << loops.value();
        EXPECT_EQ(stream.value(), cpu.stream_hash)
            << std::hex << "0x" << stream.value();
    }
}

TEST(CoreModel, RecurringLoopIsReplayedBeforeWarmupEnds)
{
    // Steady-state detection starts at cycle 0: a loop that settles
    // within a few iterations is replayed long before the warmup
    // (max(1024, 32 x 16) cycles) is over.
    const auto pool = isa::InstructionPool::armV8();
    const CoreModel a72(cortexA72Params());
    const bool was = metrics::enabled();
    metrics::setEnabled(true);
    const auto live = [] {
        const auto snap = metrics::Registry::instance().snapshot();
        const auto it = snap.counters.find("uarch.live_cycles");
        return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t before = live();
    const auto run =
        a72.runLoop(pool, independentAdds(pool, 16), 1.2e9, 4e-6);
    const std::uint64_t stepped = live() - before;
    metrics::setEnabled(was);
    EXPECT_GT(stepped, 0u);
    EXPECT_LT(stepped, 1024u);
    EXPECT_EQ(run.current.size(), 4801u);
}

class FuKindMapping
    : public ::testing::TestWithParam<std::pair<isa::InstrClass, FuKind>>
{};

TEST_P(FuKindMapping, ClassMapsToExpectedUnit)
{
    EXPECT_EQ(fuKindForClass(GetParam().first), GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, FuKindMapping,
    ::testing::Values(
        std::make_pair(isa::InstrClass::IntShort, FuKind::IntAlu),
        std::make_pair(isa::InstrClass::IntLong, FuKind::IntMul),
        std::make_pair(isa::InstrClass::FpShort, FuKind::Fp),
        std::make_pair(isa::InstrClass::FpLong, FuKind::Fp),
        std::make_pair(isa::InstrClass::SimdShort, FuKind::Simd),
        std::make_pair(isa::InstrClass::SimdLong, FuKind::Simd),
        std::make_pair(isa::InstrClass::Load, FuKind::Mem),
        std::make_pair(isa::InstrClass::Store, FuKind::Mem),
        std::make_pair(isa::InstrClass::IntShortMem, FuKind::Mem),
        std::make_pair(isa::InstrClass::IntLongMem, FuKind::Mem),
        std::make_pair(isa::InstrClass::Branch, FuKind::BranchU)));

TEST(CoreParams, FactoryConfigsAreConsistent)
{
    for (const auto &p :
         {cortexA72Params(), cortexA53Params(), athlonX4Params()}) {
        EXPECT_GE(p.issue_width, 1u);
        EXPECT_GE(p.window_size, p.issue_width);
        EXPECT_GT(p.idle_current, 0.0);
        EXPECT_GT(p.v_ref, 0.0);
        for (int k = 0; k < 6; ++k)
            EXPECT_GE(p.fuCount(static_cast<FuKind>(k)), 1u);
    }
    EXPECT_FALSE(cortexA53Params().out_of_order);
    EXPECT_TRUE(cortexA72Params().out_of_order);
    EXPECT_TRUE(athlonX4Params().out_of_order);
    // The 45 nm desktop core burns far more energy per op.
    EXPECT_GT(athlonX4Params().energy_scale,
              2.0 * cortexA72Params().energy_scale);
}

} // namespace
} // namespace uarch
} // namespace emstress
