/**
 * @file
 * Core model implementation: a unified issue engine with renamed
 * dependencies that runs in either in-order or out-of-order
 * discipline, accumulating per-cycle switching energy.
 */

#include "uarch/core_model.h"

#include <algorithm>
#include <deque>

#include "util/error.h"
#include "util/metrics.h"

namespace emstress {
namespace uarch {

FuKind
fuKindForClass(isa::InstrClass cls)
{
    using C = isa::InstrClass;
    switch (cls) {
      case C::IntShort:    return FuKind::IntAlu;
      case C::IntLong:     return FuKind::IntMul;
      case C::FpShort:
      case C::FpLong:      return FuKind::Fp;
      case C::SimdShort:
      case C::SimdLong:    return FuKind::Simd;
      case C::Load:
      case C::Store:
      case C::IntShortMem:
      case C::IntLongMem:  return FuKind::Mem;
      case C::Branch:      return FuKind::BranchU;
    }
    return FuKind::IntAlu;
}

namespace {

/** Long-latency classes occupy their unit for the full latency. */
bool
isUnpipelined(isa::InstrClass cls)
{
    using C = isa::InstrClass;
    return cls == C::IntLong || cls == C::FpLong || cls == C::SimdLong
        || cls == C::IntLongMem;
}

/** Register-file index for the renaming table. */
std::size_t
regFileIndex(isa::RegFile file)
{
    switch (file) {
      case isa::RegFile::Int:  return 0;
      case isa::RegFile::Fp:   return 1;
      case isa::RegFile::Simd: return 2;
      case isa::RegFile::None: return 3;
    }
    return 3;
}

/** One dispatched, not-yet-issued instruction in the window. */
struct WindowEntry
{
    std::size_t slot;        ///< Index within the kernel/stream body.
    std::int64_t dyn_id;     ///< Dynamic instruction id.
    std::int64_t producer0;  ///< Dynamic id of src0 producer or -1.
    std::int64_t producer1;  ///< Dynamic id of src1 producer or -1.
};

} // namespace

unsigned
CoreParams::fuCount(FuKind kind) const
{
    switch (kind) {
      case FuKind::IntAlu:  return fu_int;
      case FuKind::IntMul:  return fu_int_mul;
      case FuKind::Fp:      return fu_fp;
      case FuKind::Simd:    return fu_simd;
      case FuKind::Mem:     return fu_mem;
      case FuKind::BranchU: return fu_branch;
    }
    return 1;
}

CoreModel::CoreModel(const CoreParams &params) : params_(params)
{
    requireConfig(params.issue_width >= 1, "issue width must be >= 1");
    requireConfig(params.window_size >= params.issue_width,
                  "window must be at least the issue width");
    requireConfig(params.v_ref > 0.0, "reference voltage must be > 0");
}

CoreRunResult
CoreModel::runLoop(const isa::InstructionPool &pool,
                   const isa::Kernel &kernel, double f_clk_hz,
                   double duration_s) const
{
    requireConfig(!kernel.empty(), "cannot run an empty kernel");
    requireConfig(f_clk_hz > 0.0 && duration_s > 0.0,
                  "clock and duration must be positive");
    kernel.validate(pool);
    // The simulated steady-state window: loop execution never ends
    // early.
    const auto target =
        static_cast<std::size_t>(duration_s * f_clk_hz) + 1;
    // Warmup long enough to fill pipelines and reach the periodic
    // steady state even for long-latency-heavy kernels.
    const std::size_t warmup =
        std::max<std::size_t>(1024, kernel.size() * 32);
    CoreRunResult out{Trace(1.0 / f_clk_hz), {}};
    out.current.reserve(target);
    out.stats = simulateInto(pool, kernel.code(), true, f_clk_hz, target,
                             warmup, out.current.data());
    return out;
}

CoreRunResult
CoreModel::runStream(const isa::InstructionPool &pool,
                     std::span<const isa::Instruction> stream,
                     double f_clk_hz) const
{
    requireConfig(!stream.empty(), "cannot run an empty stream");
    requireConfig(f_clk_hz > 0.0, "clock must be positive");
    // Upper bound: every instruction serialized at max latency.
    const std::size_t cap = stream.size() * 24 + 1024;
    CoreRunResult out{Trace(1.0 / f_clk_hz), {}};
    out.current.reserve(cap);
    out.stats = simulateInto(pool, stream, false, f_clk_hz, cap, 0,
                             out.current.data());
    return out;
}

KernelRunStats
CoreModel::simulateInto(const isa::InstructionPool &pool,
                        std::span<const isa::Instruction> body,
                        bool loop, double f_clk_hz,
                        std::size_t target_cycles,
                        std::size_t warmup_cycles,
                        std::vector<double> &out) const
{
    const double cycle_time = 1.0 / f_clk_hz;
    const std::size_t total_cycles = warmup_cycles + target_cycles;

    // Renaming table: last writer dynamic id per (regfile, reg).
    std::array<std::vector<std::int64_t>, 4> last_writer;
    for (std::size_t f = 0; f < 3; ++f) {
        const auto file = static_cast<isa::RegFile>(f);
        last_writer[f].assign(
            static_cast<std::size_t>(std::max(pool.regCount(file), 1)),
            -1);
    }
    last_writer[3].assign(1, -1);

    // Finish time (cycle at which the result is available) per
    // dynamic id; -1 while not yet issued. Stored as a sliding window
    // over recent dynamic ids: ids below ft_base can no longer be
    // referenced (not in the window, not a last_writer) and are
    // evicted periodically, keeping the engine O(window) in memory
    // regardless of run length.
    std::deque<std::int64_t> finish_time;
    std::int64_t ft_base = 0;
    auto ft = [&](std::int64_t dyn_id) -> std::int64_t & {
        return finish_time[static_cast<std::size_t>(dyn_id - ft_base)];
    };

    // Functional units: busy-until cycle per unit instance.
    std::array<std::vector<std::int64_t>, 6> fu_busy;
    for (std::size_t k = 0; k < 6; ++k)
        fu_busy[k].assign(params_.fuCount(static_cast<FuKind>(k)), 0);

    // Per-cycle switching energy, accumulated in a ring: an issue at
    // cycle c spreads energy over [c, c + latency), so once every
    // latency fits inside the ring, slot c % N holds exactly cycle
    // c's energy by the end of cycle c and can be emitted and
    // recycled immediately.
    constexpr std::size_t kEnergyRing = 64;
    std::array<double, kEnergyRing> energy{};

    std::deque<WindowEntry> window;
    std::size_t next_slot = 0;      ///< Next body index to dispatch.
    std::int64_t next_dyn = 0;      ///< Next dynamic id.
    bool stream_done = false;

    // Loop statistics: cycles at which slot 0 issues.
    std::vector<std::int64_t> iter_starts;
    std::size_t issued_total = 0;
    std::size_t issued_in_window = 0; // after warmup

    auto dispatch_one = [&]() {
        if (stream_done)
            return false;
        const isa::Instruction &instr = body[next_slot];
        const isa::InstrDef &d = pool.def(instr.def_index);
        WindowEntry e;
        e.slot = next_slot;
        e.dyn_id = next_dyn++;
        const std::size_t rf = regFileIndex(d.reg_file);
        e.producer0 = d.sources >= 1 && instr.src[0] >= 0
            ? last_writer[rf][static_cast<std::size_t>(instr.src[0])]
            : -1;
        e.producer1 = d.sources >= 2 && instr.src[1] >= 0
            ? last_writer[rf][static_cast<std::size_t>(instr.src[1])]
            : -1;
        if (d.has_dest && instr.dest >= 0)
            last_writer[rf][static_cast<std::size_t>(instr.dest)] =
                e.dyn_id;
        finish_time.push_back(-1);
        window.push_back(e);
        ++next_slot;
        if (next_slot == body.size()) {
            if (loop)
                next_slot = 0;
            else
                stream_done = true;
        }
        return true;
    };

    const double energy_to_amps = 1.0 / (cycle_time * params_.v_ref);

    // --- Steady-state fast-forward (loop mode only) ---------------
    // A looping kernel's normalized microarchitectural state (window
    // contents, relative finish times, unit busy deltas, energy-ring
    // phase, renaming table) lives in a finite space and evolves
    // deterministically, so it must eventually recur; from the first
    // recurrence on, the per-cycle current repeats exactly. Snapshot
    // the normalized state at iteration boundaries after warmup and,
    // once a snapshot repeats, replay the recorded period instead of
    // re-simulating — bit-identical emission at O(period) memory and
    // O(warmup + detection) simulated cycles.
    bool detecting = loop;
    bool have_ref = false;
    std::size_t ref_cycle = 0;
    std::vector<std::int64_t> ref_ints, cand_ints;
    std::vector<double> ref_ring, cand_ring;
    std::vector<double> rec_samples;
    std::vector<std::uint32_t> rec_issued, rec_iters;
    constexpr std::size_t kMaxRecord = 8192;

    auto snapshotInto = [&](std::int64_t c,
                            std::vector<std::int64_t> &ints,
                            std::vector<double> &ring) {
        ints.clear();
        ring.clear();
        auto encodeId = [&](std::int64_t p) {
            if (p < 0) {
                ints.push_back(0);
                ints.push_back(0);
                return;
            }
            const std::int64_t f = ft(p);
            if (f < 0) {
                // Unissued: identity relative to the dispatch head.
                ints.push_back(1);
                ints.push_back(p - next_dyn);
            } else if (f <= c) {
                ints.push_back(2); // done: any past finish is alike
                ints.push_back(0);
            } else {
                ints.push_back(3);
                ints.push_back(f - c);
            }
        };
        ints.push_back(static_cast<std::int64_t>(next_slot));
        ints.push_back(static_cast<std::int64_t>(window.size()));
        for (const auto &e : window) {
            ints.push_back(static_cast<std::int64_t>(e.slot));
            ints.push_back(e.dyn_id - next_dyn);
            encodeId(e.producer0);
            encodeId(e.producer1);
        }
        for (const auto &busy : fu_busy)
            for (std::int64_t b : busy)
                ints.push_back(std::max<std::int64_t>(b - c, 0));
        for (const auto &lw : last_writer)
            for (std::int64_t id : lw)
                encodeId(id);
        for (std::size_t j = 1; j <= kEnergyRing; ++j)
            ring.push_back(
                energy[(static_cast<std::size_t>(c) + j)
                       % kEnergyRing]);
    };

    std::size_t cycle = 0;
    std::size_t live_cycles = 0; ///< Cycles simulated one by one.
    for (; cycle < total_cycles; ++cycle) {
        // Dispatch into the window.
        while (window.size() < params_.window_size && dispatch_one()) {
        }
        if (window.empty() && stream_done)
            break;
        ++live_cycles;

        const auto c = static_cast<std::int64_t>(cycle);
        unsigned issued_this_cycle = 0;
        std::uint32_t iters_this_cycle = 0;

        for (auto it = window.begin();
             it != window.end()
             && issued_this_cycle < params_.issue_width;) {
            const isa::Instruction &instr = body[it->slot];
            const isa::InstrDef &d = pool.def(instr.def_index);

            // Operand readiness.
            const bool ready =
                (it->producer0 < 0
                 || (ft(it->producer0) >= 0
                     && ft(it->producer0) <= c))
                && (it->producer1 < 0
                    || (ft(it->producer1) >= 0
                        && ft(it->producer1) <= c));

            // Functional-unit availability.
            int unit = -1;
            const FuKind fu = fuKindForClass(d.cls);
            auto &busy = fu_busy[static_cast<std::size_t>(fu)];
            if (ready) {
                for (std::size_t u = 0; u < busy.size(); ++u) {
                    if (busy[u] <= c) {
                        unit = static_cast<int>(u);
                        break;
                    }
                }
            }

            if (ready && unit >= 0) {
                // Issue.
                const auto lat =
                    static_cast<std::int64_t>(d.latency);
                requireSim(
                    lat <= static_cast<std::int64_t>(kEnergyRing),
                    "instruction latency exceeds the energy ring; "
                    "enlarge kEnergyRing");
                ft(it->dyn_id) = c + lat;
                busy[static_cast<std::size_t>(unit)] =
                    isUnpipelined(d.cls) ? c + lat : c + 1;
                // Spread switching energy over the latency; front-end
                // overhead lands on the issue cycle.
                const double e_op = d.energy * params_.energy_scale;
                const double per_cycle =
                    e_op / static_cast<double>(d.latency);
                for (std::int64_t k = c; k < c + lat; ++k) {
                    energy[static_cast<std::size_t>(k)
                           % kEnergyRing] += per_cycle;
                }
                energy[cycle % kEnergyRing] += params_.issue_energy;

                ++issued_total;
                ++issued_this_cycle;
                if (cycle >= warmup_cycles)
                    ++issued_in_window;
                if (loop && it->slot == 0) {
                    iter_starts.push_back(c);
                    ++iters_this_cycle;
                }
                it = window.erase(it);
                continue;
            }
            if (!params_.out_of_order)
                break; // in-order: stall behind the oldest.
            ++it;
        }

        // End of cycle: every issue reaching this cycle has already
        // happened (later issues only touch later cycles), so its
        // energy is final — emit and recycle the ring slot.
        const std::size_t slot = cycle % kEnergyRing;
        const double emitted =
            params_.idle_current + energy[slot] * energy_to_amps;
        if (cycle >= warmup_cycles)
            out.push_back(emitted);
        energy[slot] = 0.0;

        if (detecting && cycle >= warmup_cycles) {
            if (have_ref) {
                rec_samples.push_back(emitted);
                rec_issued.push_back(issued_this_cycle);
                rec_iters.push_back(iters_this_cycle);
            }
            if (iters_this_cycle > 0) {
                if (!have_ref) {
                    snapshotInto(c, ref_ints, ref_ring);
                    have_ref = true;
                    ref_cycle = cycle;
                } else {
                    snapshotInto(c, cand_ints, cand_ring);
                    if (cand_ints == ref_ints
                        && cand_ring == ref_ring) {
                        // Recurrence: cycles ref_cycle+1..cycle form
                        // one exact period. Replay it for the rest
                        // of the run.
                        const std::size_t period = rec_samples.size();
                        for (std::size_t cyc = cycle + 1;
                             cyc < total_cycles; ++cyc) {
                            const std::size_t idx =
                                (cyc - ref_cycle - 1) % period;
                            out.push_back(rec_samples[idx]);
                            issued_in_window += rec_issued[idx];
                            for (std::uint32_t r = 0;
                                 r < rec_iters[idx]; ++r)
                                iter_starts.push_back(
                                    static_cast<std::int64_t>(cyc));
                        }
                        cycle = total_cycles;
                        break;
                    }
                }
            }
            if (rec_samples.size() > kMaxRecord) {
                // No recurrence within the budget: give up and keep
                // simulating cycle by cycle.
                detecting = false;
                std::vector<double>().swap(rec_samples);
                std::vector<std::uint32_t>().swap(rec_issued);
                std::vector<std::uint32_t>().swap(rec_iters);
            }
        }

        // Periodically evict finish times no dispatched or future
        // instruction can reference: producers come either from the
        // window entries or from the monotonically advancing
        // last_writer table.
        if ((cycle & 4095) == 4095) {
            std::int64_t min_live = next_dyn;
            for (const auto &lw : last_writer)
                for (std::int64_t id : lw)
                    if (id >= 0)
                        min_live = std::min(min_live, id);
            for (const auto &e : window) {
                min_live = std::min(min_live, e.dyn_id);
                if (e.producer0 >= 0)
                    min_live = std::min(min_live, e.producer0);
                if (e.producer1 >= 0)
                    min_live = std::min(min_live, e.producer1);
            }
            while (ft_base < min_live) {
                finish_time.pop_front();
                ++ft_base;
            }
        }
    }

    const std::size_t end_cycle = std::min(cycle, total_cycles);
    const std::size_t measured = end_cycle > warmup_cycles
        ? end_cycle - warmup_cycles
        : 0;
    requireSim(measured > 0, "core simulation produced no cycles");
    // Observability only: the counter never feeds the run.
    metrics::Registry::instance().add("uarch.live_cycles", live_cycles);

    KernelRunStats stats;
    stats.cycles = measured;
    stats.instructions = issued_in_window;
    stats.ipc = static_cast<double>(issued_in_window)
        / static_cast<double>(measured);
    if (loop && iter_starts.size() >= 8) {
        // Steady-state loop period from the second half of the
        // iteration starts.
        const std::size_t half = iter_starts.size() / 2;
        const auto span_cycles =
            iter_starts.back() - iter_starts[half];
        const auto iters =
            static_cast<double>(iter_starts.size() - 1 - half);
        if (iters > 0 && span_cycles > 0) {
            stats.loop_period_s =
                static_cast<double>(span_cycles) / iters * cycle_time;
            stats.loop_freq_hz = 1.0 / stats.loop_period_s;
        }
    }
    return stats;
}

CoreParams
cortexA72Params()
{
    CoreParams p;
    p.name = "Cortex-A72";
    p.out_of_order = true;
    p.issue_width = 3;
    p.window_size = 48;
    p.fu_int = 2;
    p.fu_int_mul = 1;
    p.fu_fp = 2;
    p.fu_simd = 2;
    p.fu_mem = 2;
    p.fu_branch = 1;
    p.idle_current = 0.10;
    p.issue_energy = 0.05e-9;
    p.energy_scale = 1.0; // 16 nm mobile big core (reference).
    p.v_ref = 1.0;
    return p;
}

CoreParams
cortexA53Params()
{
    CoreParams p;
    p.name = "Cortex-A53";
    p.out_of_order = false;
    p.issue_width = 2;
    p.window_size = 8; // shallow in-order front buffer
    p.fu_int = 2;
    p.fu_int_mul = 1;
    p.fu_fp = 1;
    p.fu_simd = 1;
    p.fu_mem = 1;
    p.fu_branch = 1;
    p.idle_current = 0.04;
    p.issue_energy = 0.03e-9;
    p.energy_scale = 1.1; // small in-order core: per-op switching
                          // energy comparable to the big core (same
                          // node); lower power comes from lower IPC
    p.v_ref = 1.0;
    return p;
}

CoreParams
athlonX4Params()
{
    CoreParams p;
    p.name = "Athlon II X4 645";
    p.out_of_order = true;
    p.issue_width = 3;
    p.window_size = 40;
    p.fu_int = 3;
    p.fu_int_mul = 1;
    p.fu_fp = 2;
    p.fu_simd = 2;
    p.fu_mem = 2;
    p.fu_branch = 1;
    p.idle_current = 0.9;    // 45 nm desktop: high static power
    p.issue_energy = 0.15e-9;
    p.energy_scale = 3.0;    // 45 nm node at 1.4 V: far higher energy
    p.v_ref = 1.4;
    return p;
}

} // namespace uarch
} // namespace emstress
