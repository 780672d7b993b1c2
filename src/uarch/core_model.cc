/**
 * @file
 * Core model implementation: a unified issue engine with renamed
 * dependencies that runs in either in-order or out-of-order
 * discipline, accumulating per-cycle switching energy.
 */

#include "uarch/core_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

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

/** A pool definition as the issue stage needs it, decoded once. */
struct DecodedOp
{
    std::size_t fu = 0;          ///< FuKind index.
    std::int64_t latency = 1;    ///< Cycles until the result is ready.
    bool unpipelined = false;    ///< Holds its unit for the latency.
    double per_cycle = 0.0;      ///< Switching energy per latency cycle.
    std::size_t rf = 3;          ///< Renaming-table index.
    unsigned sources = 0;        ///< Register sources read.
    bool has_dest = false;       ///< Writes a destination register.
};

constexpr std::uint32_t kNoLink = 0xffffffffu;

/** One dispatched, not-yet-issued instruction in the window. */
struct WindowEntry
{
    std::size_t slot = 0;       ///< Index within the kernel/stream body.
    const DecodedOp *op = nullptr; ///< Its decoded definition.
    std::int64_t dyn_id = 0;    ///< Dynamic instruction id.
    /// Per source: the unissued producer's dynamic id, or -1 once the
    /// operand's finish cycle is known (or it has no producer).
    std::array<std::int64_t, 2> waiting_on{{-1, -1}};
    /// Latest finish cycle among the producers already issued: the
    /// entry may issue from this cycle on once it waits on none.
    std::int64_t ready = 0;
    /// Head of the list of consumer operands waiting on this entry;
    /// link 2 * entry + source, chained through `next_waiter`.
    std::uint32_t waiters = kNoLink;
    bool live = false;          ///< Holds an instruction.
};

/** Renaming-table entry: the last writer of one register. */
struct Writer
{
    std::int64_t dyn_id = -1;   ///< Dynamic id, -1 for none yet.
    std::int64_t finish = -1;   ///< Result cycle, -1 while unissued.
    std::uint32_t entry = 0;    ///< Window storage while unissued.
};

/**
 * The window entries of one unit kind whose operands are ready,
 * oldest first. Picks take the front; the consumed prefix is dropped
 * when the storage would otherwise grow.
 */
class ReadyList
{
  public:
    bool empty() const { return head_ == ids_.size(); }
    std::uint32_t front() const { return ids_[head_]; }

    void
    popFront()
    {
        if (++head_ == ids_.size()) {
            ids_.clear();
            head_ = 0;
        }
    }

    /** Insert by age; `older(a, b)` orders two entries. */
    template <class Older>
    void
    insert(std::uint32_t entry, Older older)
    {
        const auto live = ids_.begin() + static_cast<std::ptrdiff_t>(head_);
        if (head_ > 0 && ids_.size() == ids_.capacity()) {
            ids_.erase(ids_.begin(), live);
            head_ = 0;
        }
        if (empty() || older(ids_.back(), entry))
            ids_.push_back(entry); // the youngest ready entry so far
        else
            ids_.insert(std::upper_bound(ids_.begin()
                                             + static_cast<std::ptrdiff_t>(
                                                 head_),
                                         ids_.end(), entry, older),
                        entry);
    }

  private:
    std::vector<std::uint32_t> ids_;
    std::size_t head_ = 0;
};

/** One stepped cycle, kept for replay once the state recurs. */
struct RecordedCycle
{
    double current;             ///< Emitted current [A].
    std::uint32_t issued;       ///< Instructions issued.
    std::uint32_t iters;        ///< Iterations started (slot 0 issues).
};

/** Fold one 64-bit word into a running state hash. */
std::uint64_t
foldWord(std::uint64_t h, std::uint64_t w)
{
    h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h * 0xff51afd7ed558ccdull;
}

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

    // Every pool definition decoded once. The energy per latency
    // cycle is the same expression it always was, so the same bits.
    std::vector<DecodedOp> ops(pool.defs().size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const isa::InstrDef &d = pool.defs()[i];
        DecodedOp &op = ops[i];
        op.fu = static_cast<std::size_t>(fuKindForClass(d.cls));
        op.latency = static_cast<std::int64_t>(d.latency);
        op.unpipelined = isUnpipelined(d.cls);
        const double e_op = d.energy * params_.energy_scale;
        op.per_cycle = e_op / static_cast<double>(d.latency);
        op.rf = regFileIndex(d.reg_file);
        op.sources = d.sources;
        op.has_dest = d.has_dest;
    }

    // Renaming table: the last writer per (regfile, reg).
    std::array<std::vector<Writer>, 4> last_writer;
    for (std::size_t f = 0; f < 3; ++f) {
        const auto file = static_cast<isa::RegFile>(f);
        last_writer[f].assign(
            static_cast<std::size_t>(std::max(pool.regCount(file), 1)),
            Writer{});
    }
    last_writer[3].assign(1, Writer{});

    // Functional units: busy-until cycle per unit instance.
    constexpr std::size_t kKinds = 6;
    std::array<std::vector<std::int64_t>, kKinds> fu_busy;
    for (std::size_t k = 0; k < kKinds; ++k)
        fu_busy[k].assign(params_.fuCount(static_cast<FuKind>(k)), 0);

    // Per-cycle switching energy, accumulated in a ring: an issue at
    // cycle c spreads energy over [c, c + latency), so once every
    // latency fits inside the ring, slot c % N holds exactly cycle
    // c's energy by the end of cycle c and can be emitted and
    // recycled immediately.
    constexpr std::size_t kEnergyRing = 64;
    std::array<double, kEnergyRing> energy{};

    // The window in flat storage: entries, a free list of storage
    // slots, and the links of consumer operands waiting on an
    // unissued producer (link 2 * consumer + source).
    const std::size_t window_cap = params_.window_size;
    std::vector<WindowEntry> entries(window_cap);
    std::vector<std::uint32_t> free_entries(window_cap);
    for (std::size_t i = 0; i < window_cap; ++i)
        free_entries[i] = static_cast<std::uint32_t>(window_cap - 1 - i);
    std::vector<std::uint32_t> next_waiter(2 * window_cap, kNoLink);
    std::size_t window_count = 0;

    // Issue candidates: per unit kind, the entries whose operands are
    // ready by this cycle, oldest first. An entry whose operands
    // finish later waits in the wakeup bucket of that cycle; every
    // finish lies at most one ring length past the cycle it becomes
    // known in.
    std::array<ReadyList, kKinds> ready;
    unsigned ready_kinds = 0; ///< Bit k: ready[k] is not empty.
    std::array<std::vector<std::uint32_t>, kEnergyRing> wake_at;
    const auto older = [&](std::uint32_t a, std::uint32_t b) {
        return entries[a].dyn_id < entries[b].dyn_id;
    };
    auto makeReady = [&](std::uint32_t ei) {
        const std::size_t kind = entries[ei].op->fu;
        ready_kinds |= 1u << kind;
        ready[kind].insert(ei, older);
    };

    std::size_t cycle = 0;
    std::size_t next_slot = 0;      ///< Next body index to dispatch.
    std::int64_t next_dyn = 0;      ///< Next dynamic id.
    bool stream_done = false;

    // Loop statistics: cycles at which slot 0 issues.
    std::vector<std::int64_t> iter_starts;
    std::size_t issued_in_window = 0; // after warmup

    auto dispatch_one = [&]() {
        if (stream_done)
            return false;
        const isa::Instruction &instr = body[next_slot];
        requireConfig(instr.def_index < ops.size(),
                      "definition index out of range");
        const DecodedOp &op = ops[instr.def_index];
        const std::uint32_t ei = free_entries.back();
        free_entries.pop_back();
        WindowEntry &e = entries[ei];
        e.slot = next_slot;
        e.op = &op;
        e.dyn_id = next_dyn++;
        e.ready = 0;
        e.waiters = kNoLink;
        e.live = true;
        auto &regs = last_writer[op.rf];
        for (std::size_t k = 0; k < 2; ++k) {
            e.waiting_on[k] = -1;
            if (op.sources <= k || instr.src[k] < 0)
                continue;
            const Writer &w = regs[static_cast<std::size_t>(instr.src[k])];
            if (w.dyn_id < 0)
                continue;
            if (w.finish < 0) {
                e.waiting_on[k] = w.dyn_id;
                const auto link = static_cast<std::uint32_t>(2 * ei + k);
                next_waiter[link] = entries[w.entry].waiters;
                entries[w.entry].waiters = link;
            } else {
                e.ready = std::max(e.ready, w.finish);
            }
        }
        if (op.has_dest && instr.dest >= 0)
            regs[static_cast<std::size_t>(instr.dest)] =
                Writer{e.dyn_id, -1, ei};
        ++window_count;
        if (e.waiting_on[0] < 0 && e.waiting_on[1] < 0) {
            if (e.ready <= static_cast<std::int64_t>(cycle))
                makeReady(ei);
            else
                wake_at[static_cast<std::size_t>(e.ready) % kEnergyRing]
                    .push_back(ei);
        }
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
    // contents and operand readiness, unit busy deltas, energy-ring
    // phase, renaming table, all relative to the current cycle and
    // the dispatch head) lives in a finite space and evolves
    // deterministically, so it must eventually recur; from the first
    // recurrence on, the per-cycle current repeats exactly. From
    // cycle 0, each iteration boundary's state is hashed and compared
    // against one reference state; only an equal hash builds the
    // full state, and only an equal full state counts. The reference
    // moves forward, Brent-style, whenever the record since it
    // reaches 256, 512, ... cycles, so a reference taken before the
    // loop settled cannot block every later match. Once a state
    // recurs, the recorded period is replayed instead of
    // re-simulated, and only cycles past warmup are emitted.
    auto entryWords = [&](const WindowEntry &e, std::int64_t c,
                          auto &&put) {
        put(static_cast<std::int64_t>(e.slot));
        put(e.dyn_id - next_dyn);
        put(std::max<std::int64_t>(e.ready - c, 0));
        for (std::int64_t p : e.waiting_on)
            put(p < 0 ? 0 : p - next_dyn);
    };
    auto sharedWords = [&](std::int64_t c, auto &&put) {
        put(static_cast<std::int64_t>(next_slot));
        put(static_cast<std::int64_t>(window_count));
        for (const auto &busy : fu_busy)
            for (std::int64_t b : busy)
                put(std::max<std::int64_t>(b - c, 0));
        // An unissued writer by its id relative to the dispatch head
        // (negative), an in-flight one by its cycles to go
        // (positive); a finished writer is alike any past one (0).
        for (const auto &regs : last_writer)
            for (const Writer &w : regs)
                put(w.dyn_id < 0 ? 0
                    : w.finish < 0
                        ? w.dyn_id - next_dyn
                        : std::max<std::int64_t>(w.finish - c, 0));
        for (std::size_t j = 1; j <= kEnergyRing; ++j)
            put(std::bit_cast<std::int64_t>(
                energy[(static_cast<std::size_t>(c) + j) % kEnergyRing]));
    };
    auto stateHash = [&](std::int64_t c) {
        std::uint64_t h = 0;
        sharedWords(c, [&](std::int64_t w) {
            h = foldWord(h, static_cast<std::uint64_t>(w));
        });
        // Entries sum their own hashes: which storage slot holds an
        // entry does not matter.
        std::uint64_t sum = 0;
        for (const WindowEntry &e : entries) {
            if (!e.live)
                continue;
            std::uint64_t he = 0;
            entryWords(e, c, [&](std::int64_t w) {
                he = foldWord(he, static_cast<std::uint64_t>(w));
            });
            sum += he;
        }
        return foldWord(h, sum);
    };
    std::vector<std::uint32_t> by_age;
    auto snapshotInto = [&](std::int64_t c,
                            std::vector<std::int64_t> &words) {
        words.clear();
        const auto put = [&](std::int64_t w) { words.push_back(w); };
        sharedWords(c, put);
        by_age.clear();
        for (std::uint32_t i = 0; i < entries.size(); ++i)
            if (entries[i].live)
                by_age.push_back(i);
        std::sort(by_age.begin(), by_age.end(), older);
        for (std::uint32_t i : by_age)
            entryWords(entries[i], c, put);
    };
    bool have_ref = false;
    std::uint64_t ref_hash = 0;
    std::size_t anchor_at = 256;
    std::vector<std::int64_t> ref_words, cand_words;
    std::vector<RecordedCycle> record;

    std::size_t live_cycles = 0; ///< Cycles simulated one by one.
    for (; cycle < total_cycles; ++cycle) {
        // Wake the entries whose operands are ready from this cycle.
        auto &woken = wake_at[cycle % kEnergyRing];
        for (std::uint32_t ei : woken)
            makeReady(ei);
        woken.clear();

        // Dispatch into the window.
        while (window_count < window_cap && dispatch_one()) {
        }
        if (window_count == 0 && stream_done)
            break;
        ++live_cycles;

        const auto c = static_cast<std::int64_t>(cycle);
        unsigned issued_this_cycle = 0;
        std::uint32_t iters_this_cycle = 0;

        // Issue: each pick is the oldest ready entry whose kind has a
        // free unit, on that kind's lowest free unit. Units only fill
        // up within a cycle, so this is the order a scan of the whole
        // window, oldest first, issues in. In order, only the window's
        // oldest entry may issue (the window holds consecutive ids,
        // so that is next_dyn - count), and anything else stalls.
        while (issued_this_cycle < params_.issue_width) {
            std::size_t kind = kKinds;
            std::size_t unit = 0;
            for (unsigned m = ready_kinds; m != 0; m &= m - 1) {
                const auto k = static_cast<std::size_t>(std::countr_zero(m));
                if (kind < kKinds
                    && entries[ready[k].front()].dyn_id
                        > entries[ready[kind].front()].dyn_id)
                    continue;
                std::size_t u = 0;
                while (u < fu_busy[k].size() && fu_busy[k][u] > c)
                    ++u;
                if (u == fu_busy[k].size() && params_.out_of_order)
                    continue;
                kind = k;
                unit = u;
            }
            if (kind == kKinds)
                break;
            const std::uint32_t ei = ready[kind].front();
            WindowEntry &e = entries[ei];
            auto &busy = fu_busy[kind];
            if (!params_.out_of_order
                && (e.dyn_id
                        != next_dyn - static_cast<std::int64_t>(window_count)
                    || unit == busy.size()))
                break; // in-order: stall behind the oldest.
            ready[kind].popFront();
            if (ready[kind].empty())
                ready_kinds &= ~(1u << kind);
            const isa::Instruction &instr = body[e.slot];
            const DecodedOp &op = *e.op;

            // Issue.
            requireSim(op.latency <= static_cast<std::int64_t>(kEnergyRing),
                       "instruction latency exceeds the energy ring; "
                       "enlarge kEnergyRing");
            const std::int64_t finish = c + op.latency;
            busy[unit] = op.unpipelined ? finish : c + 1;
            // Spread switching energy over the latency; front-end
            // overhead lands on the issue cycle.
            for (std::int64_t k = c; k < finish; ++k)
                energy[static_cast<std::size_t>(k) % kEnergyRing] +=
                    op.per_cycle;
            energy[cycle % kEnergyRing] += params_.issue_energy;

            ++issued_this_cycle;
            if (cycle >= warmup_cycles)
                ++issued_in_window;
            if (loop && e.slot == 0) {
                iter_starts.push_back(c);
                ++iters_this_cycle;
            }

            // Wake the consumers: each learns this finish cycle, and
            // one waiting on nothing else is due then.
            for (std::uint32_t link = e.waiters; link != kNoLink;
                 link = next_waiter[link]) {
                WindowEntry &w = entries[link / 2];
                w.waiting_on[link % 2] = -1;
                w.ready = std::max(w.ready, finish);
                if (w.waiting_on[0] < 0 && w.waiting_on[1] < 0)
                    wake_at[static_cast<std::size_t>(w.ready)
                            % kEnergyRing]
                        .push_back(link / 2);
            }
            if (op.has_dest && instr.dest >= 0) {
                Writer &w = last_writer[op.rf]
                                       [static_cast<std::size_t>(
                                           instr.dest)];
                if (w.dyn_id == e.dyn_id)
                    w.finish = finish;
            }
            e.live = false;
            free_entries.push_back(ei);
            --window_count;
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

        if (!loop)
            continue;
        if (have_ref)
            record.push_back({emitted, issued_this_cycle, iters_this_cycle});
        if (iters_this_cycle == 0)
            continue;
        const std::uint64_t hash = stateHash(c);
        if (have_ref && hash == ref_hash) {
            snapshotInto(c, cand_words);
            if (cand_words == ref_words) {
                // Recurrence: the cycles recorded since the reference
                // form one exact period. Replay it for the rest of the
                // run, emitting only cycles past warmup.
                std::size_t idx = 0;
                for (std::size_t cyc = cycle + 1; cyc < total_cycles;
                     ++cyc) {
                    const RecordedCycle &r = record[idx];
                    if (++idx == record.size())
                        idx = 0;
                    if (cyc >= warmup_cycles) {
                        out.push_back(r.current);
                        issued_in_window += r.issued;
                    }
                    for (std::uint32_t n = 0; n < r.iters; ++n)
                        iter_starts.push_back(
                            static_cast<std::int64_t>(cyc));
                }
                cycle = total_cycles;
                break;
            }
        }
        if (!have_ref || record.size() >= anchor_at) {
            if (have_ref)
                anchor_at *= 2;
            snapshotInto(c, ref_words);
            ref_hash = hash;
            record.clear();
            have_ref = true;
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
