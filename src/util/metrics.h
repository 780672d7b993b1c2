/**
 * @file
 * Process-wide observability: a thread-safe metrics registry
 * (counters, gauges, latency histograms with fixed deterministic
 * bucket edges) plus RAII phase-scoped timers recording wall and
 * per-thread CPU time.
 *
 * Metrics are strictly out-of-band of the simulation: nothing read
 * from a clock or the registry may feed fitness, ranking, RNG state
 * or any other replayed result, so every GA/measurement outcome is
 * bit-identical with metrics enabled or disabled at any thread
 * count (tests/test_ga.cc pins this). This header is the sanctioned
 * home for wall/CPU clock reads — emstress-lint R1 exempts clock
 * identifiers here, exactly as util/rng.h is the sanctioned home
 * for randomness. Ad-hoc timing elsewhere still needs an explicit
 * `// lint: timing-stats` annotation.
 *
 * Recording is gated on enabled(): EMSTRESS_METRICS=0 turns the
 * registry into a no-op (setEnabled() overrides programmatically).
 * Snapshots serialize to the BENCH_perf.json schema documented in
 * EXPERIMENTS.md ("Perf baselines").
 */

#ifndef EMSTRESS_UTIL_METRICS_H
#define EMSTRESS_UTIL_METRICS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace emstress {
namespace metrics {

// ---------------------------------------------------- clock access

/** Monotonic wall-clock seconds since an arbitrary epoch. */
inline double
monotonicSeconds()
{
    const auto t = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t.time_since_epoch())
        .count();
}

/**
 * CPU seconds consumed by the calling thread (0 where the platform
 * offers no per-thread CPU clock).
 */
inline double
threadCpuSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec)
        + 1e-9 * static_cast<double>(ts.tv_nsec);
#else
    return 0.0;
#endif
}

// --------------------------------------------------------- gating

/** True when the registry records (EMSTRESS_METRICS != "0"). */
bool enabled();

/** Override the environment gate (test/bench hook). */
void setEnabled(bool on);

// ------------------------------------------------------ snapshots

/** Accumulated timing of one named phase. */
struct PhaseStats
{
    double wall_s = 0.0;     ///< Total wall time across entries.
    double cpu_s = 0.0;      ///< Total per-thread CPU time.
    std::uint64_t count = 0; ///< Times the phase was entered.
};

/**
 * Fixed-edge latency histogram policy. Edges are exact binary
 * doublings of 100 ns — bucketEdge(i) = 1e-7 * 2^i seconds — so the
 * bucket layout never depends on the data, the run or the host:
 * histograms from any two runs are directly comparable bucket by
 * bucket. Bucket b counts samples in [bucketEdge(b-1), bucketEdge(b))
 * with bucket 0 open below and the last bucket open above.
 */
struct LatencyBuckets
{
    /** Finite edges (100 ns up to ~13.4 s). */
    static constexpr std::size_t kFiniteEdges = 28;
    /** Buckets, including the open-ended overflow bucket. */
    static constexpr std::size_t kBuckets = kFiniteEdges + 1;

    /** Edge i in seconds: exactly 1e-7 * 2^i. @pre i < kFiniteEdges */
    static double
    bucketEdge(std::size_t i)
    {
        return 1e-7 * static_cast<double>(std::uint64_t{1} << i);
    }

    /** Bucket index for a sample: the number of edges <= seconds. */
    static std::size_t
    bucketFor(double seconds)
    {
        std::size_t b = 0;
        while (b < kFiniteEdges && seconds >= bucketEdge(b))
            ++b;
        return b;
    }
};

/** One latency histogram's state. */
struct HistogramSnapshot
{
    std::uint64_t count = 0; ///< Samples recorded.
    double total_s = 0.0;    ///< Sum of recorded seconds.
    /// Per-bucket sample counts (LatencyBuckets::kBuckets wide).
    std::vector<std::uint64_t> buckets;

    bool
    operator==(const HistogramSnapshot &o) const
    {
        return count == o.count && total_s == o.total_s
            && buckets == o.buckets;
    }
};

/**
 * A point-in-time copy of the registry. std::map keys make every
 * serialization deterministic regardless of the registration or
 * scheduling order that produced the values.
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, PhaseStats> phases;
    std::map<std::string, HistogramSnapshot> latencies;

    /** True when nothing has been recorded. */
    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && phases.empty()
            && latencies.empty();
    }
};

// ------------------------------------------------------- registry

/**
 * Process-wide metrics registry. Every mutator is thread-safe (one
 * mutex; the instrumented call sites are per-phase or per-batch, not
 * per-sample, so contention is negligible) and a no-op while
 * disabled.
 */
class Registry
{
  public:
    /** The process-wide instance. */
    static Registry &instance();

    /** Add to a monotonic counter. */
    void add(std::string_view counter, std::uint64_t delta = 1);

    /** Set a gauge (last write wins). */
    void setGauge(std::string_view name, double value);

    /** Fold one phase entry into the named phase accumulator. */
    void recordPhase(std::string_view name, double wall_s,
                     double cpu_s);

    /** Fold one sample into the named latency histogram. */
    void recordLatency(std::string_view name, double seconds);

    /** Copy the current state. */
    MetricsSnapshot snapshot() const;

    /** Drop all recorded state (test/bench hook). */
    void reset();

  private:
    Registry() = default;

    mutable std::mutex mutex_;
    // guards: mutex_
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    // guards: mutex_
    std::map<std::string, double, std::less<>> gauges_;
    // guards: mutex_
    std::map<std::string, PhaseStats, std::less<>> phases_;
    // guards: mutex_
    std::map<std::string, HistogramSnapshot, std::less<>> latencies_;
};

/**
 * RAII phase timer: measures the enclosing scope's wall and
 * per-thread CPU time and folds them into the registry's phase
 * accumulator on destruction. Costs two clock reads when metrics are
 * enabled and nothing at all when disabled.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(std::string_view name)
    {
        if (!enabled())
            return;
        active_ = true;
        name_.assign(name);
        wall0_ = monotonicSeconds();
        cpu0_ = threadCpuSeconds();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase()
    {
        if (!active_)
            return;
        Registry::instance().recordPhase(
            name_, monotonicSeconds() - wall0_,
            threadCpuSeconds() - cpu0_);
    }

  private:
    bool active_ = false;
    std::string name_;
    double wall0_ = 0.0;
    double cpu0_ = 0.0;
};

// ------------------------------------------------- serialization

/** Serialize a snapshot to JSON (keys in deterministic order). */
std::string toJson(const MetricsSnapshot &snap);

/**
 * Serialize the BENCH_perf.json ledger of one bench run:
 * `{schema, bench, mode, threads, phases, counters, gauges,
 * latencies}` (EXPERIMENTS.md "Perf baselines").
 */
std::string benchPerfJson(const std::string &bench,
                          const std::string &mode,
                          std::size_t threads,
                          const MetricsSnapshot &snap);

/// Deepest object/array nesting parseSnapshotJson accepts (the
/// snapshot schema nests 3 deep); the parser recurses per level, so
/// the bound keeps crafted input from exhausting the stack.
inline constexpr std::size_t kMaxJsonDepth = 64;

/**
 * Parse a snapshot back from toJson() or benchPerfJson() output
 * (extra header keys are ignored). Round-trips bit-exactly.
 * @throws SimulationError on malformed input, including nesting
 *         deeper than kMaxJsonDepth.
 */
MetricsSnapshot parseSnapshotJson(const std::string &json);

} // namespace metrics
} // namespace emstress

#endif // EMSTRESS_UTIL_METRICS_H
