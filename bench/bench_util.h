/**
 * @file
 * Shared infrastructure for the experiment-reproduction binaries: a
 * full/quick run-mode switch, CSV output locations and a cross-bench
 * virus cache (so every figure that needs e.g. the "a72em" virus
 * reuses one GA search).
 *
 * Run modes: by default each bench uses a reduced measurement budget
 * (smaller GA population/generations, fewer spectrum samples) so the
 * whole suite finishes in minutes. Set EMSTRESS_FULL=1 to run the
 * paper's exact budgets (population 50, 60 generations, 30 samples).
 */

#ifndef EMSTRESS_BENCH_BENCH_UTIL_H
#define EMSTRESS_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/virus_generator.h"
#include "platform/platform.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/worker_fleet.h"

namespace emstress {
namespace bench {

/** True when EMSTRESS_FULL=1 requests paper-exact budgets. */
inline bool
fullMode()
{
    const char *env = std::getenv("EMSTRESS_FULL");
    return env != nullptr && std::string(env) == "1";
}

/** Output directory for CSVs and cached artifacts. */
inline std::filesystem::path
outputDir()
{
    const std::filesystem::path dir = "bench_out";
    std::filesystem::create_directories(dir);
    return dir;
}

/** Print a banner identifying the experiment. */
inline void
banner(const std::string &figure, const std::string &description)
{
    std::cout << "\n=========================================="
                 "====================\n"
              << figure << " — " << description << "\n"
              << "mode: " << (fullMode() ? "FULL (paper budgets)"
                                         : "QUICK (reduced budgets; "
                                           "set EMSTRESS_FULL=1)")
              << "\n==========================================="
                 "===================\n";
}

/** Write a table to CSV in the output dir and note the path. */
inline void
saveCsv(const Table &table, const std::string &stem)
{
    const auto path = outputDir() / (stem + ".csv");
    table.writeCsv(path.string());
    std::cout << "[csv] " << path.string() << "\n";
}

/** GA configuration scaled by run mode (paper: 50 x 60). */
inline ga::GaConfig
gaConfigForMode(std::uint64_t seed)
{
    ga::GaConfig cfg;
    if (fullMode()) {
        cfg.population = 50;
        cfg.generations = 60;
        // The paper seeds populations from previous runs
        // (Section 3.1(a)); restarts exploit that to escape harmonic
        // local optima.
        cfg.restarts = 3;
    } else {
        cfg.population = 32;
        cfg.generations = 30;
        cfg.restarts = 2;
    }
    cfg.kernel_length = 50; // paper: all viruses are 50 instructions
    cfg.seed = seed;
    // Evaluate each generation concurrently on platform clones.
    // Results are bit-identical to serial (threads = 1); override the
    // worker count with EMSTRESS_THREADS.
    cfg.threads = 0;
    return cfg;
}

/** Evaluation settings scaled by run mode (paper: 30 SA samples). */
inline core::EvalSettings
evalForMode()
{
    core::EvalSettings eval;
    eval.duration_s = 4e-6;
    eval.sa_samples = fullMode() ? 30 : 8;
    return eval;
}

/**
 * RAII perf-baseline writer: on destruction, snapshots the global
 * metrics registry and writes `bench_out/BENCH_perf.<bench>.json`
 * (schema documented in EXPERIMENTS.md "Perf baselines"). Construct
 * one at the top of every bench main so the ledger is emitted on
 * every exit path; tools/perfdiff.py compares two such ledgers.
 */
class PerfLog
{
  public:
    explicit PerfLog(std::string bench) : bench_(std::move(bench)) {}
    PerfLog(const PerfLog &) = delete;
    PerfLog &operator=(const PerfLog &) = delete;

    ~PerfLog()
    {
        const auto snap = metrics::Registry::instance().snapshot();
        const auto path =
            outputDir() / ("BENCH_perf." + bench_ + ".json");
        std::ofstream f(path);
        f << metrics::benchPerfJson(bench_,
                                    fullMode() ? "full" : "quick",
                                    resolveThreadCount(0), snap);
        std::cout << "[perf] " << path.string() << "\n";
    }

  private:
    std::string bench_;
};

/**
 * Print the measurement-pipeline counters of a GA search: fresh
 * evaluations vs. cache hits vs. reused elites, worker threads, the
 * parallel speedup over the serial evaluation path, and — when a
 * fault schedule was active — the injected-fault/retry accounting.
 */
inline void
printEvalStats(const ga::EvalStats &stats, const std::string &title)
{
    Table t({"counter", "value"});
    t.row().cell("fresh evaluations").cell(
        static_cast<long>(stats.evals));
    t.row().cell("fitness-cache hits").cell(
        static_cast<long>(stats.cache_hits));
    t.row().cell("elites reused").cell(
        static_cast<long>(stats.elites_reused));
    t.row().cell("worker threads").cell(
        static_cast<long>(stats.threads));
    t.row().cell("samples materialized").cell(
        static_cast<long>(stats.samples_materialized));
    t.row().cell("evaluation wall [s]").cell(stats.wall_seconds, 3);
    t.row().cell("parallel speedup [x]").cell(stats.speedup(), 2);
    if (stats.faults_injected > 0 || stats.permanent_failures > 0) {
        t.row().cell("faults injected").cell(
            static_cast<long>(stats.faults_injected));
        t.row().cell("retries").cell(
            static_cast<long>(stats.retries));
        t.row().cell("permanent failures").cell(
            static_cast<long>(stats.permanent_failures));
        t.row().cell("retry backoff [s]").cell(
            stats.fault_backoff_seconds, 3);
    }
    t.print(title);
}

/** One row of a cached GA progression (Figs. 7/12/17 series). */
struct GaHistoryRow
{
    std::size_t generation = 0;
    double best_fitness = 0.0;
    double mean_fitness = 0.0;
    double dominant_mhz = 0.0;
    double best_droop_mv = 0.0; ///< Post-hoc scope droop of the
                                ///< generation's best (0 when the
                                ///< platform has no visibility).
};

/** A cached or freshly searched virus plus its GA progression. */
struct BenchVirus
{
    core::VirusReport report;
    std::vector<GaHistoryRow> history;
    double lab_seconds = 0.0; ///< Modeled physical search time.
    bool from_cache = false;  ///< Loaded rather than searched.
};

/** Stable FNV-1a 64-bit hash (cache fingerprinting). */
inline std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char ch : s) {
        h ^= static_cast<std::uint64_t>(
            static_cast<unsigned char>(ch));
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Human-readable serialization of every budget-defining field of a
 * virus search. Anything that can change the search *result* must
 * appear here: the cross-bench cache refuses to serve an entry whose
 * recorded fingerprint differs from the requested budget's, so a
 * reduced-budget (quick) artifact can never masquerade as a
 * paper-budget (full) one — and a cache populated before a default
 * budget or the noise model (kNoiseModelVersion) changed is
 * invalidated instead of silently reused.
 */
inline std::string
budgetDescription(const core::VirusSearchConfig &cfg)
{
    std::ostringstream os;
    os.precision(17);
    os << "ga:" << cfg.ga.population << 'x' << cfg.ga.generations
       << ":len" << cfg.ga.kernel_length
       << ":mut" << cfg.ga.mutation_rate
       << ":op" << cfg.ga.operand_mutation_ratio
       << ":tk" << cfg.ga.tournament_k
       << ":el" << cfg.ga.elite
       << ":seed" << cfg.ga.seed
       << ":rs" << cfg.ga.restarts
       << "|eval:dur" << cfg.eval.duration_s
       << ":sa" << cfg.eval.sa_samples
       << ":f" << cfg.eval.f_lo_hz << '-' << cfg.eval.f_hi_hz
       << ":cores" << cfg.eval.active_cores
       // Literal: the retired streaming/batch switch. Both paths gave
       // bit-identical results, so keeping the token keeps every
       // cached virus's fingerprint, and the cache keeps hitting.
       << ":stream1"
       << "|metric:" << core::virusMetricName(cfg.metric)
       << "|noise:v" << kNoiseModelVersion;
    return os.str();
}

/** Budget fingerprint: the hash the cache keys entries on. */
inline std::uint64_t
budgetFingerprint(const core::VirusSearchConfig &cfg)
{
    return fnv1a64(budgetDescription(cfg));
}

/** Mode-suffixed cache stem of a named virus. */
inline std::string
virusCacheStem(const std::string &name, bool full)
{
    return name + (full ? ".full" : ".quick");
}

/**
 * True when a cached virus at dir/stem exists AND its recorded
 * budget fingerprint matches: kernel, history and meta sidecar all
 * present, meta's fingerprint equal to `fingerprint`. Entries
 * written before the meta sidecar existed never match.
 */
inline bool
cachedVirusServes(const std::filesystem::path &dir,
                  const std::string &stem, std::uint64_t fingerprint)
{
    namespace fs = std::filesystem;
    if (!fs::exists(dir / (stem + ".kernel"))
        || !fs::exists(dir / (stem + ".history"))
        || !fs::exists(dir / (stem + ".meta")))
        return false;
    std::ifstream mf(dir / (stem + ".meta"));
    std::string tag;
    std::uint64_t recorded = 0;
    if (!(mf >> tag >> std::hex >> recorded) || tag != "fingerprint")
        return false;
    return recorded == fingerprint;
}

/**
 * Fetch a virus from the cross-bench cache at `dir`, or run the GA
 * search and cache the result (kernel + GA progression + budget-meta
 * sidecars). The cache key is the stem (mode-suffixed by callers,
 * see virusCacheStem) AND the budget fingerprint: any entry whose
 * recorded fingerprint differs from `cfg`'s — other mode, other GA
 * budget, other eval settings, pre-fingerprint era — is treated as
 * stale, deleted, and re-searched.
 *
 * @param dir      Cache directory.
 * @param stem     Cache stem, e.g. "a72em.quick".
 * @param plat     Target platform (frequency/power state must
 *                 already be configured).
 * @param cfg      Full search configuration (budget + metric).
 * @param progress Optional per-generation observer.
 */
inline BenchVirus
searchOrLoadVirus(const std::filesystem::path &dir,
                  const std::string &stem, platform::Platform &plat,
                  const core::VirusSearchConfig &cfg,
                  const ga::GenerationCallback &progress = nullptr)
{
    namespace fs = std::filesystem;
    const auto path = dir / (stem + ".kernel");
    const auto hist_path = dir / (stem + ".history");
    const auto meta_path = dir / (stem + ".meta");
    const std::uint64_t fingerprint = budgetFingerprint(cfg);
    auto &reg = metrics::Registry::instance();

    core::VirusGenerator gen(plat);
    if (cachedVirusServes(dir, stem, fingerprint)) {
        reg.add("bench.virus_cache.hits");
        std::ifstream f(path);
        std::ostringstream buf;
        buf << f.rdbuf();
        const auto kernel =
            isa::Kernel::deserialize(plat.pool(), buf.str());
        std::cout << "[cache] reusing virus '" << stem << "' from "
                  << path.string() << "\n";
        BenchVirus out;
        out.from_cache = true;
        out.report = gen.characterize(kernel, cfg.eval);
        out.report.metric = core::virusMetricName(cfg.metric);

        std::ifstream hf(hist_path);
        hf >> out.lab_seconds;
        GaHistoryRow row;
        while (hf >> row.generation >> row.best_fitness
               >> row.mean_fitness >> row.dominant_mhz
               >> row.best_droop_mv) {
            out.history.push_back(row);
        }
        return out;
    }

    if (fs::exists(path) || fs::exists(hist_path)
        || fs::exists(meta_path)) {
        // Same stem, different (or unrecorded) budget: the entry
        // would silently stand in for a search it never ran.
        reg.add("bench.virus_cache.invalidations");
        std::cout << "[cache] stale virus '" << stem
                  << "' (budget fingerprint mismatch); "
                     "re-searching\n";
        fs::remove(path);
        fs::remove(hist_path);
        fs::remove(meta_path);
    }
    reg.add("bench.virus_cache.misses");

    std::cout << "[ga] searching virus '" << stem << "' ("
              << core::virusMetricName(cfg.metric) << ", "
              << cfg.ga.population << " x " << cfg.ga.generations
              << ")...\n";
    BenchVirus out;
    {
        metrics::ScopedPhase search_span("bench.virus_search");
        out.report = gen.search(cfg, progress);
    }
    out.lab_seconds = out.report.ga.estimated_lab_seconds;

    // Build the progression rows; re-measure each generation's best
    // on the scope where one exists (the paper's Fig. 7 procedure).
    for (const auto &rec : out.report.ga.history) {
        GaHistoryRow row;
        row.generation = rec.generation;
        row.best_fitness = rec.best_fitness;
        row.mean_fitness = rec.mean_fitness;
        row.dominant_mhz = rec.best_detail.dominant_freq_hz / 1e6;
        if (plat.hasVoltageVisibility()) {
            const auto run =
                plat.runKernel(rec.best, cfg.eval.duration_s);
            const Trace cap = plat.scope().capture(run.v_die);
            row.best_droop_mv = instruments::Oscilloscope::maxDroop(
                                    cap, plat.voltage())
                * 1e3;
        }
        out.history.push_back(row);
    }

    std::ofstream f(path);
    f << out.report.virus.serialize(plat.pool());
    std::ofstream hf(hist_path);
    hf << out.lab_seconds << "\n";
    for (const auto &row : out.history) {
        hf << row.generation << ' ' << row.best_fitness << ' '
           << row.mean_fitness << ' ' << row.dominant_mhz << ' '
           << row.best_droop_mv << "\n";
    }
    std::ofstream mf(meta_path);
    mf << "fingerprint " << std::hex << fingerprint << std::dec
       << "\nbudget " << budgetDescription(cfg) << "\n";
    std::cout << "[cache] saved virus '" << stem << "' to "
              << path.string() << "\n";
    return out;
}

/**
 * Fetch a virus from the cross-bench cache, or run the GA search and
 * cache the result. Mode-scaled budgets; progress is logged every
 * five generations.
 *
 * @param plat   Target platform (frequency/power state must already
 *               be configured).
 * @param name   Cache key, e.g. "a72em" (mode- and budget-keyed
 *               internally).
 * @param metric Feedback metric for the search.
 * @param seed   GA seed.
 */
inline BenchVirus
getOrSearchVirus(platform::Platform &plat, const std::string &name,
                 core::VirusMetric metric, std::uint64_t seed)
{
    core::VirusSearchConfig cfg;
    cfg.ga = gaConfigForMode(seed);
    cfg.eval = evalForMode();
    cfg.metric = metric;
    return searchOrLoadVirus(
        outputDir(), virusCacheStem(name, fullMode()), plat, cfg,
        [](const ga::GenerationRecord &rec) {
            if (rec.generation % 5 == 0) {
                std::printf("  gen %2zu  best %.2f  mean %.2f  "
                            "dom %.1f MHz\n",
                            rec.generation, rec.best_fitness,
                            rec.mean_fitness,
                            rec.best_detail.dominant_freq_hz / 1e6);
            }
        });
}

} // namespace bench
} // namespace emstress

#endif // EMSTRESS_BENCH_BENCH_UTIL_H
