/**
 * @file
 * Load generator for the virus-search service: drives hundreds of
 * concurrent jobs from multiple tenants through a SearchService (auto
 * fleet width, multiple runner threads, weighted-fair queuing) with a
 * cheap synthetic evaluator, then reports p50/p95/p99 queue-wait and
 * job-latency percentiles (overall and per job class) from the
 * service's fixed-bucket histograms plus a duplicate-spec round that
 * exercises the artifact store and a restart round that rebuilds the
 * service over the same spill directory and must serve duplicates
 * from the disk tier alone.
 *
 * The job mix is two-class: every third job is kInteractive with a
 * deadline, the rest are kBatch, so the per-class latency ledger and
 * the deadline_met/deadline_missed counters carry signal.
 *
 * The point is scheduler and transport behavior under contention —
 * admission, fairness, priority classes, artifact serving, restart
 * recovery — not platform simulation throughput, hence the synthetic
 * fitness. To put a number on the scheduler's own cost, the searched
 * specs are also run through a direct GaDriver on the service's fleet
 * (metrics off, so the ledger's counters describe the service alone)
 * and the gauge loadgen.overhead_pct compares the two walls per
 * generation. Results land in the
 * emstress-bench-perf-v1 ledger (bench_out/BENCH_perf.
 * loadgen_service.json) with the percentiles as gauges, compared
 * against bench/baselines/ by tools/perfdiff.py. Latency percentiles
 * are host-dependent (generous tolerance in perfdiff_tolerances.json);
 * the job/artifact counters are exact.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ga/ga_engine.h"
#include "isa/kernel.h"
#include "isa/pool.h"
#include "service/job.h"
#include "service/scheduler.h"
#include "util/metrics.h"
#include "util/table.h"

namespace emstress {
namespace bench {
namespace {

/** Cheap, pure, cloneable fitness (kernel-derived only), so the
 * bench measures scheduling, not simulation. */
class LoadgenFitness : public ga::FitnessEvaluator
{
  public:
    explicit LoadgenFitness(const isa::InstructionPool &pool)
        : pool_(pool)
    {}

    double
    evaluate(const isa::Kernel &kernel,
             ga::EvalDetail *detail) override
    {
        const double mix =
            kernel.classFraction(pool_, isa::InstrClass::SimdShort)
            + kernel.classFraction(pool_, isa::InstrClass::SimdLong);
        const double ripple =
            static_cast<double>(kernel.hash() % 2048) / 8192.0;
        if (detail != nullptr) {
            detail->metric_raw = mix + ripple;
            detail->measurement_seconds = 1.0;
            detail->dominant_freq_hz = 1e8 * (1.0 + ripple);
        }
        return mix + ripple;
    }

    std::string metricName() const override { return "loadgen"; }

    std::unique_ptr<ga::FitnessEvaluator>
    clone() const override
    {
        return std::make_unique<LoadgenFitness>(pool_);
    }

  private:
    const isa::InstructionPool &pool_;
};

/**
 * Percentile estimate from a fixed-bucket latency histogram: the
 * upper edge of the bucket holding the q-quantile sample (the
 * overflow bucket reports the largest finite edge — a lower bound).
 */
double
percentileSeconds(const metrics::HistogramSnapshot &hist, double q)
{
    if (hist.count == 0)
        return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(hist.count - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
        seen += hist.buckets[b];
        if (seen > rank) {
            const std::size_t edge =
                b < metrics::LatencyBuckets::kFiniteEdges
                    ? b
                    : metrics::LatencyBuckets::kFiniteEdges - 1;
            return metrics::LatencyBuckets::bucketEdge(edge);
        }
    }
    return metrics::LatencyBuckets::bucketEdge(
        metrics::LatencyBuckets::kFiniteEdges - 1);
}

/** The job mix: four tenants with 4:2:1:1 fair-share weights. */
struct TenantPlan
{
    const char *name;
    double weight;
};

constexpr TenantPlan kTenants[] = {{"alpha", 4.0},
                                   {"bravo", 2.0},
                                   {"charlie", 1.0},
                                   {"delta", 1.0}};

service::JobSpec
loadgenSpec(const std::string &tenant, std::uint64_t seed)
{
    service::JobSpec spec;
    spec.tenant = tenant;
    spec.ga.population = 12;
    spec.ga.generations = 6;
    spec.ga.kernel_length = 16;
    spec.ga.elite = 2;
    spec.ga.seed = seed;
    return spec;
}

/// Deadline on interactive jobs: generous (the bench asserts the
/// met/missed *ledger* works, not a latency SLO on a shared host).
constexpr double kInteractiveDeadlineS = 300.0;

/**
 * Run every spec to completion through a direct GaDriver on `fleet`,
 * one after another, with metrics off so the ledger stays the
 * service's. Returns the wall time and the results in spec order.
 */
double
runDirect(const std::vector<service::JobSpec> &specs, WorkerFleet &fleet,
          std::vector<ga::GaResult> &results)
{
    metrics::setEnabled(false);
    const double t0 = metrics::monotonicSeconds();
    for (const service::JobSpec &spec : specs) {
        const isa::InstructionPool &pool = presetPool(spec.platform);
        LoadgenFitness fitness(pool);
        ga::BatchHooks hooks;
        hooks.fleet = &fleet;
        ga::GaDriver driver(pool, spec.ga, fitness, {}, hooks);
        while (!driver.done())
            (void)driver.step();
        results.push_back(driver.finish());
    }
    const double wall = metrics::monotonicSeconds() - t0;
    metrics::setEnabled(true);
    return wall;
}

} // namespace
} // namespace bench
} // namespace emstress

int
main()
{
    using namespace emstress;
    using namespace emstress::bench;

    metrics::setEnabled(true);
    PerfLog perf_log("loadgen_service");
    banner("loadgen", "search-service load generator "
                      "(multi-tenant, weighted-fair, artifact store)");

    const std::size_t jobs_total = fullMode() ? 480 : 240;
    const std::size_t duplicates = fullMode() ? 80 : 40;

    // Persistent tier under bench_out/: wiped before the run so the
    // spill scan, write and restart counters are exact.
    const std::filesystem::path spill_dir =
        outputDir() / "loadgen_spill";
    std::filesystem::remove_all(spill_dir);

    service::ServiceConfig config;
    config.fleet_threads = 0; // auto (EMSTRESS_THREADS honored)
    config.runners = 4;
    config.max_jobs_in_flight = jobs_total + duplicates;
    config.max_jobs_per_tenant = jobs_total;
    for (const TenantPlan &t : kTenants)
        config.tenant_weights[t.name] = t.weight;
    config.artifacts.spill_dir = spill_dir.string();
    config.evaluator_factory =
        [](const service::JobSpec &spec) {
            return std::make_unique<LoadgenFitness>(
                presetPool(spec.platform));
        };
    // Heap-held so the restart round can destroy and rebuild the
    // service over the same spill directory.
    auto svc = std::make_unique<service::SearchService>(config);

    // Round 1: distinct specs, tenants interleaved round-robin so
    // every tenant contends for the whole run. Every third job is
    // interactive with a deadline; the rest are batch.
    std::vector<service::JobSpec> specs;
    specs.reserve(jobs_total);
    std::vector<service::JobId> ids;
    ids.reserve(jobs_total + duplicates);
    std::size_t interactive_jobs = 0;
    {
        metrics::ScopedPhase phase("loadgen.submit");
        for (std::size_t i = 0; i < jobs_total; ++i) {
            const TenantPlan &t =
                kTenants[i % (sizeof kTenants / sizeof kTenants[0])];
            service::JobSpec spec =
                loadgenSpec(t.name, 1000 + 7 * i);
            if (i % 3 == 2) {
                spec.job_class = service::JobClass::kInteractive;
                spec.deadline_s = kInteractiveDeadlineS;
                ++interactive_jobs;
            }
            specs.push_back(std::move(spec));
            const service::Submission sub = svc->submit(specs.back());
            if (!sub.accepted) {
                std::cerr << "submit rejected: " << sub.reject_reason
                          << "\n";
                return 1;
            }
            ids.push_back(sub.id);
        }
    }
    const double drain0 = metrics::monotonicSeconds();
    {
        metrics::ScopedPhase phase("loadgen.drain");
        for (service::JobId id : ids) {
            if (svc->waitTerminal(id)
                != service::JobState::kCompleted) {
                std::cerr << "job " << id << " did not complete\n";
                return 1;
            }
        }
    }
    const double service_wall = metrics::monotonicSeconds() - drain0;

    // Scheduler overhead: the same searches, direct, on the same fleet.
    // Their bits must match the service's (service == direct).
    std::vector<ga::GaResult> direct;
    direct.reserve(jobs_total);
    const double direct_wall = runDirect(specs, svc->fleet(), direct);
    std::size_t generations = 0;
    for (std::size_t i = 0; i < jobs_total; ++i) {
        const auto result = svc->result(ids[i]);
        if (std::bit_cast<std::uint64_t>(result->ga.best_fitness)
                != std::bit_cast<std::uint64_t>(direct[i].best_fitness)
            || result->ga.history.size() != direct[i].history.size()) {
            std::cerr << "job " << ids[i]
                      << " differs from its direct run\n";
            return 1;
        }
        generations += direct[i].history.size();
    }
    const double service_gen_ms =
        service_wall * 1e3 / static_cast<double>(generations);
    const double direct_gen_ms =
        direct_wall * 1e3 / static_cast<double>(generations);
    const double overhead_pct =
        (service_gen_ms / direct_gen_ms - 1.0) * 100.0;
    metrics::Registry::instance().setGauge("loadgen.overhead_pct",
                                           overhead_pct);
    Table overhead({"path", "wall [s]", "per generation [ms]"});
    overhead.row()
        .cell("service (4 runners)")
        .cell(service_wall, 4)
        .cell(service_gen_ms, 4);
    overhead.row()
        .cell("direct GaDriver (sequential)")
        .cell(direct_wall, 4)
        .cell(direct_gen_ms, 4);
    overhead.print("scheduler overhead: " + std::to_string(overhead_pct)
                   + " % over direct, same fleet");

    // Round 2: duplicate specs — content-identical resubmissions
    // (some cross-tenant) that the artifact store must serve
    // instantly and byte-identically.
    std::size_t served = 0;
    {
        metrics::ScopedPhase phase("loadgen.duplicates");
        for (std::size_t i = 0; i < duplicates; ++i) {
            service::JobSpec dup = specs[i];
            dup.tenant = kTenants[(i + 1) % 4].name; // cross-tenant
            const service::Submission sub = svc->submit(dup);
            if (!sub.accepted) {
                std::cerr << "duplicate rejected: "
                          << sub.reject_reason << "\n";
                return 1;
            }
            ids.push_back(sub.id);
            if (svc->waitTerminal(sub.id)
                != service::JobState::kCompleted) {
                std::cerr << "duplicate " << sub.id
                          << " did not complete\n";
                return 1;
            }
            if (svc->result(sub.id)->from_artifact_store)
                ++served;
        }
    }
    if (served != duplicates) {
        std::cerr << "artifact store served " << served << "/"
                  << duplicates << " duplicates\n";
        return 1;
    }

    // Round 3: restart recovery — destroy the service (a daemon
    // restart loses all in-memory state), rebuild it over the same
    // spill directory, and resubmit duplicates: every one must be
    // served from the disk tier, bit-exactly as the hot tier would.
    std::size_t disk_served = 0;
    {
        metrics::ScopedPhase phase("loadgen.restart");
        svc.reset();
        svc = std::make_unique<service::SearchService>(config);
        const auto scan = svc->artifacts().stats();
        if (scan.spill_indexed != jobs_total) {
            std::cerr << "restart scan indexed " << scan.spill_indexed
                      << "/" << jobs_total << " spilled artifacts\n";
            return 1;
        }
        for (std::size_t i = 0; i < duplicates; ++i) {
            const service::Submission sub = svc->submit(specs[i]);
            if (!sub.accepted) {
                std::cerr << "restart duplicate rejected: "
                          << sub.reject_reason << "\n";
                return 1;
            }
            ids.push_back(sub.id);
            if (svc->waitTerminal(sub.id)
                != service::JobState::kCompleted) {
                std::cerr << "restart duplicate " << sub.id
                          << " did not complete\n";
                return 1;
            }
            if (svc->result(sub.id)->from_artifact_store)
                ++disk_served;
        }
        const auto stats = svc->artifacts().stats();
        if (disk_served != duplicates
            || stats.disk_hits != duplicates
            || stats.spill_quarantined != 0) {
            std::cerr << "restart round served " << disk_served << "/"
                      << duplicates << " (disk hits "
                      << stats.disk_hits << ", quarantined "
                      << stats.spill_quarantined << ")\n";
            return 1;
        }
    }

    // Percentiles from the service's fixed-bucket histograms; stored
    // as gauges so the perf ledger (and its checked-in baseline)
    // carries them.
    const auto snap = metrics::Registry::instance().snapshot();
    Table t({"histogram", "n", "p50 [s]", "p95 [s]", "p99 [s]"});
    for (const char *name :
         {"service.queue_wait", "service.job_latency",
          "service.job_latency.batch",
          "service.job_latency.interactive"}) {
        const auto it = snap.latencies.find(name);
        if (it == snap.latencies.end())
            continue;
        const double p50 = percentileSeconds(it->second, 0.50);
        const double p95 = percentileSeconds(it->second, 0.95);
        const double p99 = percentileSeconds(it->second, 0.99);
        t.row()
            .cell(name)
            .cell(static_cast<long>(it->second.count))
            .cell(p50, 6)
            .cell(p95, 6)
            .cell(p99, 6);
        auto &reg = metrics::Registry::instance();
        reg.setGauge(std::string(name) + ".p50_s", p50);
        reg.setGauge(std::string(name) + ".p95_s", p95);
        reg.setGauge(std::string(name) + ".p99_s", p99);
    }
    t.print("service latency percentiles (histogram upper edges)");

    const auto counter = [&snap](const char *name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0L
                                         : static_cast<long>(
                                               it->second);
    };

    Table jobs({"counter", "value"});
    jobs.row().cell("jobs submitted").cell(
        static_cast<long>(ids.size()));
    jobs.row().cell("searched").cell(
        static_cast<long>(jobs_total));
    jobs.row().cell("interactive (deadline "
                    + std::to_string(
                        static_cast<long>(kInteractiveDeadlineS))
                    + " s)").cell(
        static_cast<long>(interactive_jobs));
    jobs.row().cell("deadlines met").cell(
        counter("service.deadline_met"));
    jobs.row().cell("deadlines missed").cell(
        counter("service.deadline_missed"));
    jobs.row().cell("artifact-served duplicates").cell(
        static_cast<long>(served));
    jobs.row().cell("disk-served after restart").cell(
        static_cast<long>(disk_served));
    jobs.row().cell("spill writes").cell(
        counter("service.store.spill_writes"));
    jobs.row().cell("spill indexed at restart").cell(
        counter("service.store.spill_indexed"));
    jobs.row().cell("tenants").cell(4L);
    jobs.row().cell("runner threads").cell(
        static_cast<long>(config.runners));
    jobs.print("load summary");

    svc.reset();
    std::filesystem::remove_all(spill_dir);

    std::cout << "loadgen: " << ids.size() << " jobs ("
              << jobs_total << " searched, " << served
              << " artifact-served, " << disk_served
              << " disk-served after restart) across 4 tenants "
                 "completed\n";
    return 0;
}
