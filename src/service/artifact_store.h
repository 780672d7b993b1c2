/**
 * @file
 * Content-addressed shared artifact store — the service-era promotion
 * of the cross-bench virus cache. Entries are finished JobResults
 * keyed by the submitting spec's FNV-1a content fingerprint
 * (service::jobFingerprint), so any tenant repeating a
 * result-identical spec is served the stored artifact byte for byte
 * instead of re-running the search. Because the fingerprint covers
 * every result-defining field of the spec, a served artifact is
 * bit-identical to what the search would have produced — the store
 * changes job *latency*, never job *results*.
 *
 * Time-to-live is measured in logical epochs, not wall clock: the
 * scheduler advances the epoch once per completed search. An entry
 * not fetched for `ttl_epochs` advances is evicted on the ttl-th
 * advance. Logical TTL keeps the store deterministic under test (no
 * clock reads — see the emstress-lint nondeterminism sanctions) while
 * still bounding staleness and memory under sustained traffic.
 *
 * Disk tier (Config::spill_dir): completed artifacts spill to a
 * content-addressed on-disk layout — `<root>/<fp16>.artifact` holding
 * the wire-encoded JobResult and a `<fp16>.meta` text sidecar
 * carrying schema version, fingerprint, logical epoch, platform
 * preset and payload size. Writes are atomic (temp file + rename,
 * meta last so the sidecar is the commit point). Encoding and file
 * contents are written off the store mutex, to uniquely named temp
 * files; the mutex is held only to rename a finished pair into place
 * and index it, so concurrent completions of one fingerprint never
 * share a temp path and an eviction racing a write leaves the files
 * and the index consistent. On construction the
 * store scans the directory and indexes every valid sidecar without
 * reading payloads; payload bytes load lazily on the first fetch of a
 * spilled fingerprint, so a restarted daemon serves bit-identical
 * artifacts without re-running searches. Corrupt or truncated spill
 * files are quarantined (moved under `<root>/quarantine/`), counted,
 * and treated as misses — disk damage degrades service, never
 * crashes it. Temp files orphaned by a crash mid-write are deleted by
 * the scan; a spill root belongs to one store at a time. The
 * logical-epoch TTL extends to the disk tier: eviction removes the
 * file pair along with the index entry.
 */

#ifndef EMSTRESS_SERVICE_ARTIFACT_STORE_H
#define EMSTRESS_SERVICE_ARTIFACT_STORE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/job.h"

namespace emstress {
namespace service {

/**
 * Thread-safe, content-addressed, TTL-bounded artifact store with an
 * optional persistent disk tier.
 */
class ArtifactStore
{
  public:
    struct Config
    {
        /// Epochs an entry survives without being fetched; 0 means
        /// entries never expire.
        std::size_t ttl_epochs = 0;
        /// Spill root for the persistent tier; empty keeps the store
        /// memory-only (the process-lifetime cache of PR 7).
        std::string spill_dir;
    };

    /** Cumulative counters (also mirrored into the metrics registry
     * under "service.store.*"). */
    struct Stats
    {
        std::uint64_t hits = 0;   ///< Any-tier fetch hits.
        std::uint64_t misses = 0; ///< Fetches that found nothing.
        /// Fetch hits whose payload was (re)loaded from disk.
        std::uint64_t disk_hits = 0;
        std::uint64_t inserts = 0; ///< First-time fingerprints only.
        /// Overwrites of an already-present fingerprint. Split from
        /// inserts so mirrored metrics expose double completions.
        std::uint64_t replacements = 0;
        std::uint64_t expirations = 0;
        std::uint64_t invalidations = 0;
        /// Spill files indexed by the startup scan.
        std::uint64_t spill_indexed = 0;
        std::uint64_t spill_writes = 0; ///< Artifact+meta pairs written.
        /// Corrupt/truncated spill files moved to quarantine/.
        std::uint64_t spill_quarantined = 0;
        /// Spill I/O failures absorbed (write/remove errors).
        std::uint64_t spill_errors = 0;
    };

    /**
     * Construct the store; a nonempty Config::spill_dir is created if
     * absent and scanned for previously spilled artifacts.
     */
    explicit ArtifactStore(Config config);

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * Look up an artifact by content address. A hit refreshes the
     * entry's last-used epoch (LRU-in-epochs semantics, persisted to
     * the sidecar so TTL survives restarts). A fingerprint indexed on
     * disk but not resident loads lazily, read and decoded off the
     * mutex; a payload that fails to load or decode is quarantined
     * and reported as a miss. An entry evicted or invalidated while
     * its payload was being read is a miss.
     */
    std::shared_ptr<const JobResult> fetch(std::uint64_t fingerprint);

    /**
     * Store (or replace) an artifact under its content address and
     * spill it to the disk tier when one is configured; the spill is
     * durable (renamed into place) when this returns. The preset
     * names the instruction pool the result's kernels serialize
     * against. Replacing an existing fingerprint must be byte-benign:
     * debug builds assert the encoded payloads are identical. The
     * sidecar records the epoch at which the write began, which may
     * trail the in-memory stamp by advances that overlapped the write
     * (an entry then ages that much sooner after a restart).
     */
    void insert(std::uint64_t fingerprint,
                std::shared_ptr<const JobResult> artifact,
                PlatformPreset preset = PlatformPreset::kJunoA72);

    /** Drop one entry, both tiers (explicit invalidation); false when
     *  absent. */
    bool invalidate(std::uint64_t fingerprint);

    /** Drop everything, both tiers. */
    void clear();

    /**
     * Advance logical time one epoch and evict entries not fetched
     * for ttl_epochs advances (an entry last used at epoch E dies on
     * the advance to E + ttl_epochs). Called by the scheduler after
     * every completed search. Disk-tier files are removed with their
     * entries.
     */
    void advanceEpoch();

    /** Entries currently indexed (resident or spilled). */
    std::size_t size() const;

    /** True when the fingerprint's payload is resident in memory
     *  (false for disk-indexed entries not yet loaded). */
    bool resident(std::uint64_t fingerprint) const;

    /** Current logical epoch. */
    std::size_t epoch() const;

    /** Counter snapshot. */
    Stats stats() const;

  private:
    struct Entry
    {
        /// Resident payload; null when only the spill file holds it.
        std::shared_ptr<const JobResult> artifact; // guards: mutex_
        /// Epoch of the last fetch/insert. guards: mutex_
        std::size_t last_used = 0;
        /// Pool the payload's kernels serialize against. guards: mutex_
        PlatformPreset preset = PlatformPreset::kJunoA72;
        /// An artifact/meta pair exists under spill_dir. guards: mutex_
        bool on_disk = false;
        /// Store-unique index generation, new on every (re)index: an
        /// off-lock payload read is trusted only if the entry still
        /// carries the generation it read under. guards: mutex_
        std::uint64_t version = 0;
    };

    /// An artifact/meta pair written to temp files, not yet renamed.
    struct StagedSpill;

    /// Stage a spill pair off the mutex (encode + write temps).
    StagedSpill stageSpill(std::uint64_t fingerprint,
                           const JobResult &artifact,
                           PlatformPreset preset,
                           std::size_t epoch) const;

#ifndef NDEBUG
    /// Assert a replacement's payload bytes match the stored ones
    /// (both encoded off the mutex).
    void assertBenignReplacement(std::uint64_t fingerprint,
                                 const JobResult &artifact,
                                 PlatformPreset preset);
#endif

    /// @{ Disk-tier internals (all called with mutex_ held).
    void scanSpillDirLocked();
    bool commitSpillLocked(std::uint64_t fingerprint,
                           const StagedSpill &staged);
    std::shared_ptr<const JobResult>
    hitLocked(std::uint64_t fingerprint, Entry &entry);
    void rewriteMetaLocked(std::uint64_t fingerprint,
                           const Entry &entry);
    void quarantineLocked(std::uint64_t fingerprint);
    void removeSpillLocked(std::uint64_t fingerprint);
    void noteSpillErrorLocked();
    /// @}

    void noteCounter(const char *name, std::uint64_t delta = 1);

    Config config_;
    mutable std::mutex mutex_;
    /// std::map: eviction and clear() touch the disk tier, and file
    /// operations must happen in deterministic (fingerprint) order.
    std::map<std::uint64_t, Entry> entries_; // guards: mutex_
    std::size_t epoch_ = 0;                  // guards: mutex_
    std::uint64_t next_version_ = 0;         // guards: mutex_
    Stats stats_;                            // guards: mutex_
};

} // namespace service
} // namespace emstress

#endif // EMSTRESS_SERVICE_ARTIFACT_STORE_H
