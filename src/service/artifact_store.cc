/**
 * @file
 * ArtifactStore implementation: the in-memory index plus the
 * persistent spill tier.
 *
 * Disk layout under Config::spill_dir:
 *   <fp16>.artifact   wire-encoded JobResult body (encodeJobResult)
 *   <fp16>.meta       text sidecar, schema emstress-artifact-v1:
 *                       emstress-artifact-v1
 *                       fingerprint <16 lowercase hex digits>
 *                       epoch <last-used logical epoch>
 *                       preset <a72|a53|athlon>
 *                       payload_bytes <artifact file size>
 *   quarantine/       corrupt/truncated pairs moved aside, kept for
 *                     post-mortems, never re-indexed
 *
 * Write protocol: both files are written to uniquely named temps
 * (`<stem>.<ext>.<n>.tmp`) off the mutex, then renamed under it,
 * payload first and sidecar last — a crash between the two renames
 * leaves an orphan payload the next scan ignores, never a sidecar
 * pointing at torn bytes, and a crash before them leaves temps the
 * next scan deletes. Every filesystem call uses the non-throwing
 * error_code overloads (or stream states): disk trouble increments a
 * counter and degrades to a miss, it never propagates into the
 * scheduler.
 */

#include "service/artifact_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "service/wire.h"
#include "util/metrics.h"

namespace fs = std::filesystem;

namespace emstress {
namespace service {

namespace {

constexpr const char *kSpillSchema = "emstress-artifact-v1";

/** 16-lowercase-hex content-address stem of a fingerprint. */
std::string
fingerprintStem(std::uint64_t fingerprint)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = digits[fingerprint & 0xF];
        fingerprint >>= 4;
    }
    return s;
}

/** Parsed .meta sidecar. */
struct MetaInfo
{
    std::uint64_t fingerprint = 0;
    std::size_t epoch = 0;
    PlatformPreset preset = PlatformPreset::kJunoA72;
    std::uint64_t payload_bytes = 0;
};

/** Parse a sidecar; false on any schema or field violation. */
bool
parseMeta(const fs::path &path, MetaInfo &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line) || line != kSpillSchema)
        return false;
    bool have_fp = false, have_epoch = false, have_preset = false,
         have_bytes = false;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        if (!(fields >> key))
            continue;
        if (key == "fingerprint") {
            std::string hex;
            if (!(fields >> hex) || hex.size() != 16)
                return false;
            std::uint64_t v = 0;
            for (const char c : hex) {
                v <<= 4;
                if (c >= '0' && c <= '9')
                    v |= static_cast<std::uint64_t>(c - '0');
                else if (c >= 'a' && c <= 'f')
                    v |= static_cast<std::uint64_t>(c - 'a' + 10);
                else
                    return false;
            }
            out.fingerprint = v;
            have_fp = true;
        } else if (key == "epoch") {
            std::uint64_t v = 0;
            if (!(fields >> v))
                return false;
            out.epoch = static_cast<std::size_t>(v);
            have_epoch = true;
        } else if (key == "preset") {
            std::string name;
            if (!(fields >> name)
                || !presetFromName(name, out.preset))
                return false;
            have_preset = true;
        } else if (key == "payload_bytes") {
            if (!(fields >> out.payload_bytes))
                return false;
            have_bytes = true;
        }
        // Unknown keys are ignored: future schema minors may append.
    }
    return have_fp && have_epoch && have_preset && have_bytes;
}

/**
 * A temp path beside `dest` that no other writer in this process
 * uses: concurrent writers of one destination must not share a temp.
 */
fs::path
uniqueTempPath(const fs::path &dest)
{
    static std::atomic<std::uint64_t> serial{0};
    return dest.string() + "."
        + std::to_string(serial.fetch_add(1, std::memory_order_relaxed))
        + ".tmp";
}

/** Write `bytes` to `path` (truncating); false on any stream error. */
bool
writeFile(const fs::path &path, const void *bytes, std::size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(static_cast<const char *>(bytes),
              static_cast<std::streamsize>(n));
    return static_cast<bool>(out);
}

/** Atomically replace `dest` with `bytes` (temp file + rename). */
bool
atomicWrite(const fs::path &dest, const void *bytes, std::size_t n)
{
    const fs::path tmp = uniqueTempPath(dest);
    std::error_code ec;
    if (!writeFile(tmp, bytes, n)) {
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, dest, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

/** Sidecar text of a spilled entry. */
std::string
metaText(const std::string &stem, std::size_t epoch,
         PlatformPreset preset, std::uintmax_t payload_bytes)
{
    std::ostringstream meta;
    meta << kSpillSchema << '\n'
         << "fingerprint " << stem << '\n'
         << "epoch " << epoch << '\n'
         << "preset " << presetName(preset) << '\n'
         << "payload_bytes " << payload_bytes << '\n';
    return meta.str();
}

/** Wire-encode a result against its preset's pool. */
std::vector<std::uint8_t>
encodePayload(const JobResult &result, PlatformPreset preset)
{
    WireWriter w;
    encodeJobResult(w, result, presetPool(preset));
    return w.bytes();
}

/**
 * Read and decode a spilled payload; null when the file is missing,
 * unreadable, truncated or does not decode.
 */
std::shared_ptr<const JobResult>
loadPayload(const fs::path &path, PlatformPreset preset)
{
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in)
            return nullptr;
        const std::streamsize n = in.tellg();
        in.seekg(0);
        bytes.resize(static_cast<std::size_t>(std::max<std::streamsize>(
            n, 0)));
        if (!bytes.empty()
            && !in.read(reinterpret_cast<char *>(bytes.data()),
                        static_cast<std::streamsize>(bytes.size())))
            return nullptr;
    }
    try {
        WireReader r(bytes);
        auto result = std::make_shared<JobResult>(
            decodeJobResult(r, presetPool(preset)));
        r.expectEnd();
        return result;
    } catch (const std::exception &) {
        return nullptr;
    }
}

} // namespace

struct ArtifactStore::StagedSpill
{
    fs::path artifact_tmp;
    fs::path meta_tmp;
    bool ok = false; ///< Both temps written completely.
};

ArtifactStore::ArtifactStore(Config config)
    : config_(std::move(config))
{
    if (!config_.spill_dir.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        scanSpillDirLocked();
    }
}

void
ArtifactStore::noteCounter(const char *name, std::uint64_t delta)
{
    if (metrics::enabled())
        metrics::Registry::instance().add(name, delta);
}

void
ArtifactStore::noteSpillErrorLocked()
{
    ++stats_.spill_errors;
    noteCounter("service.store.spill_errors");
}

void
ArtifactStore::scanSpillDirLocked()
{
    std::error_code ec;
    fs::create_directories(config_.spill_dir, ec);
    fs::create_directories(fs::path(config_.spill_dir) / "quarantine",
                           ec);

    // directory_iterator order is unspecified; collect and sort so
    // scan effects (epoch resolution, quarantine moves) replay
    // identically across runs. lint: ordered-merge
    std::vector<fs::path> sidecars;
    std::vector<fs::path> orphan_temps;
    for (fs::directory_iterator it(config_.spill_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".meta")
            sidecars.push_back(it->path());
        else if (it->path().extension() == ".tmp")
            orphan_temps.push_back(it->path());
    }
    std::sort(sidecars.begin(), sidecars.end());
    // Temps are only ever renamed into place by the store that wrote
    // them; one present at construction is a crash leftover.
    for (const fs::path &tmp : orphan_temps)
        fs::remove(tmp, ec);

    for (const fs::path &meta_path : sidecars) {
        MetaInfo meta;
        const std::string stem = meta_path.stem().string();
        bool ok = parseMeta(meta_path, meta);
        if (ok && fingerprintStem(meta.fingerprint) != stem)
            ok = false; // sidecar lies about its own address
        if (ok) {
            const fs::path payload =
                fs::path(config_.spill_dir) / (stem + ".artifact");
            std::error_code sec;
            const std::uintmax_t bytes =
                fs::file_size(payload, sec);
            if (sec || bytes != meta.payload_bytes)
                ok = false; // torn or missing payload
        }
        if (!ok) {
            // Quarantine by stem: moves the sidecar and whatever
            // payload shares its name.
            std::uint64_t fp = 0;
            for (const char c : stem) {
                fp <<= 4;
                if (c >= '0' && c <= '9')
                    fp |= static_cast<std::uint64_t>(c - '0');
                else if (c >= 'a' && c <= 'f')
                    fp |= static_cast<std::uint64_t>(c - 'a' + 10);
            }
            quarantineLocked(fp);
            continue;
        }
        Entry entry;
        entry.last_used = meta.epoch;
        entry.preset = meta.preset;
        entry.on_disk = true;
        entry.version = ++next_version_;
        entries_[meta.fingerprint] = std::move(entry);
        epoch_ = std::max(epoch_, meta.epoch);
        ++stats_.spill_indexed;
        noteCounter("service.store.spill_indexed");
    }
}

ArtifactStore::StagedSpill
ArtifactStore::stageSpill(std::uint64_t fingerprint,
                          const JobResult &artifact,
                          PlatformPreset preset,
                          std::size_t epoch) const
{
    const std::string stem = fingerprintStem(fingerprint);
    const fs::path root(config_.spill_dir);
    StagedSpill staged;
    staged.artifact_tmp = uniqueTempPath(root / (stem + ".artifact"));
    staged.meta_tmp = uniqueTempPath(root / (stem + ".meta"));
    const std::vector<std::uint8_t> payload =
        encodePayload(artifact, preset);
    const std::string text =
        metaText(stem, epoch, preset, payload.size());
    staged.ok =
        writeFile(staged.artifact_tmp, payload.data(), payload.size())
        && writeFile(staged.meta_tmp, text.data(), text.size());
    if (!staged.ok) {
        std::error_code ec;
        fs::remove(staged.artifact_tmp, ec);
        fs::remove(staged.meta_tmp, ec);
    }
    return staged;
}

bool
ArtifactStore::commitSpillLocked(std::uint64_t fingerprint,
                                 const StagedSpill &staged)
{
    if (!staged.ok) {
        noteSpillErrorLocked();
        return false;
    }
    const std::string stem = fingerprintStem(fingerprint);
    const fs::path root(config_.spill_dir);
    std::error_code ec;
    // Payload first, sidecar last: the sidecar is the commit point.
    fs::rename(staged.artifact_tmp, root / (stem + ".artifact"), ec);
    if (!ec)
        fs::rename(staged.meta_tmp, root / (stem + ".meta"), ec);
    if (ec) {
        fs::remove(staged.artifact_tmp, ec);
        fs::remove(staged.meta_tmp, ec);
        noteSpillErrorLocked();
        return false;
    }
    ++stats_.spill_writes;
    noteCounter("service.store.spill_writes");
    return true;
}

void
ArtifactStore::rewriteMetaLocked(std::uint64_t fingerprint,
                                 const Entry &entry)
{
    const std::string stem = fingerprintStem(fingerprint);
    const fs::path root(config_.spill_dir);
    std::error_code ec;
    const std::uintmax_t bytes =
        fs::file_size(root / (stem + ".artifact"), ec);
    if (ec) {
        noteSpillErrorLocked();
        return;
    }
    const std::string text =
        metaText(stem, entry.last_used, entry.preset, bytes);
    if (!atomicWrite(root / (stem + ".meta"), text.data(),
                     text.size()))
        noteSpillErrorLocked();
}

void
ArtifactStore::quarantineLocked(std::uint64_t fingerprint)
{
    const std::string stem = fingerprintStem(fingerprint);
    const fs::path root(config_.spill_dir);
    const fs::path qdir = root / "quarantine";
    std::error_code ec;
    fs::create_directories(qdir, ec);
    bool moved = false;
    for (const char *ext : {".artifact", ".meta"}) {
        const fs::path src = root / (stem + ext);
        if (!fs::exists(src, ec))
            continue;
        fs::rename(src, qdir / (stem + ext), ec);
        if (ec) {
            fs::remove(src, ec); // last resort: out of the index
            noteSpillErrorLocked();
        }
        moved = true;
    }
    if (moved) {
        ++stats_.spill_quarantined;
        noteCounter("service.store.spill_quarantined");
    }
}

void
ArtifactStore::removeSpillLocked(std::uint64_t fingerprint)
{
    const std::string stem = fingerprintStem(fingerprint);
    const fs::path root(config_.spill_dir);
    std::error_code ec;
    for (const char *ext : {".artifact", ".meta"}) {
        fs::remove(root / (stem + ext), ec);
        if (ec)
            noteSpillErrorLocked();
    }
}

std::shared_ptr<const JobResult>
ArtifactStore::hitLocked(std::uint64_t fingerprint, Entry &entry)
{
    if (entry.last_used != epoch_) {
        entry.last_used = epoch_;
        // Persist the refresh so LRU age survives a restart.
        if (entry.on_disk)
            rewriteMetaLocked(fingerprint, entry);
    }
    ++stats_.hits;
    noteCounter("service.store.hits");
    return entry.artifact;
}

std::shared_ptr<const JobResult>
ArtifactStore::fetch(std::uint64_t fingerprint)
{
    PlatformPreset preset = PlatformPreset::kJunoA72;
    std::uint64_t version = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(fingerprint);
        if (it == entries_.end()) {
            ++stats_.misses;
            noteCounter("service.store.misses");
            return nullptr;
        }
        if (it->second.artifact)
            return hitLocked(fingerprint, it->second);
        preset = it->second.preset;
        version = it->second.version;
    }

    // Disk-indexed, not resident: the lazy-load path a restarted
    // daemon takes the first time each spilled spec repeats. The
    // read and decode run unlocked; the index decides afterwards
    // whether the bytes still belong to the entry.
    auto loaded = loadPayload(
        fs::path(config_.spill_dir)
            / (fingerprintStem(fingerprint) + ".artifact"),
        preset);

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(fingerprint);
    if (it == entries_.end() || it->second.version != version) {
        // Evicted, invalidated or re-inserted during the read: the
        // file may have changed under it, so the read proves nothing.
        // A re-insert is resident and serves; otherwise this is a
        // miss.
        if (it != entries_.end() && it->second.artifact)
            return hitLocked(fingerprint, it->second);
        ++stats_.misses;
        noteCounter("service.store.misses");
        return nullptr;
    }
    Entry &entry = it->second;
    if (!entry.artifact) {
        if (!loaded) {
            // Truncated or bit-rotted payload: out of the serving
            // path, kept for inspection, reported as a miss.
            quarantineLocked(fingerprint);
            entries_.erase(it);
            ++stats_.misses;
            noteCounter("service.store.misses");
            return nullptr;
        }
        entry.artifact = std::move(loaded);
        ++stats_.disk_hits;
        noteCounter("service.store.disk_hits");
    }
    return hitLocked(fingerprint, entry);
}

#ifndef NDEBUG
void
ArtifactStore::assertBenignReplacement(std::uint64_t fingerprint,
                                       const JobResult &artifact,
                                       PlatformPreset preset)
{
    std::shared_ptr<const JobResult> prior;
    PlatformPreset prior_preset = preset;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(fingerprint);
        if (it != entries_.end()) {
            prior = it->second.artifact;
            prior_preset = it->second.preset;
        }
    }
    // The fingerprint covers every result-defining field, so two
    // completions of one address must carry the same bytes; anything
    // else is a determinism bug upstream.
    assert((!prior
            || encodePayload(*prior, prior_preset)
                   == encodePayload(artifact, preset))
           && "artifact replacement changed payload bytes");
}
#endif

void
ArtifactStore::insert(std::uint64_t fingerprint,
                      std::shared_ptr<const JobResult> artifact,
                      PlatformPreset preset)
{
    // Everything expensive happens before the commit lock: encoding,
    // and writing the pair to temps no other insert shares.
#ifndef NDEBUG
    if (artifact)
        assertBenignReplacement(fingerprint, *artifact, preset);
#endif
    const bool spill = !config_.spill_dir.empty();
    StagedSpill staged;
    if (spill)
        staged = stageSpill(fingerprint, *artifact, preset, epoch());

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(fingerprint);
    const bool replacing = it != entries_.end();
    Entry &entry = replacing ? it->second : entries_[fingerprint];
    entry.artifact = std::move(artifact);
    entry.last_used = epoch_;
    entry.preset = preset;
    entry.version = ++next_version_;
    if (replacing) {
        ++stats_.replacements;
        noteCounter("service.store.replacements");
    } else {
        ++stats_.inserts;
        noteCounter("service.store.inserts");
    }
    if (spill)
        entry.on_disk = commitSpillLocked(fingerprint, staged);
}

bool
ArtifactStore::invalidate(std::uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(fingerprint);
    if (it == entries_.end())
        return false;
    if (it->second.on_disk)
        removeSpillLocked(fingerprint);
    entries_.erase(it);
    ++stats_.invalidations;
    noteCounter("service.store.invalidations");
    return true;
}

void
ArtifactStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[fingerprint, entry] : entries_) {
        if (entry.on_disk)
            removeSpillLocked(fingerprint);
    }
    stats_.invalidations += entries_.size();
    noteCounter("service.store.invalidations", entries_.size());
    entries_.clear();
}

void
ArtifactStore::advanceEpoch()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++epoch_;
    if (config_.ttl_epochs == 0)
        return;
    // Order-independent: every entry is visited and evicted (or not)
    // purely on its own last_used age. An entry last used at epoch E
    // is evicted on the advance to E + ttl_epochs — "survives
    // ttl_epochs - 1 idle advances", matching the header contract.
    // lint: ordered-merge
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (epoch_ - it->second.last_used >= config_.ttl_epochs) {
            if (it->second.on_disk)
                removeSpillLocked(it->first);
            it = entries_.erase(it);
            ++stats_.expirations;
            noteCounter("service.store.expirations");
        } else {
            ++it;
        }
    }
}

std::size_t
ArtifactStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

bool
ArtifactStore::resident(std::uint64_t fingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(fingerprint);
    return it != entries_.end() && it->second.artifact != nullptr;
}

std::size_t
ArtifactStore::epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
}

ArtifactStore::Stats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace service
} // namespace emstress
