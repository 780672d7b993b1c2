/**
 * @file
 * Public interface of emstress-lint, the project-specific static
 * analysis pass that enforces the repository's bit-identity
 * invariants (DESIGN.md §10). The analyzer is a lightweight
 * tokenizer-based scanner — deliberately not a full C++ front end —
 * that recognizes the handful of source patterns which have caused
 * every determinism bug shipped so far:
 *
 *   R1  nondet-source   rand()/random_device/clocks/getenv outside
 *                       src/util/rng.h (clocks also sanctioned in
 *                       src/util/metrics.h and the service's
 *                       transport/scheduler files) and annotated
 *                       sites
 *   R2  unordered-iter  iteration over unordered_{map,set} whose
 *                       order can leak into merged results
 *   R3  float-sweep     floating-point loop-carried accumulation
 *                       used as a loop bound or sweep index
 *   R4  raw-units       raw frequency-magnitude literals where
 *                       util/units.h helpers are bit-exact
 *   R5  header-guard    canonical EMSTRESS_<PATH>_H include guards
 *                       (the compile half of header self-sufficiency
 *                       is a generated CMake check)
 *   R6  socket-confine  socket syscalls outside the service
 *                       transport layer (src/service/transport*);
 *                       network I/O must never reach worker
 *                       evaluation paths
 *
 * On top of the per-file rules, emstress-lint v2 builds a
 * project-wide index over every analyzed translation unit (classes,
 * members, `// guards: <mutex>` annotations, functions with lexical
 * lock tracking and call sites) and runs two cross-TU rule
 * families over it (DESIGN.md §15):
 *
 *   R7  lock-discipline  a member annotated `// guards: <mutex>`
 *                        read or written in a scope that does not
 *                        hold the named mutex (lexical lock_guard/
 *                        unique_lock/scoped_lock tracking plus a
 *                        caller-holds fixpoint for *Locked-style
 *                        helpers)
 *   R8  lock-order       a cycle in the project-wide
 *                        acquired-while-holding mutex graph; the
 *                        witness path names every edge's call and
 *                        acquisition site
 *
 * Findings are suppressed either by an inline annotation comment
 * (`// lint: <tag>` on the same line or the line directly above) or
 * by an entry in a fix-list file. See tools/lint/README.md for the
 * annotation grammar.
 */

#ifndef EMSTRESS_TOOLS_LINT_LINT_H
#define EMSTRESS_TOOLS_LINT_LINT_H

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace emstress {
namespace lint {

/** One diagnostic produced by a rule. */
struct Finding
{
    std::string file;    ///< Path as handed to the analyzer.
    int line = 0;        ///< 1-based source line.
    std::string rule;    ///< Rule id, e.g. "R1".
    std::string message; ///< Human-readable explanation + fix hint.
    /**
     * Supporting evidence, one step per entry: the lock path that
     * fails to cover an access (R7) or the cycle's
     * held-at/acquired-at chain (R8). Empty for the token-local
     * rules.
     */
    std::vector<std::string> witness;
    /// True when an annotation or fix-list entry silences the
    /// finding. Suppressed findings never fail a run but are kept in
    /// the machine-readable report so CI can audit suppressions.
    bool suppressed = false;
    /// Why it is suppressed: "annotation:<tag>" or
    /// "fix-list:<rule> <path> [<line>]". Empty when unsuppressed.
    std::string suppression;
};

/**
 * One suppression from a fix-list file. Format (one per line,
 * `#` comments allowed):
 *
 *     <rule> <path-suffix> [<line>]
 *
 * The entry suppresses findings of `rule` in any analyzed file whose
 * path ends with `path` (compared component-wise, so `rng.h` does not
 * match `xrng.h`); a line number of 0 matches every line.
 */
struct FixListEntry
{
    std::string rule;
    std::string path;
    int line = 0;
};

/** Analyzer configuration. */
struct Options
{
    std::vector<FixListEntry> fixlist;
    /**
     * Text of the companion header (`foo.h` next to `foo.cc`), when
     * one exists. R2 scans it for member declarations so that
     * iterating an unordered member from the .cc is caught even
     * though the declaration lives in the header. The companion is
     * only mined for declarations — its own findings are reported
     * when the header itself is analyzed.
     */
    std::string companion;
};

/**
 * Run every rule over one in-memory source file. `path` determines
 * path-based exemptions (src/util/rng.h for all of R1,
 * src/util/metrics.h and src/service/{transport*,scheduler*} for
 * R1's clock identifiers, src/util/units.h for R4,
 * src/service/transport* for R6) and the canonical guard name for
 * R5; it does not need to exist on disk. Returns the unsuppressed
 * findings in line order.
 */
std::vector<Finding> analyzeSource(std::string_view path,
                                   std::string_view text,
                                   const Options &options = {});

/**
 * As analyzeSource, but keeps suppressed findings in the result with
 * Finding::suppressed/suppression set — the JSON report's view.
 */
std::vector<Finding> analyzeSourceAll(std::string_view path,
                                      std::string_view text,
                                      const Options &options = {});

/** One file of a project analysis (in-memory; path need not exist). */
struct ProjectFile
{
    std::string path;
    std::string text;
};

/**
 * Run the cross-TU rules (R7 lock-discipline, R8 lock-order) over a
 * whole project's files at once. Returns every finding, suppressed
 * ones marked (annotation tags `r7`/`r8` or their semantic aliases
 * `lock-discipline`/`lock-order`, plus fix-list entries), sorted by
 * (file, line, rule) for deterministic output.
 */
std::vector<Finding> analyzeProject(const std::vector<ProjectFile> &files,
                                    const Options &options = {});

/**
 * Serialize findings as the `emstress-lint-findings-v1` JSON report
 * consumed by CI: schema tag, scanned-file count, and one record per
 * finding carrying rule, file, line, message, witness list and
 * suppression state. Deterministic: the same findings always produce
 * byte-identical JSON.
 */
std::string findingsToJson(const std::vector<Finding> &findings,
                           std::size_t files_scanned);

/**
 * Parse a findingsToJson report back (round-trip tested). @throws
 * std::runtime_error on malformed input or a wrong schema tag.
 * @param files_scanned Optional out-param for the header count.
 */
std::vector<Finding> findingsFromJson(std::string_view json,
                                      std::size_t *files_scanned
                                      = nullptr);

/**
 * Parse a fix-list file's contents. Malformed lines are reported to
 * `err` (when non-null) and skipped rather than aborting the run: a
 * stale suppression must never mask the lint pass itself failing.
 */
std::vector<FixListEntry> parseFixList(std::string_view text,
                                       std::ostream *err = nullptr);

/** True when `entry` suppresses `finding` (see FixListEntry). */
bool matchesFixList(const FixListEntry &entry, const Finding &finding);

/** Stable one-line rendering: `file:line: [Rn] message`. */
std::string formatFinding(const Finding &finding);

} // namespace lint
} // namespace emstress

#endif // EMSTRESS_TOOLS_LINT_LINT_H
