/**
 * @file
 * Rule implementations R1–R5. Each rule walks the token stream from
 * scanner.cc and emits findings; annotation tags and fix-list entries
 * filter them before analyzeSource returns. The rules are heuristic
 * by design — a lightweight scanner cannot resolve types — but every
 * heuristic is tuned so that the repository's real determinism bug
 * classes (DESIGN.md §10) are inside the detected set and the
 * legitimate sites are expressible as annotations.
 */

#include "lint.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>

#include "scanner.h"

namespace emstress {
namespace lint {

namespace {

bool
pathEndsWith(std::string_view path, std::string_view suffix)
{
    if (path.size() < suffix.size())
        return false;
    if (path.substr(path.size() - suffix.size()) != suffix)
        return false;
    // Component-aligned: "rng.h" must not match "xrng.h".
    if (path.size() == suffix.size())
        return true;
    const char before = path[path.size() - suffix.size() - 1];
    return before == '/' || before == '\\';
}

bool
isHeaderPath(std::string_view path)
{
    return path.size() >= 2
        && path.substr(path.size() - 2) == ".h";
}

std::string_view
baseName(std::string_view path)
{
    const std::size_t slash = path.find_last_of("/\\");
    return slash == std::string_view::npos ? path
                                           : path.substr(slash + 1);
}

/** True for files under the service layer (src/service/...). */
bool
inServiceDir(std::string_view path)
{
    return path.find("src/service/") != std::string_view::npos
        || path.rfind("service/", 0) == 0;
}

/**
 * The service's sanctioned I/O-and-time boundary: transport files
 * (socket syscalls + the waits they imply) and the scheduler
 * (queue-wait/latency observability). Worker evaluation paths are
 * everything else and stay clock- and socket-free.
 */
bool
isServiceTransportFile(std::string_view path)
{
    return inServiceDir(path)
        && baseName(path).rfind("transport", 0) == 0;
}

bool
isServiceSchedulerFile(std::string_view path)
{
    return inServiceDir(path)
        && baseName(path).rfind("scheduler", 0) == 0;
}

/** Tags that silence a rule: its semantic tag(s) plus the rule id. */
struct RuleTags
{
    const char *id;
    std::vector<std::string> tags;
};

void
emit(std::vector<Finding> &findings, const SourceScan &scan,
     const RuleTags &rule, std::string_view path, int line,
     std::string message)
{
    Finding f;
    f.file = std::string(path);
    f.line = line;
    f.rule = rule.id;
    f.message = std::move(message);
    // Annotated findings are kept but marked, so the JSON report can
    // audit every suppression; analyzeSource drops them at the end.
    for (const std::string &tag : rule.tags) {
        if (scan.hasTag(line, tag)) {
            f.suppressed = true;
            f.suppression = "annotation:" + tag;
            break;
        }
    }
    findings.push_back(std::move(f));
}

// --------------------------------------------------------------- R1

const std::set<std::string, std::less<>> kClockIdents = {
    "steady_clock", "system_clock", "high_resolution_clock",
    "clock_gettime", "gettimeofday", "timespec_get"};

const std::set<std::string, std::less<>> kRandomIdents = {
    "rand", "srand", "random_device", "rand_r", "drand48"};

// Every <random> distribution adaptor. The engines' output sequences
// are fixed by the standard; the algorithms these turn engine words
// into variates with are implementation-defined, so the same seed
// gives different draws under libstdc++, libc++ and MSVC.
const std::set<std::string, std::less<>> kStdDistributions = {
    "uniform_int_distribution", "uniform_real_distribution",
    "bernoulli_distribution", "binomial_distribution",
    "geometric_distribution", "negative_binomial_distribution",
    "poisson_distribution", "exponential_distribution",
    "gamma_distribution", "weibull_distribution",
    "extreme_value_distribution", "normal_distribution",
    "lognormal_distribution", "chi_squared_distribution",
    "cauchy_distribution", "fisher_f_distribution",
    "student_t_distribution", "discrete_distribution",
    "piecewise_constant_distribution",
    "piecewise_linear_distribution"};

/**
 * R1: nondeterministic sources. Wall clocks, libc randomness,
 * std::random_device and getenv taint any value derived from them
 * with run-to-run variation, and std::*_distribution adaptors and
 * std::hash with host-to-host variation. All randomness must flow through the
 * seeded util/rng.h streams, whose own draw algorithms are the only
 * ones used — so the distribution ban has no util/rng.h exemption.
 * Clocks are allowed only at annotated
 * timing-stats sites (values that feed wall-time accounting, never
 * fitness); getenv only at annotated env-config sites (operational
 * knobs such as thread counts that the determinism tests prove
 * result-neutral) or parity-tolerance sites (knobs that switch
 * between solver implementations agreeing only to a documented,
 * test-pinned numerical tolerance — honest about not being
 * bit-neutral, unlike env-config).
 */
void
ruleR1(std::string_view path, const SourceScan &scan,
       std::vector<Finding> &findings)
{
    const bool rng_home = pathEndsWith(path, "src/util/rng.h")
        || pathEndsWith(path, "util/rng.h");
    // util/metrics.h is the sanctioned home for wall/CPU clock reads
    // (observability only), exactly as util/rng.h is for randomness.
    // The exemption is clock-scoped: randomness and environment
    // reads in that header are still findings.
    const bool metrics_home =
        pathEndsWith(path, "src/util/metrics.h")
        || pathEndsWith(path, "util/metrics.h");
    // The service's transport and scheduler files may read clocks
    // (connection deadlines, queue-wait/latency observability);
    // worker evaluation paths never may — a clock folded into an
    // evaluation breaks the bit-identity contract (DESIGN.md §13).
    const bool service_clock_home = isServiceTransportFile(path)
        || isServiceSchedulerFile(path);
    const RuleTags clock_rule{"R1", {"timing-stats", "r1"}};
    const RuleTags env_rule{"R1", {"env-config", "parity-tolerance",
                                   "r1"}};
    const RuleTags random_rule{"R1", {"r1"}};
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &tok = toks[i];
        if (tok.kind != TokKind::Identifier)
            continue;
        if (tok.text == "hash" && i >= 3 && toks[i - 1].text == ":"
            && toks[i - 2].text == ":" && toks[i - 3].text == "std") {
            emit(findings, scan, random_rule, path, tok.line,
                 "implementation-defined `std::hash`; its values "
                 "differ between standard libraries, so a seed or key "
                 "derived from it moves on another host — use "
                 "emstress::stringHash (src/util/rng.h)");
            continue;
        }
        if (kStdDistributions.count(tok.text)) {
            emit(findings, scan, random_rule, path, tok.line,
                 "implementation-defined distribution `" + tok.text
                     + "`; the same seed draws differently under "
                       "another standard library — use the "
                       "emstress::Rng / CounterRng draws "
                       "(src/util/rng.h)");
            continue;
        }
        if (rng_home)
            continue;
        if (kClockIdents.count(tok.text)) {
            if (metrics_home || service_clock_home)
                continue;
            emit(findings, scan, clock_rule, path, tok.line,
                 "nondeterministic clock `" + tok.text
                     + "`; derive results from seeded streams "
                       "(util/rng.h) and annotate genuine wall-time "
                       "accounting with `// lint: timing-stats`");
        } else if (tok.text == "getenv") {
            emit(findings, scan, env_rule, path, tok.line,
                 "environment read `getenv` can seed run-to-run "
                 "variation; annotate result-neutral operational "
                 "knobs with `// lint: env-config`, or solver-path "
                 "switches with a documented tolerance contract with "
                 "`// lint: parity-tolerance`");
        } else if (kRandomIdents.count(tok.text)) {
            emit(findings, scan, random_rule, path, tok.line,
                 "unseeded randomness `" + tok.text
                     + "`; all stochastic draws must come from an "
                       "explicitly seeded emstress::Rng "
                       "(src/util/rng.h)");
        }
    }
}

// --------------------------------------------------------------- R2

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/**
 * Collect the names declared with an unordered container type in
 * this file (locals, members, and functions returning one — calling
 * and iterating such a function is just as order-dependent).
 */
std::set<std::string, std::less<>>
unorderedNames(const SourceScan &scan)
{
    std::set<std::string, std::less<>> names;
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier
            || !kUnorderedTypes.count(toks[i].text))
            continue;
        std::size_t j = i + 1;
        // Skip the template argument list, if any.
        if (j < toks.size() && toks[j].text == "<") {
            int depth = 0;
            for (; j < toks.size(); ++j) {
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">" && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        // Skip cv/ref/pointer decorations to the declared name.
        while (j < toks.size()
               && (toks[j].text == "&" || toks[j].text == "*"
                   || toks[j].text == "const"))
            ++j;
        if (j < toks.size()
            && toks[j].kind == TokKind::Identifier)
            names.insert(toks[j].text);
    }
    return names;
}

/**
 * R2: iteration over unordered containers. Hash-map iteration order
 * is implementation- and insertion-history-dependent; folding it
 * into any result (merged stats, accumulated fitness, emitted rows)
 * breaks bit-identity across thread counts and library versions.
 * Detected: range-for over a name declared unordered in this file,
 * and `.begin()`/`.cbegin()`/`.equal_range()` on such a name. Sites
 * proven order-independent (e.g. first-match lookups keyed by full
 * equality) carry `// lint: ordered-merge`.
 */
void
ruleR2(std::string_view path, const SourceScan &scan,
       const SourceScan *companion, std::vector<Finding> &findings)
{
    auto names = unorderedNames(scan);
    if (companion != nullptr)
        names.merge(unorderedNames(*companion));
    if (names.empty())
        return;
    const RuleTags rule{"R2", {"ordered-merge", "r2"}};
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        // name . begin / cbegin / equal_range
        if (toks[i].kind == TokKind::Identifier
            && names.count(toks[i].text) && toks[i + 1].text == "."
            && i + 2 < toks.size()) {
            const std::string &m = toks[i + 2].text;
            if (m == "begin" || m == "cbegin"
                || m == "equal_range") {
                emit(findings, scan, rule, path, toks[i].line,
                     "iteration over unordered container `"
                         + toks[i].text
                         + "` — hash order leaks into results; sort "
                           "keys or iterate an index, or annotate a "
                           "proven-order-independent site with "
                           "`// lint: ordered-merge`");
            }
        }
        // for ( ... : name )
        if (toks[i].kind == TokKind::Identifier
            && toks[i].text == "for" && toks[i + 1].text == "(") {
            int depth = 0;
            bool saw_colon = false;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                if (toks[j].text == "(")
                    ++depth;
                else if (toks[j].text == ")" && --depth == 0)
                    break;
                else if (depth == 1 && toks[j].text == ":"
                         && toks[j - 1].text != ":"
                         && j + 1 < toks.size()
                         && toks[j + 1].text != ":")
                    saw_colon = true;
                else if (saw_colon
                         && toks[j].kind == TokKind::Identifier
                         && names.count(toks[j].text)) {
                    emit(findings, scan, rule, path, toks[i].line,
                         "range-for over unordered container `"
                             + toks[j].text
                             + "` — hash order leaks into results; "
                               "sort keys or iterate an index, or "
                               "annotate with "
                               "`// lint: ordered-merge`");
                    break;
                }
            }
        }
    }
}

// --------------------------------------------------------------- R3

/**
 * R3: floating-point loop-carried accumulation as a sweep index.
 * `for (double v = a; v > b; v -= s)` accumulates one rounding error
 * per iteration, so the visited grid depends on the step history —
 * the PR 1 ResonanceExplorer/SclResonanceFinder bug class. Sweeps
 * must be integer-indexed with the value recomputed as
 * `start + i * step` each iteration.
 */
void
ruleR3(std::string_view path, const SourceScan &scan,
       std::vector<Finding> &findings)
{
    const RuleTags rule{"R3", {"r3"}};
    const auto &toks = scan.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "for"
            || toks[i].kind != TokKind::Identifier
            || toks[i + 1].text != "(")
            continue;
        // Split the header into init / cond / increment segments.
        int depth = 0;
        std::size_t seg = 0; // 0=init 1=cond 2=inc
        bool fp_init = false;
        std::string var;
        bool var_in_inc = false;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (t.text == "(" || t.text == "[" || t.text == "{") {
                ++depth;
                continue;
            }
            if (t.text == ")" || t.text == "]" || t.text == "}") {
                if (--depth == 0)
                    break;
                continue;
            }
            if (depth == 1 && t.text == ";") {
                ++seg;
                continue;
            }
            if (seg == 0 && t.kind == TokKind::Identifier) {
                if (t.text == "double" || t.text == "float")
                    fp_init = true;
                else if (fp_init && var.empty())
                    var = t.text;
            } else if (seg == 2 && !var.empty()
                       && t.kind == TokKind::Identifier
                       && t.text == var) {
                var_in_inc = true;
            }
        }
        if (fp_init && var_in_inc) {
            emit(findings, scan, rule, path, toks[i].line,
                 "floating-point sweep variable `" + var
                     + "` accumulates rounding error per iteration; "
                       "use an integer index and recompute "
                       "`start + i * step`");
        }
    }
}

// --------------------------------------------------------------- R4

/**
 * True for literals like `120e6`, `1.2e9`, `20e+3` whose exponent is
 * a kilo/mega/giga/tera magnitude. Negative exponents are deliberate
 * non-findings: `milli(0.15)` is *not* bit-identical to `0.15e-3`
 * (two roundings instead of one), so converting them would violate
 * the very invariant this pass protects.
 */
bool
isUnitMagnitudeLiteral(std::string_view text)
{
    std::size_t e = text.find_first_of("eE");
    if (e == std::string_view::npos || e == 0)
        return false;
    for (std::size_t i = 0; i < e; ++i)
        if (!std::isdigit(static_cast<unsigned char>(text[i]))
            && text[i] != '.' && text[i] != '\'')
            return false;
    std::string_view exp = text.substr(e + 1);
    if (!exp.empty() && exp.front() == '+')
        exp.remove_prefix(1);
    while (!exp.empty()
           && (exp.back() == 'f' || exp.back() == 'F'
               || exp.back() == 'l' || exp.back() == 'L'))
        exp.remove_suffix(1);
    return exp == "3" || exp == "6" || exp == "9" || exp == "12";
}

/**
 * R4: raw unit-magnitude literals. `120e6` in result-producing code
 * should be `mega(120.0)` (util/units.h): the helpers are bit-exact
 * for positive decimal magnitudes (the multiplier is an exact
 * integer double, verified in tests/test_lint.cc) and make the unit
 * reviewable. Calibration tables copied verbatim from datasheets may
 * keep the raw form under `// lint: datasheet`.
 */
void
ruleR4(std::string_view path, const SourceScan &scan,
       std::vector<Finding> &findings)
{
    if (pathEndsWith(path, "util/units.h"))
        return; // the defining file spells the multipliers out
    const RuleTags rule{"R4", {"datasheet", "r4"}};
    for (const Token &tok : scan.tokens) {
        if (tok.kind != TokKind::Number
            || !isUnitMagnitudeLiteral(tok.text))
            continue;
        emit(findings, scan, rule, path, tok.line,
             "raw unit-magnitude literal `" + tok.text
                 + "`; use the bit-exact util/units.h helper "
                   "(kilo/mega/giga) or annotate a datasheet "
                   "constant with `// lint: datasheet`");
    }
}

// --------------------------------------------------------------- R5

/**
 * Canonical guard for a header path: EMSTRESS_<REL>_H where <REL> is
 * the path after the last `src/` component (or the whole relative
 * path if none), uppercased with separators and dots mapped to `_`.
 */
std::string
canonicalGuard(std::string_view path)
{
    std::string p(path);
    std::replace(p.begin(), p.end(), '\\', '/');
    const std::size_t src = p.rfind("src/");
    std::string rel = src == std::string::npos
        ? p
        : p.substr(src + 4);
    while (rel.rfind("./", 0) == 0)
        rel.erase(0, 2);
    std::string guard = "EMSTRESS_";
    for (char c : rel) {
        if (c == '/' || c == '.')
            guard += '_';
        else
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
    }
    return guard;
}

/**
 * R5 (static half): every header opens with the canonical
 * `#ifndef EMSTRESS_<PATH>_H` / `#define` pair. Guard collisions
 * silently drop a header's contents from dependent TUs, which is how
 * "works in this TU only" include-order coupling sneaks in; the
 * compile half (every header builds as its own TU) is the generated
 * `header-selfcheck` CMake target.
 */
void
ruleR5(std::string_view path, const SourceScan &scan,
       std::vector<Finding> &findings)
{
    if (!isHeaderPath(path))
        return;
    const RuleTags rule{"R5", {"r5"}};
    const std::string want = canonicalGuard(path);
    const auto &toks = scan.tokens;
    // First tokens of a well-formed header: # ifndef GUARD # define
    // GUARD (comments never produce tokens).
    if (toks.size() < 6 || toks[0].text != "#"
        || toks[1].text != "ifndef"
        || toks[2].kind != TokKind::Identifier
        || toks[3].text != "#" || toks[4].text != "define"
        || toks[5].text != toks[2].text) {
        emit(findings, scan, rule, path,
             toks.empty() ? 1 : toks[0].line,
             "header must open with the canonical include guard "
             "`#ifndef " + want + "` / `#define " + want + "`");
        return;
    }
    if (toks[2].text != want) {
        emit(findings, scan, rule, path, toks[2].line,
             "include guard `" + toks[2].text
                 + "` is not canonical; expected `" + want
                 + "` (collisions drop header contents and create "
                   "include-order coupling)");
    }
}

// --------------------------------------------------------------- R6

/**
 * Socket-layer syscalls and address helpers. `bind` is deliberately
 * absent (std::bind / placeholder bind expressions would be constant
 * false positives) and `close`/`shutdown` likewise (both are common
 * method names across the repo); the remaining set cannot appear in
 * a compiling network path without at least one of these, so the
 * confinement holds without them.
 */
const std::set<std::string, std::less<>> kSocketIdents = {
    "socket", "accept", "listen", "connect", "setsockopt",
    "getsockopt", "getsockname", "getpeername", "getaddrinfo",
    "freeaddrinfo", "recv", "send", "recvmsg", "sendmsg", "recvfrom",
    "sendto", "inet_pton", "inet_ntop", "inet_addr"};

/**
 * R6: socket syscalls outside the service transport layer. All
 * network I/O lives in src/service/transport* — the wire boundary
 * the determinism tests pin bit-exactly. A socket call anywhere else
 * (worker evaluation paths, the scheduler, benches) would let peer
 * timing or payload bytes leak into result-producing code, which no
 * annotation can make safe; the `socket-transport` tag exists for
 * the rare sanctioned helper that lives outside those files but is
 * still transport-only plumbing.
 */
void
ruleR6(std::string_view path, const SourceScan &scan,
       std::vector<Finding> &findings)
{
    if (isServiceTransportFile(path))
        return;
    const RuleTags rule{"R6", {"socket-transport", "r6"}};
    for (const Token &tok : scan.tokens) {
        if (tok.kind != TokKind::Identifier
            || !kSocketIdents.count(tok.text))
            continue;
        emit(findings, scan, rule, path, tok.line,
             "socket syscall `" + tok.text
                 + "` outside the service transport layer; network "
                   "I/O is confined to src/service/transport* so "
                   "peer timing can never reach result-producing "
                   "code (sanctioned plumbing may annotate with "
                   "`// lint: socket-transport`)");
    }
}

} // namespace

std::vector<Finding>
analyzeSourceAll(std::string_view path, std::string_view text,
                 const Options &options)
{
    const SourceScan scan = scanSource(text);
    std::vector<Finding> findings;
    ruleR1(path, scan, findings);
    if (options.companion.empty()) {
        ruleR2(path, scan, nullptr, findings);
    } else {
        const SourceScan companion = scanSource(options.companion);
        ruleR2(path, scan, &companion, findings);
    }
    ruleR3(path, scan, findings);
    ruleR4(path, scan, findings);
    ruleR5(path, scan, findings);
    ruleR6(path, scan, findings);

    for (Finding &f : findings) {
        if (f.suppressed)
            continue;
        for (const FixListEntry &e : options.fixlist) {
            if (!matchesFixList(e, f))
                continue;
            f.suppressed = true;
            f.suppression = "fix-list:" + e.rule + " " + e.path
                + (e.line > 0 ? " " + std::to_string(e.line) : "");
            break;
        }
    }
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return findings;
}

std::vector<Finding>
analyzeSource(std::string_view path, std::string_view text,
              const Options &options)
{
    std::vector<Finding> findings =
        analyzeSourceAll(path, text, options);
    std::erase_if(findings,
                  [](const Finding &f) { return f.suppressed; });
    return findings;
}

std::string
formatFinding(const Finding &finding)
{
    std::ostringstream os;
    os << finding.file << ':' << finding.line << ": ["
       << finding.rule << "] " << finding.message;
    return os.str();
}

} // namespace lint
} // namespace emstress
