/**
 * @file
 * Cross-TU rule families over the project index (DESIGN.md §15):
 *
 *   R7 lock-discipline  every access to a `// guards: <mutex>`
 *                       annotated member must happen while the named
 *                       mutex is held, either lexically or — for
 *                       *Locked-style helpers — inferred from every
 *                       caller holding it (a shrinking-intersection
 *                       fixpoint, interprocedural one level at a
 *                       time until stable).
 *
 *   R8 lock-order       the acquired-while-holding graph across all
 *                       TUs (lexical nesting plus calls made while
 *                       holding into functions that acquire) must be
 *                       acyclic; each cycle is reported once with a
 *                       witness naming every edge's site.
 *
 * analyzeProject() is the public entry: build the index, run R7-R8,
 * mark suppressions (annotation tags and fix-list), sort.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "index.h"

namespace emstress {
namespace lint {

namespace {

std::string
lastComponent(const std::string &name)
{
    const std::size_t pos = name.rfind("::");
    return pos == std::string::npos ? name : name.substr(pos + 2);
}

/** True when a held-mutex name satisfies a required one. Unqualified
 *  names (a guard the resolver could not bind to a class) match on
 *  the last component. */
bool
mutexMatches(const std::string &required, const std::string &held)
{
    if (required == held)
        return true;
    const bool req_bare = required.find("::") == std::string::npos;
    const bool held_bare = held.find("::") == std::string::npos;
    if (!req_bare && !held_bare)
        return false;
    return lastComponent(required) == lastComponent(held);
}

bool
setCovers(const std::string &required,
          const std::vector<std::string> &held)
{
    for (const std::string &h : held)
        if (mutexMatches(required, h))
            return true;
    return false;
}

std::string
joinSet(const std::set<std::string> &s)
{
    if (s.empty())
        return "{none}";
    std::string out = "{";
    bool first = true;
    for (const std::string &m : s) {
        if (!first)
            out += ", ";
        out += m;
        first = false;
    }
    return out + "}";
}

/** Resolve a recorded callee name to function indices: exact
 *  qualified match first, then a free-function fallback for
 *  namespace-qualified calls (`ns::f` recorded, `f` defined free). */
std::vector<std::size_t>
callTargets(const ProjectIndex &ix, const std::string &callee)
{
    const auto it = ix.functions_by_name.find(callee);
    if (it != ix.functions_by_name.end())
        return it->second;
    const std::size_t pos = callee.rfind("::");
    if (pos == std::string::npos)
        return {};
    const auto bare = ix.functions_by_name.find(callee.substr(pos + 2));
    if (bare == ix.functions_by_name.end())
        return {};
    std::vector<std::size_t> out;
    for (const std::size_t f : bare->second)
        if (ix.functions[f].cls.empty())
            out.push_back(f);
    return out;
}

/** Caller-holds sets: inferred[f] is the mutex set every call site
 *  of f is known to hold. std::nullopt means "universe" (no call
 *  site restricts it yet); sets only ever shrink. */
using HeldSet = std::optional<std::set<std::string>>;

struct InboundCall
{
    std::size_t caller = 0;
    std::vector<std::string> held;
    bool inferred_active = true;
};

std::vector<HeldSet>
solveInferredHolds(const ProjectIndex &ix,
                   std::vector<std::vector<InboundCall>> &inbound_out)
{
    std::vector<std::vector<InboundCall>> inbound(
        ix.functions.size());
    for (std::size_t f = 0; f < ix.functions.size(); ++f)
        for (const IndexCallSite &c : ix.functions[f].calls)
            for (const std::size_t tgt : callTargets(ix, c.callee))
                inbound[tgt].push_back(
                    {f, c.held, c.inferred_active});

    std::vector<HeldSet> inferred(ix.functions.size());
    for (std::size_t f = 0; f < ix.functions.size(); ++f)
        inferred[f] = inbound[f].empty()
            ? HeldSet(std::set<std::string>{})
            : HeldSet(std::nullopt);

    for (int iter = 0; iter < 32; ++iter) {
        bool changed = false;
        for (std::size_t f = 0; f < ix.functions.size(); ++f) {
            if (inbound[f].empty())
                continue;
            HeldSet acc = std::nullopt;
            for (const InboundCall &c : inbound[f]) {
                // Contribution of one call site: its lexical holds
                // plus (when the caller has not dropped a passed-in
                // lock) whatever the caller itself is known to hold.
                HeldSet contrib;
                if (c.inferred_active && !inferred[c.caller]) {
                    contrib = std::nullopt;
                } else {
                    std::set<std::string> s(c.held.begin(),
                                            c.held.end());
                    if (c.inferred_active && inferred[c.caller])
                        s.insert(inferred[c.caller]->begin(),
                                 inferred[c.caller]->end());
                    contrib = std::move(s);
                }
                if (!contrib)
                    continue; // Universe: no restriction.
                if (!acc) {
                    acc = contrib;
                    continue;
                }
                std::set<std::string> inter;
                std::set_intersection(
                    acc->begin(), acc->end(), contrib->begin(),
                    contrib->end(),
                    std::inserter(inter, inter.begin()));
                acc = std::move(inter);
            }
            if (acc != inferred[f]) {
                inferred[f] = std::move(acc);
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    inbound_out = std::move(inbound);
    return inferred;
}

std::set<std::string>
effectiveHolds(const std::vector<std::string> &lexical,
               bool inferred_active, const HeldSet &inferred)
{
    std::set<std::string> out(lexical.begin(), lexical.end());
    if (inferred_active && inferred)
        out.insert(inferred->begin(), inferred->end());
    return out;
}

bool
chainsRelated(const std::vector<std::string> &a,
              const std::vector<std::string> &b)
{
    return !a.empty() && !b.empty() && a.front() == b.front();
}

void
runR7(const ProjectIndex &ix, const std::vector<HeldSet> &inferred,
      const std::vector<std::vector<InboundCall>> &inbound,
      std::vector<Finding> &out)
{
    for (std::size_t f = 0; f < ix.functions.size(); ++f) {
        const FunctionInfo &fn = ix.functions[f];
        if (fn.chain.empty())
            continue; // Free-function accesses are out of scope.
        for (const MemberAccess &acc : fn.accesses) {
            const auto git = ix.guarded_by_member.find(acc.member);
            if (git == ix.guarded_by_member.end())
                continue;
            const GuardedMember *g = nullptr;
            for (const std::size_t gi : git->second) {
                const GuardedMember &cand = ix.guarded[gi];
                // A resolved base object is authoritative: the
                // access belongs to exactly that class (e.g.
                // `out.executed` on a BatchOutcome never matches
                // Batch::executed).
                if (!acc.base_cls.empty()) {
                    if (cand.cls == acc.base_cls) {
                        g = &cand;
                        break;
                    }
                    continue;
                }
                if (!chainsRelated(fn.chain, cand.chain))
                    continue;
                if (cand.cls == fn.cls) {
                    g = &cand;
                    break;
                }
                if (g == nullptr)
                    g = &cand;
            }
            if (g == nullptr)
                continue;
            const std::set<std::string> held = effectiveHolds(
                acc.held, acc.inferred_active, inferred[f]);
            // A universe inferred set (function never called from
            // indexed code but having call sites) cannot happen:
            // inferred is universe only transiently inside the
            // solver. A nullopt here means "no restriction known",
            // which only arises for unreachable recursion knots —
            // treat it as satisfied rather than guess.
            if (acc.inferred_active && !inferred[f])
                continue;
            if (setCovers(g->mutex, {held.begin(), held.end()}))
                continue;
            Finding fd;
            fd.file = ix.files[fn.file].path;
            fd.line = acc.line;
            fd.rule = "R7";
            fd.message = "member '" + g->cls + "::" + g->member
                + "' is guarded by '" + g->mutex
                + "' but this access does not hold it; lock the "
                  "mutex in '"
                + fn.qualified
                + "' (or in every caller), or annotate the access "
                  "'// lint: r7'";
            fd.witness.push_back(
                "guarded member declared at "
                + ix.files[g->file].path + ":"
                + std::to_string(g->line) + " (// guards: "
                + g->mutex + ")");
            fd.witness.push_back("locks held at the access: "
                                 + joinSet(held));
            if (acc.inferred_active && !inbound[f].empty()) {
                std::size_t listed = 0;
                for (const InboundCall &c : inbound[f]) {
                    if (setCovers(g->mutex, c.held))
                        continue;
                    const FunctionInfo &caller =
                        ix.functions[c.caller];
                    fd.witness.push_back(
                        "caller '" + caller.qualified + "' ("
                        + ix.files[caller.file].path + ":"
                        + std::to_string(caller.line)
                        + ") does not hold it at the call");
                    if (++listed == 3)
                        break;
                }
            }
            out.push_back(std::move(fd));
        }
    }
}

void
runR8(const ProjectIndex &ix, const std::vector<HeldSet> &inferred,
      std::vector<Finding> &out)
{
    struct Edge
    {
        std::string witness;
        std::string file;
        int line = 0;
    };
    std::map<std::pair<std::string, std::string>, Edge> edges;
    const auto addEdge = [&](const std::string &from,
                             const std::string &to, Edge e) {
        if (from == to)
            return; // Per-class mutex identity cannot distinguish
                    // two instances; self-edges would be noise.
        edges.emplace(std::make_pair(from, to), std::move(e));
    };

    for (std::size_t f = 0; f < ix.functions.size(); ++f) {
        const FunctionInfo &fn = ix.functions[f];
        const std::string where = ix.files[fn.file].path;
        for (const LockAcquire &acq : fn.acquires) {
            const std::set<std::string> held = effectiveHolds(
                acq.held, acq.inferred_active, inferred[f]);
            for (const std::string &h : held)
                addEdge(h, acq.mutex,
                        {"'" + h + "' held while '" + fn.qualified
                             + "' acquires '" + acq.mutex + "' at "
                             + where + ":"
                             + std::to_string(acq.line),
                         where, acq.line});
        }
        for (const IndexCallSite &call : fn.calls) {
            const std::set<std::string> held = effectiveHolds(
                call.held, call.inferred_active, inferred[f]);
            if (held.empty())
                continue;
            for (const std::size_t tgt :
                 callTargets(ix, call.callee)) {
                const FunctionInfo &callee = ix.functions[tgt];
                for (const LockAcquire &acq : callee.acquires) {
                    for (const std::string &h : held)
                        addEdge(
                            h, acq.mutex,
                            {"'" + h + "' held at call to '"
                                 + callee.qualified + "' ("
                                 + where + ":"
                                 + std::to_string(call.line)
                                 + "), which acquires '" + acq.mutex
                                 + "' at "
                                 + ix.files[callee.file].path + ":"
                                 + std::to_string(acq.line),
                             where, call.line});
                }
            }
        }
    }

    // Deterministic DFS cycle detection over the sorted edge map.
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto &kv : edges)
        adj[kv.first.first].push_back(kv.first.second);

    std::set<std::vector<std::string>> seen_cycles;
    std::map<std::string, int> color; // 0 white, 1 grey, 2 black.
    std::vector<std::string> path;

    const std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            color[node] = 1;
            path.push_back(node);
            for (const std::string &next : adj[node]) {
                if (color[next] == 1) {
                    // Back edge: extract the cycle from the path.
                    std::vector<std::string> cycle;
                    bool in = false;
                    for (const std::string &p : path) {
                        if (p == next)
                            in = true;
                        if (in)
                            cycle.push_back(p);
                    }
                    if (cycle.empty())
                        continue;
                    // Canonical rotation for deduplication.
                    std::size_t best = 0;
                    for (std::size_t k = 1; k < cycle.size(); ++k)
                        if (cycle[k] < cycle[best])
                            best = k;
                    std::vector<std::string> canon;
                    for (std::size_t k = 0; k < cycle.size(); ++k)
                        canon.push_back(
                            cycle[(best + k) % cycle.size()]);
                    if (!seen_cycles.insert(canon).second)
                        continue;
                    Finding fd;
                    fd.rule = "R8";
                    std::string names;
                    for (const std::string &m : canon)
                        names += m + " -> ";
                    names += canon.front();
                    fd.message = "lock-order cycle: " + names
                        + "; break the cycle or suppress with "
                          "'// lint: r8' / a fix-list entry";
                    for (std::size_t k = 0; k < canon.size(); ++k) {
                        const auto eit = edges.find(
                            {canon[k],
                             canon[(k + 1) % canon.size()]});
                        if (eit != edges.end())
                            fd.witness.push_back(
                                eit->second.witness);
                    }
                    const auto first = edges.find(
                        {canon[0], canon[1 % canon.size()]});
                    if (first != edges.end()) {
                        fd.file = first->second.file;
                        fd.line = first->second.line;
                    }
                    out.push_back(std::move(fd));
                    continue;
                }
                if (color[next] == 0)
                    dfs(next);
            }
            path.pop_back();
            color[node] = 2;
        };
    for (const auto &kv : adj)
        if (color[kv.first] == 0)
            dfs(kv.first);
}

const char *
suppressionTagsFor(const std::string &rule, const char **alias)
{
    if (rule == "R7") {
        *alias = "lock-discipline";
        return "r7";
    }
    *alias = "lock-order";
    return "r8";
}

} // namespace

std::vector<Finding>
analyzeProject(const std::vector<ProjectFile> &files,
               const Options &options)
{
    const ProjectIndex ix = buildProjectIndex(files);

    std::vector<Finding> findings;
    {
        std::vector<std::vector<InboundCall>> inbound;
        const std::vector<HeldSet> inferred =
            solveInferredHolds(ix, inbound);
        runR7(ix, inferred, inbound, findings);
        runR8(ix, inferred, findings);
    }

    // Suppression: annotation tags in the finding's own file, then
    // the fix-list.
    std::map<std::string, std::size_t> scan_of;
    for (std::size_t i = 0; i < ix.files.size(); ++i)
        scan_of[ix.files[i].path] = i;
    for (Finding &fd : findings) {
        const auto it = scan_of.find(fd.file);
        if (it != scan_of.end()) {
            const SourceScan &scan = ix.scans[it->second];
            const char *alias = nullptr;
            const char *tag = suppressionTagsFor(fd.rule, &alias);
            if (scan.hasTag(fd.line, tag)) {
                fd.suppressed = true;
                fd.suppression = std::string("annotation:") + tag;
            } else if (scan.hasTag(fd.line, alias)) {
                fd.suppressed = true;
                fd.suppression = std::string("annotation:") + alias;
            }
        }
        if (!fd.suppressed) {
            for (const FixListEntry &entry : options.fixlist) {
                if (!matchesFixList(entry, fd))
                    continue;
                fd.suppressed = true;
                fd.suppression = "fix-list:" + entry.rule + " "
                    + entry.path
                    + (entry.line > 0
                           ? " " + std::to_string(entry.line)
                           : "");
                break;
            }
        }
    }

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
    return findings;
}

} // namespace lint
} // namespace emstress
