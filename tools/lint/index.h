/**
 * @file
 * The cross-TU project index behind emstress-lint v2's R7/R8
 * rule families (DESIGN.md §15). buildProjectIndex() walks every
 * analyzed file's token stream once for structure (namespaces,
 * classes with their members, mutex members, `// guards: <mutex>`
 * annotations, declared methods) and once for function bodies
 * (lexical lock_guard/unique_lock/scoped_lock tracking, guarded-
 * member accesses, call sites with the lock set held at the call).
 *
 * The index is deliberately a token-level approximation, not a type-
 * checked AST: mutexes are identified per *class*, not per object
 * (two instances of one class alias), lock tracking is lexical
 * (conditional unlocks are invisible), and accesses through objects
 * of unindexed types are unattributed. Those soundness limits are
 * documented in DESIGN.md §15; the dynamic TSan slice cross-checks
 * the same code paths.
 */

#ifndef EMSTRESS_TOOLS_LINT_INDEX_H
#define EMSTRESS_TOOLS_LINT_INDEX_H

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"
#include "scanner.h"

namespace emstress {
namespace lint {

/** One class/struct declaration aggregated across the project. */
struct ClassInfo
{
    std::string name; ///< Last component, e.g. "Job".
    /// Nesting chain, outermost first, e.g. {"SearchService","Job"}.
    std::vector<std::string> chain;
    /// Members declared with a mutex type (mutex, recursive_mutex,
    /// shared_mutex, timed_mutex).
    std::set<std::string> mutex_members;
    /// Declared or defined member-function names.
    std::set<std::string> methods;
    /// Member variable name -> head identifier of its declared type
    /// ("ArtifactStore" for `ArtifactStore store_;`). Used to
    /// attribute `obj_.method()` calls to the member's class.
    std::map<std::string, std::string> member_types;
};

/** One `// guards: <mutex>` annotated member. */
struct GuardedMember
{
    std::string member;             ///< Member name.
    std::string cls;                ///< Owning class (last component).
    std::vector<std::string> chain; ///< Owning class chain.
    /// Required mutex, resolved to "Class::name" when the owning
    /// class (or an enclosing one) declares it; verbatim otherwise.
    std::string mutex;
    std::size_t file = 0; ///< Declaring file index.
    int line = 0;         ///< Declaration line.
};

/** One lock acquisition inside a function body. */
struct LockAcquire
{
    std::string mutex; ///< Resolved mutex name.
    int line = 0;
    /// Resolved mutexes lexically held when this one is acquired.
    std::vector<std::string> held;
    /// False between `param_lock.unlock()` and `.lock()` on a
    /// unique_lock parameter: caller-held locks are dropped there.
    bool inferred_active = true;
};

/** One guarded-member access inside a function body. */
struct MemberAccess
{
    std::string member;
    /// Class of the base object when the access is `obj.member` /
    /// `obj->member` and obj's type is known (local declarations and
    /// class members are tracked); empty when unresolvable, in which
    /// case R7 falls back to matching by member name alone.
    std::string base_cls;
    int line = 0;
    std::vector<std::string> held;
    bool inferred_active = true;
};

/** One call site inside a function body. */
struct IndexCallSite
{
    std::string callee; ///< Resolved "Class::name" or bare name.
    int line = 0;
    std::vector<std::string> held;
    bool inferred_active = true;
};

/** One function definition with its recorded body events. */
struct FunctionInfo
{
    std::string name;      ///< Bare name.
    std::string cls;       ///< Defining class ("" for free functions).
    std::string qualified; ///< "Class::name" or bare name.
    std::vector<std::string> chain; ///< Class chain ("" -> empty).
    std::size_t file = 0;
    int line = 0;
    /// Token ranges in the file's scan: parameter list (between the
    /// parens) and body (between the braces, exclusive).
    std::size_t params_begin = 0, params_end = 0;
    std::size_t body_begin = 0, body_end = 0;
    std::vector<LockAcquire> acquires;
    std::vector<MemberAccess> accesses;
    std::vector<IndexCallSite> calls;
};

/** The project-wide index. */
struct ProjectIndex
{
    std::vector<ProjectFile> files;
    std::vector<SourceScan> scans; ///< One per file, same order.
    std::vector<ClassInfo> classes;
    /// Class last-name -> index into classes (first declaration
    /// wins; the repo has no same-name class collisions).
    std::map<std::string, std::size_t> class_by_name;
    std::vector<GuardedMember> guarded;
    /// Member name -> indices into guarded.
    std::map<std::string, std::vector<std::size_t>> guarded_by_member;
    std::vector<FunctionInfo> functions;
    /// Qualified name -> indices into functions (declaration order).
    std::map<std::string, std::vector<std::size_t>> functions_by_name;
};

/** Build the index over a file set. Never throws on malformed input;
 *  unrecognized constructs simply contribute no index entries. */
ProjectIndex buildProjectIndex(std::vector<ProjectFile> files);

/** R7 + R8 over a built index (unsuppressed, unsorted). */
std::vector<Finding> runLockRules(const ProjectIndex &index);

} // namespace lint
} // namespace emstress

#endif // EMSTRESS_TOOLS_LINT_INDEX_H
