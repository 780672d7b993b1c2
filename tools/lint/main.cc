/**
 * @file
 * emstress-lint command-line driver. Walks the given roots (or
 * explicit files, or the translation units named by a CMake
 * `compile_commands.json` plus their quoted-include closure), runs
 * the per-file determinism rules (R1-R6) over every .h/.cc, runs the
 * cross-TU rules (R7-R8) over the whole file set at once, and prints
 * `file:line: [Rn] message` diagnostics.
 *
 *   emstress-lint [--root DIR]... [--fix-list FILE]
 *                 [--compile-commands FILE] [--json FILE]
 *                 [--github] [files...]
 *
 * --json writes the machine-readable `emstress-lint-findings-v1`
 * report (suppressed findings included, marked); --github
 * additionally prints GitHub Actions workflow commands so CI runs
 * surface findings as inline annotations. Exit status: 0 clean,
 * 1 unsuppressed findings, 2 usage/IO error. The file walk is sorted
 * so output order — like everything else in this repository — is
 * deterministic. Directories named `testdata` are skipped: they hold
 * deliberately-violating lint fixtures.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;
using emstress::lint::Finding;
using emstress::lint::Options;
using emstress::lint::ProjectFile;

namespace {

int
usage(std::ostream &os)
{
    os << "usage: emstress-lint [--root DIR]... [--fix-list FILE]"
          " [--compile-commands FILE]\n"
          "                     [--json FILE] [--github]"
          " [files...]\n"
          "Static determinism lint for emstress (rules R1-R8, see"
          " tools/lint/README.md).\n";
    return 2;
}

bool
isSourcePath(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp"
        || ext == ".hpp";
}

/** True when `p` sits under a `testdata` directory *inside* `root`.
 *  A root that itself lies in testdata (linting a fixture tree by
 *  naming it as the root) is deliberately not excluded. */
bool
inTestdataUnder(const fs::path &p, const fs::path &root)
{
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    if (ec)
        return false;
    for (const fs::path &part : rel)
        if (part == "testdata")
            return true;
    return false;
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Pull the "directory"/"file" pairs out of a CMake
 * compile_commands.json. A full JSON parser is overkill for CMake's
 * regular output; this scanner pairs each "file" value with the most
 * recently seen "directory" value and understands the two escapes
 * (backslash, quote) CMake can emit in POSIX paths.
 */
std::vector<fs::path>
parseCompileCommands(const std::string &text)
{
    std::vector<fs::path> out;
    std::string directory;
    std::size_t i = 0;
    const auto parseString = [&](std::size_t from,
                                 std::string &value) {
        std::size_t j = from;
        value.clear();
        while (j < text.size() && text[j] != '"') {
            if (text[j] == '\\' && j + 1 < text.size()) {
                value += text[j + 1];
                j += 2;
            } else {
                value += text[j];
                ++j;
            }
        }
        return j < text.size() ? j + 1 : j;
    };
    while (i < text.size()) {
        if (text[i] != '"') {
            ++i;
            continue;
        }
        std::string key;
        i = parseString(i + 1, key);
        if (key != "directory" && key != "file")
            continue;
        while (i < text.size() && text[i] != ':')
            ++i;
        while (i < text.size() && text[i] != '"')
            ++i;
        if (i >= text.size())
            break;
        std::string value;
        i = parseString(i + 1, value);
        if (key == "directory") {
            directory = value;
        } else {
            fs::path p(value);
            if (p.is_relative() && !directory.empty())
                p = fs::path(directory) / p;
            out.push_back(std::move(p));
        }
    }
    return out;
}

/** Quoted includes of one source text, in order of appearance. */
std::vector<std::string>
quotedIncludes(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while ((pos = text.find("#include", pos)) != std::string::npos) {
        std::size_t j = pos + 8;
        while (j < text.size()
               && (text[j] == ' ' || text[j] == '\t'))
            ++j;
        if (j < text.size() && text[j] == '"') {
            const std::size_t end = text.find('"', j + 1);
            if (end != std::string::npos)
                out.push_back(text.substr(j + 1, end - j - 1));
        }
        pos = j;
    }
    return out;
}

std::string
canonicalKey(const fs::path &p)
{
    std::error_code ec;
    const fs::path canon = fs::weakly_canonical(p, ec);
    return (ec ? p : canon).generic_string();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<fs::path> roots;
    std::vector<fs::path> files;
    fs::path fixlist_path;
    fs::path compile_commands_path;
    fs::path json_path;
    bool github = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        }
        if (arg == "--root") {
            if (++i >= argc)
                return usage(std::cerr);
            roots.emplace_back(argv[i]);
        } else if (arg == "--fix-list") {
            if (++i >= argc)
                return usage(std::cerr);
            fixlist_path = argv[i];
        } else if (arg == "--compile-commands") {
            if (++i >= argc)
                return usage(std::cerr);
            compile_commands_path = argv[i];
        } else if (arg == "--json") {
            if (++i >= argc)
                return usage(std::cerr);
            json_path = argv[i];
        } else if (arg == "--github") {
            github = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "emstress-lint: unknown option " << arg
                      << "\n";
            return usage(std::cerr);
        } else {
            files.emplace_back(arg);
        }
    }
    if (roots.empty() && files.empty()
        && compile_commands_path.empty())
        return usage(std::cerr);

    Options options;
    if (!fixlist_path.empty()) {
        std::string text;
        if (!readFile(fixlist_path, text)) {
            std::cerr << "emstress-lint: cannot read fix-list "
                      << fixlist_path << "\n";
            return 2;
        }
        options.fixlist =
            emstress::lint::parseFixList(text, &std::cerr);
    }

    for (const fs::path &root : roots) {
        std::error_code ec;
        fs::recursive_directory_iterator it(root, ec), end;
        if (ec) {
            std::cerr << "emstress-lint: cannot walk " << root
                      << ": " << ec.message() << "\n";
            return 2;
        }
        for (; it != end; it.increment(ec)) {
            if (ec) {
                std::cerr << "emstress-lint: walk error under "
                          << root << ": " << ec.message() << "\n";
                return 2;
            }
            if (it->is_regular_file() && isSourcePath(it->path())
                && !inTestdataUnder(it->path(), root))
                files.push_back(it->path());
        }
    }

    // Translation units named by the compile database. When roots
    // are given they bound the lint's scope: DB entries outside
    // every root (test binaries, the lint's own sources) are
    // skipped, so `--root src --compile-commands ...` lints exactly
    // the configured TUs of src/ plus their include closure. The
    // canonical-key dedupe below handles root/DB overlap.
    if (!compile_commands_path.empty()) {
        std::string text;
        if (!readFile(compile_commands_path, text)) {
            std::cerr
                << "emstress-lint: cannot read compile commands "
                << compile_commands_path << "\n";
            return 2;
        }
        const auto underARoot = [&](const fs::path &p) {
            if (roots.empty())
                return true;
            const std::string key = canonicalKey(p);
            for (const fs::path &root : roots) {
                const std::string rk = canonicalKey(root);
                if (key.size() > rk.size() + 1
                    && key.compare(0, rk.size(), rk) == 0
                    && key[rk.size()] == '/')
                    return true;
            }
            return false;
        };
        for (fs::path &p : parseCompileCommands(text))
            if (isSourcePath(p) && fs::exists(p) && underARoot(p))
                files.push_back(std::move(p));
    }

    // Close over quoted includes so project-wide analysis sees the
    // headers of every TU even when only .cc paths were given.
    // Include paths resolve against the including file's directory
    // and against each root (the tree's `#include "service/wire.h"`
    // convention is root-relative).
    std::set<std::string> seen;
    std::vector<fs::path> ordered;
    std::map<std::string, std::string> texts;
    std::vector<fs::path> queue = files;
    while (!queue.empty()) {
        const fs::path p = queue.front();
        queue.erase(queue.begin());
        const std::string key = canonicalKey(p);
        if (!seen.insert(key).second)
            continue;
        std::string text;
        if (!readFile(p, text)) {
            std::cerr << "emstress-lint: cannot read " << p << "\n";
            return 2;
        }
        ordered.push_back(p);
        for (const std::string &inc : quotedIncludes(text)) {
            std::vector<fs::path> cands;
            cands.push_back(p.parent_path() / inc);
            for (const fs::path &root : roots)
                cands.push_back(root / inc);
            for (const fs::path &cand : cands) {
                if (!fs::exists(cand) || !isSourcePath(cand))
                    continue;
                queue.push_back(cand);
                break;
            }
        }
        texts.emplace(key, std::move(text));
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const fs::path &a, const fs::path &b) {
                  return a.generic_string() < b.generic_string();
              });

    std::vector<Finding> all;
    std::size_t files_scanned = 0;
    for (const fs::path &file : ordered) {
        const std::string &text = texts.at(canonicalKey(file));
        ++files_scanned;
        Options file_options = options;
        // Feed the companion header's member declarations to R2.
        const std::string ext = file.extension().string();
        if (ext == ".cc" || ext == ".cpp") {
            fs::path header = file;
            header.replace_extension(".h");
            std::string companion;
            if (readFile(header, companion))
                file_options.companion = std::move(companion);
        }
        std::vector<Finding> findings =
            emstress::lint::analyzeSourceAll(file.generic_string(),
                                             text, file_options);
        all.insert(all.end(),
                   std::make_move_iterator(findings.begin()),
                   std::make_move_iterator(findings.end()));
    }

    // Cross-TU pass over the whole closure at once.
    {
        std::vector<ProjectFile> project;
        project.reserve(ordered.size());
        for (const fs::path &file : ordered)
            project.push_back({file.generic_string(),
                               texts.at(canonicalKey(file))});
        std::vector<Finding> findings =
            emstress::lint::analyzeProject(project, options);
        all.insert(all.end(),
                   std::make_move_iterator(findings.begin()),
                   std::make_move_iterator(findings.end()));
    }

    std::size_t total = 0;
    for (const Finding &f : all) {
        if (f.suppressed)
            continue;
        ++total;
        std::cout << emstress::lint::formatFinding(f) << "\n";
        for (const std::string &w : f.witness)
            std::cout << "    | " << w << "\n";
        if (github) {
            std::string msg = f.message;
            for (char &c : msg)
                if (c == '\n')
                    c = ' ';
            std::cout << "::error file=" << f.file
                      << ",line=" << f.line
                      << ",title=emstress-lint " << f.rule
                      << "::" << msg << "\n";
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::binary);
        if (!out) {
            std::cerr << "emstress-lint: cannot write " << json_path
                      << "\n";
            return 2;
        }
        out << emstress::lint::findingsToJson(all, files_scanned);
    }

    std::cout << "emstress-lint: " << files_scanned << " files, "
              << total << " finding" << (total == 1 ? "" : "s")
              << "\n";
    return total == 0 ? 0 : 1;
}
