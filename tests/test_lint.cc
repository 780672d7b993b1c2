/**
 * @file
 * Fixture suite for emstress-lint (tools/lint): positive and
 * negative snippet cases for every rule R1–R6, the annotation
 * grammar, companion-header scanning, fix-list suppression, and the
 * scanner's comment/string inertness. Also pins the numeric claim R4
 * rests on: the util/units.h kilo/mega/giga helpers are bit-exact
 * replacements for positive-magnitude literals.
 */

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"
#include "util/units.h"

namespace emstress {
namespace lint {
namespace {

/** Count findings of one rule in an analysis result. */
std::size_t
countRule(const std::vector<Finding> &findings,
          const std::string &rule)
{
    std::size_t n = 0;
    for (const Finding &f : findings)
        if (f.rule == rule)
            ++n;
    return n;
}

std::vector<Finding>
lintCc(const std::string &text, const Options &options = {})
{
    return analyzeSource("src/core/snippet.cc", text, options);
}

// ------------------------------------------------------------- R1

TEST(LintR1, FlagsUnseededRandomness)
{
    const auto f = lintCc("int x = std::rand();\n"
                          "std::random_device rd;\n");
    EXPECT_EQ(countRule(f, "R1"), 2u);
    EXPECT_EQ(f[0].line, 1);
    EXPECT_EQ(f[1].line, 2);
}

TEST(LintR1, FlagsImplementationDefinedDistributions)
{
    // A seeded engine is not enough: the adaptors' algorithms differ
    // between standard libraries.
    const auto f = lintCc(
        "std::mt19937_64 eng(1);\n"
        "std::normal_distribution<double> n(0.0, 1.0);\n"
        "std::uniform_int_distribution<int> u(0, 9);\n"
        "std::uniform_real_distribution<double> r(0.0, 1.0);\n"
        "std::bernoulli_distribution b(0.5);\n"
        "std::discrete_distribution<int> d({1.0, 2.0});\n");
    EXPECT_EQ(countRule(f, "R1"), 5u);
    EXPECT_EQ(f[0].line, 2);
    // Unlike rand/random_device, the ban has no util/rng.h exemption:
    // the Rng draws are the project's own.
    const auto home = analyzeSource(
        "src/util/rng.h", "std::normal_distribution<double> n;\n");
    EXPECT_EQ(countRule(home, "R1"), 1u);
    // Lookalike identifiers are not distributions.
    const auto other = lintCc("double weight_distribution = 0.0;\n");
    EXPECT_EQ(countRule(other, "R1"), 0u);
}

TEST(LintR1, FlagsStdHash)
{
    // std::hash values are implementation-defined: a seed keyed with
    // one moves under another standard library.
    const auto f = lintCc(
        "std::uint64_t s = std::hash<std::string>{}(name);\n"
        "using H = std :: hash<int>;\n");
    EXPECT_EQ(countRule(f, "R1"), 2u);
    EXPECT_EQ(f[0].line, 1);
    // No util/rng.h exemption, as for the distributions.
    const auto home = analyzeSource(
        "src/util/rng.h", "auto h = std::hash<int>{}(3);\n");
    EXPECT_EQ(countRule(home, "R1"), 1u);
    // Other hashes and lookalikes are not std::hash.
    const auto other = lintCc("std::uint64_t hash = kernel.hash();\n"
                              "auto h = emstress::stringHash(name);\n"
                              "auto g = boost::hash<int>{}(1);\n");
    EXPECT_EQ(countRule(other, "R1"), 0u);
}

TEST(LintR1, FlagsClocksAndGetenv)
{
    const auto f =
        lintCc("auto t = std::chrono::steady_clock::now();\n"
               "auto u = std::chrono::system_clock::now();\n"
               "const char *e = std::getenv(\"X\");\n");
    EXPECT_EQ(countRule(f, "R1"), 3u);
}

TEST(LintR1, TimingStatsAnnotationSameLineSuppresses)
{
    const auto f = lintCc(
        "using Clock = std::chrono::steady_clock;"
        " // lint: timing-stats\n");
    EXPECT_EQ(countRule(f, "R1"), 0u);
}

TEST(LintR1, AnnotationOnLineAboveSuppresses)
{
    const auto f = lintCc("// wall-time only. lint: timing-stats\n"
                          "auto t = steady_clock::now();\n");
    EXPECT_EQ(countRule(f, "R1"), 0u);
    // ...but two lines above is out of range: annotations must sit
    // next to the code they justify.
    const auto far = lintCc("// lint: timing-stats\n"
                            "int unrelated = 0;\n"
                            "auto t = steady_clock::now();\n");
    EXPECT_EQ(countRule(far, "R1"), 1u);
}

TEST(LintR1, EnvConfigTagCoversGetenvButNotClocks)
{
    const auto env = lintCc(
        "const char *e = std::getenv(\"T\"); // lint: env-config\n");
    EXPECT_EQ(countRule(env, "R1"), 0u);
    // env-config does not excuse a clock.
    const auto clk = lintCc(
        "auto t = steady_clock::now(); // lint: env-config\n");
    EXPECT_EQ(countRule(clk, "R1"), 1u);
}

TEST(LintR1, ParityToleranceTagCoversGetenvButNotClocksOrRandom)
{
    // The sanction for solver-path switches that are not bit-neutral
    // (a knob selecting between implementations that agree only to a
    // documented tolerance).
    const auto env = lintCc("const char *e = std::getenv(\"P\");"
                            " // lint: parity-tolerance\n");
    EXPECT_EQ(countRule(env, "R1"), 0u);
    // Like env-config, it sanctions only environment reads.
    const auto clk = lintCc(
        "auto t = steady_clock::now(); // lint: parity-tolerance\n");
    EXPECT_EQ(countRule(clk, "R1"), 1u);
    const auto rng = lintCc(
        "int r = rand(); // lint: parity-tolerance\n");
    EXPECT_EQ(countRule(rng, "R1"), 1u);
}

TEST(LintR1, RngHeaderIsExempt)
{
    const auto f = analyzeSource(
        "src/util/rng.h", "std::random_device rd; int r = rand();\n");
    EXPECT_EQ(countRule(f, "R1"), 0u);
    // The exemption is component-aligned: a lookalike is not exempt.
    const auto fake = analyzeSource("src/util/xrng.h",
                                    "std::random_device rd;\n");
    EXPECT_EQ(countRule(fake, "R1"), 1u);
}

TEST(LintR1, MetricsHeaderIsSanctionedClockHome)
{
    // util/metrics.h hosts the observability layer's clock reads the
    // way util/rng.h hosts randomness: clock identifiers there need
    // no per-line annotation.
    const std::string clocks =
        "auto t = std::chrono::steady_clock::now();\n"
        "timespec ts{}; clock_gettime(CLOCK_THREAD_CPUTIME_ID, "
        "&ts);\n";
    EXPECT_EQ(countRule(analyzeSource("src/util/metrics.h", clocks),
                        "R1"),
              0u);
    // The same text anywhere else still fails the gate (the seeded
    // fixture bad_timing.cc pins the end-to-end half of this).
    EXPECT_EQ(
        countRule(analyzeSource("src/core/metrics_abuse.cc", clocks),
                  "R1"),
        2u);
    // Lookalike paths are not exempt.
    EXPECT_EQ(countRule(analyzeSource("src/util/xmetrics.h", clocks),
                        "R1"),
              2u);
}

TEST(LintR1, MetricsHeaderExemptionIsClockScoped)
{
    // Unlike rng.h, metrics.h is only sanctioned for clocks:
    // randomness and un-annotated environment reads there are still
    // findings.
    const auto rnd = analyzeSource("src/util/metrics.h",
                                   "int r = rand();\n");
    EXPECT_EQ(countRule(rnd, "R1"), 1u);
    const auto env = analyzeSource(
        "src/util/metrics.h", "const char *e = std::getenv(\"M\");\n");
    EXPECT_EQ(countRule(env, "R1"), 1u);
}

// ------------------------------------------------------------- R2

TEST(LintR2, FlagsRangeForOverUnordered)
{
    const auto f = lintCc(
        "std::unordered_map<int, double> stats;\n"
        "double total() {\n"
        "    double t = 0;\n"
        "    for (const auto &kv : stats) t += kv.second;\n"
        "    return t;\n"
        "}\n");
    EXPECT_EQ(countRule(f, "R2"), 1u);
    EXPECT_EQ(f[0].line, 4);
}

TEST(LintR2, FlagsBeginAndEqualRange)
{
    const auto f = lintCc(
        "std::unordered_multimap<int, int> cache;\n"
        "auto a = cache.begin();\n"
        "auto r = cache.equal_range(3);\n");
    EXPECT_EQ(countRule(f, "R2"), 2u);
}

TEST(LintR2, OrderedContainersAndKeyedLookupsAreClean)
{
    // std::map iteration is ordered; find()/emplace() on an
    // unordered map are keyed lookups, not iteration; and an
    // integer-indexed loop that *mentions* the unordered name (the
    // std:: colon false-positive regression) is clean.
    const auto f = lintCc(
        "std::map<int, double> ordered;\n"
        "std::unordered_map<int, double> um;\n"
        "double sum() {\n"
        "    double t = 0;\n"
        "    for (const auto &kv : ordered) t += kv.second;\n"
        "    auto it = um.find(3);\n"
        "    for (std::size_t i = 0; i < um.size(); ++i) t += 1;\n"
        "    return t;\n"
        "}\n");
    EXPECT_EQ(countRule(f, "R2"), 0u);
}

TEST(LintR2, OrderedMergeAnnotationSuppresses)
{
    const auto f = lintCc(
        "std::unordered_map<int, int> m;\n"
        "// first-match is unique. lint: ordered-merge\n"
        "auto r = m.equal_range(1);\n");
    EXPECT_EQ(countRule(f, "R2"), 0u);
}

TEST(LintR2, CompanionHeaderDeclarationsAreSeen)
{
    // The member lives in the header; the iteration in the .cc.
    Options options;
    options.companion =
        "class C { std::unordered_multimap<int, int> cache_; };\n";
    const auto f = lintCc("auto r = cache_.equal_range(7);\n",
                          options);
    EXPECT_EQ(countRule(f, "R2"), 1u);
    // Without the companion the declaration is invisible.
    EXPECT_EQ(countRule(lintCc("auto r = cache_.equal_range(7);\n"),
                        "R2"),
              0u);
}

// ------------------------------------------------------------- R3

TEST(LintR3, FlagsFloatSweepUpAndDown)
{
    const auto up = lintCc(
        "for (double f = 0.0; f < 1.0; f += 0.1) use(f);\n");
    EXPECT_EQ(countRule(up, "R3"), 1u);
    const auto down = lintCc(
        "for (double v = start; v > floor; v -= step) use(v);\n");
    EXPECT_EQ(countRule(down, "R3"), 1u);
}

TEST(LintR3, IntegerIndexedSweepIsClean)
{
    const auto f = lintCc(
        "for (std::size_t i = 0; i < n; ++i) {\n"
        "    const double v = start + static_cast<double>(i) * dv;\n"
        "    use(v);\n"
        "}\n"
        "for (double x : samples) use(x);\n");
    EXPECT_EQ(countRule(f, "R3"), 0u);
}

// ------------------------------------------------------------- R4

TEST(LintR4, FlagsUnitMagnitudeLiterals)
{
    const auto f = lintCc("double a = 120e6;\n"
                          "double b = 1.2e9;\n"
                          "double c = 20e+3;\n");
    EXPECT_EQ(countRule(f, "R4"), 3u);
}

TEST(LintR4, NegativeExponentsAndHelpersAreClean)
{
    // milli()/micro() conversions are NOT bit-exact, so negative
    // magnitudes are deliberate non-findings; helper calls and
    // non-magnitude exponents are clean too.
    const auto f = lintCc("double a = 0.15e-3;\n"
                          "double b = 1e-30;\n"
                          "double c = mega(120.0);\n"
                          "double d = 1e7;\n");
    EXPECT_EQ(countRule(f, "R4"), 0u);
}

TEST(LintR4, UnitsHeaderAndDatasheetTagAreExempt)
{
    const auto units = analyzeSource(
        "src/util/units.h",
        "inline constexpr double kilo(double v){return v*1e3;}\n");
    EXPECT_EQ(countRule(units, "R4"), 0u);
    const auto tagged = lintCc(
        "double f = 32.768e3; // crystal datasheet. lint: datasheet\n");
    EXPECT_EQ(countRule(tagged, "R4"), 0u);
}

TEST(LintR4, UnitHelpersAreBitExactForPositiveMagnitudes)
{
    // The numeric claim behind R4's fix advice: the multiplier is an
    // exact integer double, so one rounding (of the mantissa) is the
    // only rounding — identical to parsing the literal directly.
    EXPECT_EQ(kilo(1.0), 1e3);
    EXPECT_EQ(mega(2.4), 2.4e6);
    EXPECT_EQ(mega(120.0), 120e6);
    EXPECT_EQ(mega(700.0), 700e6);
    EXPECT_EQ(giga(1.2), 1.2e9);
    EXPECT_EQ(giga(2.95), 2.95e9);
}

// ------------------------------------------------------------- R5

TEST(LintR5, CanonicalGuardIsClean)
{
    const auto f = analyzeSource("src/util/rng.h",
                                 "#ifndef EMSTRESS_UTIL_RNG_H\n"
                                 "#define EMSTRESS_UTIL_RNG_H\n"
                                 "#endif\n");
    EXPECT_EQ(countRule(f, "R5"), 0u);
}

TEST(LintR5, WrongOrMissingGuardIsFlagged)
{
    const auto wrong = analyzeSource("src/util/rng.h",
                                     "#ifndef WRONG_H\n"
                                     "#define WRONG_H\n"
                                     "#endif\n");
    EXPECT_EQ(countRule(wrong, "R5"), 1u);
    const auto missing =
        analyzeSource("src/dsp/fft.h", "int x = 1;\n");
    EXPECT_EQ(countRule(missing, "R5"), 1u);
    // Leading comments do not disturb guard detection; .cc files
    // are not subject to R5.
    const auto commented = analyzeSource(
        "src/dsp/fft.h",
        "/** @file doc */\n"
        "#ifndef EMSTRESS_DSP_FFT_H\n"
        "#define EMSTRESS_DSP_FFT_H\n"
        "#endif\n");
    EXPECT_EQ(countRule(commented, "R5"), 0u);
    EXPECT_EQ(countRule(lintCc("int x = 1;\n"), "R5"), 0u);
}

// ------------------------------------------------------------- R6

TEST(LintR6, FlagsSocketSyscallsOutsideTransport)
{
    // Any socket syscall in an ordinary source file — here a worker
    // evaluation path — is a finding: peer timing and payload bytes
    // must never reach result-producing code.
    const auto f = lintCc(
        "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
        "connect(fd, addr, len);\n"
        "send(fd, buf, n, 0);\n"
        "recv(fd, buf, n, 0);\n");
    EXPECT_EQ(countRule(f, "R6"), 4u);
    EXPECT_EQ(f[0].rule, "R6");
    EXPECT_EQ(f[0].line, 1);
}

TEST(LintR6, ServiceTransportFilesAreExemptByPath)
{
    // src/service/transport*.{h,cc} is the sanctioned home for the
    // whole syscall surface — no per-line annotation needed there.
    const std::string syscalls =
        "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
        "listen(fd, 64);\n"
        "int peer = accept(fd, nullptr, nullptr);\n"
        "setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, len);\n"
        "inet_pton(AF_INET, host, &addr);\n";
    EXPECT_EQ(countRule(analyzeSource("src/service/transport_socket.cc",
                                      syscalls),
                        "R6"),
              0u);
    EXPECT_EQ(countRule(analyzeSource("src/service/transport_socket.h",
                                      syscalls),
                        "R6"),
              0u);
    EXPECT_EQ(
        countRule(analyzeSource("src/service/transport.cc", syscalls),
                  "R6"),
        0u);
    // The exemption is basename- and directory-scoped: other service
    // files (the scheduler, the job model) and transport-named files
    // outside src/service/ stay banned.
    EXPECT_EQ(
        countRule(analyzeSource("src/service/scheduler.cc", syscalls),
                  "R6"),
        5u);
    EXPECT_EQ(
        countRule(analyzeSource("src/core/transport_hack.cc", syscalls),
                  "R6"),
        5u);
}

TEST(LintR6, SocketTransportAnnotationSuppresses)
{
    const auto tagged = lintCc(
        "// frame relay helper. lint: socket-transport\n"
        "send(fd, buf, n, 0);\n");
    EXPECT_EQ(countRule(tagged, "R6"), 0u);
    // The tag sanctions only socket syscalls, not other rules.
    const auto clk = lintCc(
        "auto t = steady_clock::now(); // lint: socket-transport\n");
    EXPECT_EQ(countRule(clk, "R1"), 1u);
}

TEST(LintR6, BindAndMethodNameLookalikesAreClean)
{
    // std::bind, member functions *named* like syscalls behind a
    // dot/arrow, and close()/shutdown() are deliberately outside the
    // matched set — the remaining surface still catches any
    // compiling network path.
    const auto f = lintCc(
        "auto g = std::bind(&W::run, this);\n"
        "pool.shutdown();\n"
        "file.close();\n"
        "double sendRate = 0.0;\n");
    EXPECT_EQ(countRule(f, "R6"), 0u);
}

// -------------------------------------- service clock sanction (R1)

TEST(LintR1, ServiceTransportAndSchedulerAreSanctionedClockHomes)
{
    // The service's transport (connection deadlines) and scheduler
    // (queue-wait/latency observability) may read clocks without
    // per-line annotations, like util/metrics.h.
    const std::string clocks =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(countRule(analyzeSource("src/service/transport_socket.cc",
                                      clocks),
                        "R1"),
              0u);
    EXPECT_EQ(
        countRule(analyzeSource("src/service/transport.h", clocks),
                  "R1"),
        0u);
    EXPECT_EQ(
        countRule(analyzeSource("src/service/scheduler.cc", clocks),
                  "R1"),
        0u);
    // Worker evaluation paths — everything else, including the rest
    // of the service layer — still fail the gate on clock reads.
    EXPECT_EQ(countRule(analyzeSource("src/service/job.cc", clocks),
                        "R1"),
              1u);
    EXPECT_EQ(
        countRule(analyzeSource("src/ga/batch_evaluator.cc", clocks),
                  "R1"),
        1u);
    // Lookalike paths outside src/service/ are not exempt.
    EXPECT_EQ(
        countRule(analyzeSource("src/core/scheduler.cc", clocks),
                  "R1"),
        1u);
}

TEST(LintR1, ServiceClockSanctionIsClockScoped)
{
    // Like metrics.h: randomness and environment reads in the
    // sanctioned service files are still findings.
    const auto rnd = analyzeSource("src/service/scheduler.cc",
                                   "int r = rand();\n");
    EXPECT_EQ(countRule(rnd, "R1"), 1u);
    const auto env =
        analyzeSource("src/service/transport_socket.cc",
                      "const char *e = std::getenv(\"S\");\n");
    EXPECT_EQ(countRule(env, "R1"), 1u);
}

// -------------------------------------------------- suppression IO

TEST(LintFixList, ParsesAndSuppresses)
{
    const auto entries = parseFixList(
        "# comment\n"
        "R4 src/platform/platform.h   # whole file\n"
        "R1 batch_evaluator.cc 15\n"
        "* src/legacy/blob.cc\n");
    ASSERT_EQ(entries.size(), 3u);

    Options options;
    options.fixlist = entries;
    const auto suppressed = analyzeSource(
        "src/platform/platform.h",
        "#ifndef EMSTRESS_PLATFORM_PLATFORM_H\n"
        "#define EMSTRESS_PLATFORM_PLATFORM_H\n"
        "inline constexpr double kF = 1.2e9;\n"
        "#endif\n",
        options);
    EXPECT_EQ(countRule(suppressed, "R4"), 0u);
    // Same content under another path is still flagged.
    const auto elsewhere = analyzeSource(
        "src/em/antenna.h",
        "#ifndef EMSTRESS_EM_ANTENNA_H\n"
        "#define EMSTRESS_EM_ANTENNA_H\n"
        "inline constexpr double kF = 1.2e9;\n"
        "#endif\n",
        options);
    EXPECT_EQ(countRule(elsewhere, "R4"), 1u);
}

TEST(LintFixList, MatchingIsComponentAlignedAndLineAware)
{
    const FixListEntry entry{"R1", "rng.h", 0};
    EXPECT_TRUE(matchesFixList(entry, {"src/util/rng.h", 3, "R1", ""}));
    EXPECT_FALSE(
        matchesFixList(entry, {"src/util/xrng.h", 3, "R1", ""}));
    EXPECT_FALSE(
        matchesFixList(entry, {"src/util/rng.h", 3, "R4", ""}));
    const FixListEntry line_entry{"R1", "rng.h", 7};
    EXPECT_TRUE(
        matchesFixList(line_entry, {"src/util/rng.h", 7, "R1", ""}));
    EXPECT_FALSE(
        matchesFixList(line_entry, {"src/util/rng.h", 8, "R1", ""}));
    const FixListEntry any{"*", "rng.h", 0};
    EXPECT_TRUE(matchesFixList(any, {"src/util/rng.h", 1, "R5", ""}));
}

// ------------------------------------------------------ scanner

TEST(LintScanner, StringsAndCommentsAreInert)
{
    const auto f = lintCc(
        "// steady_clock in a comment, and 120e6 too\n"
        "/* std::rand() inside a block comment */\n"
        "const char *s = \"rand steady_clock 120e6\";\n"
        "const char *r = R\"(getenv 1.2e9)\";\n"
        "char c = 'e';\n");
    EXPECT_TRUE(f.empty());
}

TEST(LintScanner, DigitSeparatorsDoNotSplitLiterals)
{
    // 1'000e6 is one pp-number; the separator must not break the
    // token or start a character literal that swallows code.
    const auto f = lintCc("double a = 1'000e6; int r = rand();\n");
    EXPECT_EQ(countRule(f, "R4"), 1u);
    EXPECT_EQ(countRule(f, "R1"), 1u);
}

TEST(LintFormat, RendersFileLineRuleMessage)
{
    const Finding f{"src/a.cc", 12, "R3", "msg"};
    EXPECT_EQ(formatFinding(f), "src/a.cc:12: [R3] msg");
}

// ----------------------------------------------- R7 lock-discipline

/** Run the cross-TU rules over in-memory files. */
std::vector<Finding>
lintProject(const std::vector<ProjectFile> &files,
            const Options &options = {})
{
    std::vector<Finding> out = analyzeProject(files, options);
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](const Finding &f) {
                                 return f.suppressed;
                             }),
              out.end());
    return out;
}

const char *const kBoxHeader =
    "#include <mutex>\n"
    "class Box {\n"
    " public:\n"
    "  void touch();\n"
    "  void wrongMutex();\n"
    "  void viaHelper();\n"
    " private:\n"
    "  void helperLocked();\n"
    "  std::mutex mutex_;\n"
    "  std::mutex other_;\n"
    "  int v_ = 0; // guards: mutex_\n"
    "};\n";

TEST(LintR7, AccessUnderNamedMutexIsClean)
{
    const auto f = lintProject(
        {{"src/x/box.h", kBoxHeader},
         {"src/x/box.cc",
          "#include \"box.h\"\n"
          "void Box::touch() {\n"
          "  const std::lock_guard<std::mutex> lock(mutex_);\n"
          "  v_ += 1;\n"
          "}\n"}});
    EXPECT_EQ(countRule(f, "R7"), 0u);
}

TEST(LintR7, UnlockedAccessFlagged)
{
    const auto f = lintProject(
        {{"src/x/box.h", kBoxHeader},
         {"src/x/box.cc",
          "#include \"box.h\"\n"
          "void Box::touch() { v_ += 1; }\n"}});
    ASSERT_EQ(countRule(f, "R7"), 1u);
    EXPECT_EQ(f[0].file, "src/x/box.cc");
    EXPECT_EQ(f[0].line, 2);
}

TEST(LintR7, WrongMutexFlagged)
{
    const auto f = lintProject(
        {{"src/x/box.h", kBoxHeader},
         {"src/x/box.cc",
          "#include \"box.h\"\n"
          "void Box::wrongMutex() {\n"
          "  const std::lock_guard<std::mutex> lock(other_);\n"
          "  v_ += 1;\n"
          "}\n"}});
    ASSERT_EQ(countRule(f, "R7"), 1u);
    EXPECT_EQ(f[0].line, 4);
}

TEST(LintR7, CallerHoldsAcrossTusSatisfiesHelper)
{
    // helperLocked() has no lexical lock; every caller (in another
    // TU) holds mutex_, so the caller-holds fixpoint must clear it.
    const auto f = lintProject(
        {{"src/x/box.h", kBoxHeader},
         {"src/x/helper.cc",
          "#include \"box.h\"\n"
          "void Box::helperLocked() { v_ += 2; }\n"},
         {"src/x/box.cc",
          "#include \"box.h\"\n"
          "void Box::viaHelper() {\n"
          "  const std::lock_guard<std::mutex> lock(mutex_);\n"
          "  helperLocked();\n"
          "}\n"}});
    EXPECT_EQ(countRule(f, "R7"), 0u);
}

TEST(LintR7, CrossTuCallerWithoutLockFlagged)
{
    const auto f = lintProject(
        {{"src/x/box.h", kBoxHeader},
         {"src/x/helper.cc",
          "#include \"box.h\"\n"
          "void Box::helperLocked() { v_ += 2; }\n"},
         {"src/x/box.cc",
          "#include \"box.h\"\n"
          "void Box::viaHelper() { helperLocked(); }\n"}});
    ASSERT_EQ(countRule(f, "R7"), 1u);
    EXPECT_EQ(f[0].file, "src/x/helper.cc");
    // The witness names the caller that fails to hold the mutex.
    bool caller_named = false;
    for (const std::string &w : f[0].witness)
        if (w.find("Box::viaHelper") != std::string::npos)
            caller_named = true;
    EXPECT_TRUE(caller_named);
}

TEST(LintR7, AnnotationSuppressesButIsReported)
{
    const auto all = analyzeProject(
        {{"src/x/box.h", kBoxHeader},
         {"src/x/box.cc",
          "#include \"box.h\"\n"
          "void Box::touch() { v_ += 1; } // lint: r7\n"}},
        {});
    ASSERT_EQ(countRule(all, "R7"), 1u);
    EXPECT_TRUE(all[0].suppressed);
    EXPECT_EQ(all[0].suppression, "annotation:r7");
}

TEST(LintR7, OutOfScopeOutcomeReadFlagged)
{
    // Regression shape for the WorkerFleet::run() fix: the outcome
    // fields were read after the unique_lock scope closed. The read
    // moved under the lock; this pins that the old shape stays a
    // finding.
    const char *const header =
        "#include <mutex>\n"
        "class Fleet {\n"
        " public:\n"
        "  int run();\n"
        " private:\n"
        "  std::mutex mutex_;\n"
        "  int executed_ = 0; // guards: mutex_\n"
        "};\n";
    const auto bad = lintProject(
        {{"src/x/fleet.h", header},
         {"src/x/fleet.cc",
          "#include \"fleet.h\"\n"
          "int Fleet::run() {\n"
          "  int out = 0;\n"
          "  {\n"
          "    std::unique_lock<std::mutex> lock(mutex_);\n"
          "    out = executed_;\n"
          "  }\n"
          "  return out + executed_;\n"
          "}\n"}});
    ASSERT_EQ(countRule(bad, "R7"), 1u);
    EXPECT_EQ(bad[0].line, 8);
}

// --------------------------------------------------- R8 lock-order

const char *const kPeersHeader =
    "#include <mutex>\n"
    "struct B;\n"
    "struct A {\n"
    "  void poke();\n"
    "  std::mutex mutex_;\n"
    "  B *peer = nullptr;\n"
    "};\n"
    "struct B {\n"
    "  void poke();\n"
    "  std::mutex mutex_;\n"
    "  A *peer = nullptr;\n"
    "};\n";

TEST(LintR8, OppositeOrderAcrossTusIsACycle)
{
    const auto f = lintProject(
        {{"src/x/peers.h", kPeersHeader},
         {"src/x/a.cc",
          "#include \"peers.h\"\n"
          "void A::poke() {\n"
          "  const std::lock_guard<std::mutex> l1(mutex_);\n"
          "  const std::lock_guard<std::mutex> l2(peer->mutex_);\n"
          "}\n"},
         {"src/x/b.cc",
          "#include \"peers.h\"\n"
          "void B::poke() {\n"
          "  const std::lock_guard<std::mutex> l1(mutex_);\n"
          "  const std::lock_guard<std::mutex> l2(peer->mutex_);\n"
          "}\n"}});
    ASSERT_EQ(countRule(f, "R8"), 1u);
    // The witness walks both edges of the cycle.
    ASSERT_EQ(f[0].witness.size(), 2u);
    EXPECT_NE(f[0].witness[0].find("A::mutex_"), std::string::npos);
    EXPECT_NE(f[0].witness[1].find("B::mutex_"), std::string::npos);
}

TEST(LintR8, ConsistentOrderIsClean)
{
    const auto f = lintProject(
        {{"src/x/peers.h", kPeersHeader},
         {"src/x/a.cc",
          "#include \"peers.h\"\n"
          "void A::poke() {\n"
          "  const std::lock_guard<std::mutex> l1(mutex_);\n"
          "  const std::lock_guard<std::mutex> l2(peer->mutex_);\n"
          "}\n"},
         {"src/x/b.cc",
          "#include \"peers.h\"\n"
          "void B::poke() {\n"
          "  const std::lock_guard<std::mutex> l1(peer->mutex_);\n"
          "  const std::lock_guard<std::mutex> l2(mutex_);\n"
          "}\n"}});
    EXPECT_EQ(countRule(f, "R8"), 0u);
}

TEST(LintR8, ThreeCycleDetected)
{
    const char *const header =
        "#include <mutex>\n"
        "struct Q; struct R;\n"
        "struct P { void poke(); std::mutex mutex_; Q *n = nullptr; };\n"
        "struct Q { void poke(); std::mutex mutex_; R *n = nullptr; };\n"
        "struct R { void poke(); std::mutex mutex_; P *n = nullptr; };\n";
    const char *const body =
        "#include \"ring.h\"\n"
        "void %c::poke() {\n"
        "  const std::lock_guard<std::mutex> l1(mutex_);\n"
        "  const std::lock_guard<std::mutex> l2(n->mutex_);\n"
        "}\n";
    std::string p(body), q(body), r(body);
    p.replace(p.find("%c"), 2, "P");
    q.replace(q.find("%c"), 2, "Q");
    r.replace(r.find("%c"), 2, "R");
    const auto f = lintProject({{"src/x/ring.h", header},
                                {"src/x/p.cc", p},
                                {"src/x/q.cc", q},
                                {"src/x/r.cc", r}});
    ASSERT_EQ(countRule(f, "R8"), 1u);
    EXPECT_EQ(f[0].witness.size(), 3u);
}

// ----------------------------------------------------- JSON report

TEST(LintJson, RoundTripsFindings)
{
    std::vector<Finding> in;
    Finding a;
    a.file = "src/a.cc";
    a.line = 12;
    a.rule = "R7";
    a.message = "msg with \"quotes\"\nand a newline";
    a.witness = {"first witness", "second\twitness"};
    in.push_back(a);
    Finding b;
    b.file = "src/b.h";
    b.line = 3;
    b.rule = "R8";
    b.message = "plain";
    b.suppressed = true;
    b.suppression = "annotation:r8";
    in.push_back(b);

    const std::string json = findingsToJson(in, 42);
    EXPECT_NE(json.find("emstress-lint-findings-v1"),
              std::string::npos);

    std::size_t files = 0;
    const std::vector<Finding> out = findingsFromJson(json, &files);
    EXPECT_EQ(files, 42u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].file, a.file);
    EXPECT_EQ(out[0].line, a.line);
    EXPECT_EQ(out[0].rule, a.rule);
    EXPECT_EQ(out[0].message, a.message);
    EXPECT_EQ(out[0].witness, a.witness);
    EXPECT_FALSE(out[0].suppressed);
    EXPECT_TRUE(out[1].suppressed);
    EXPECT_EQ(out[1].suppression, b.suppression);

    // Determinism: re-serializing the parsed findings is
    // byte-identical.
    EXPECT_EQ(findingsToJson(out, files), json);
}

TEST(LintJson, RejectsMalformedReports)
{
    EXPECT_THROW(findingsFromJson("{", nullptr), std::runtime_error);
    EXPECT_THROW(findingsFromJson("{}", nullptr),
                 std::runtime_error); // missing schema tag
    EXPECT_THROW(
        findingsFromJson("{\"schema\": \"other-schema\"}", nullptr),
        std::runtime_error);
    EXPECT_THROW(
        findingsFromJson("{\"schema\": \"emstress-lint-findings-v1\","
                         " \"bogus\": 1}",
                         nullptr),
        std::runtime_error);
}

} // namespace
} // namespace lint
} // namespace emstress
