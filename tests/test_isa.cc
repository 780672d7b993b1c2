/**
 * @file
 * Tests for the ISA layer: instruction classes, pools, XML parsing
 * and kernels.
 */

#include <gtest/gtest.h>

#include "isa/instr.h"
#include "isa/kernel.h"
#include "isa/pool.h"
#include "isa/xml.h"
#include "util/error.h"
#include "util/rng.h"

namespace emstress {
namespace isa {
namespace {

TEST(InstrClassNames, RoundTripAllClasses)
{
    for (std::size_t i = 0; i < kNumInstrClasses; ++i) {
        const auto cls = static_cast<InstrClass>(i);
        EXPECT_EQ(instrClassFromName(instrClassName(cls)), cls);
    }
    EXPECT_THROW(instrClassFromName("bogus"), ConfigError);
}

TEST(InstrClassNames, MemoryClassification)
{
    EXPECT_TRUE(isMemoryClass(InstrClass::Load));
    EXPECT_TRUE(isMemoryClass(InstrClass::Store));
    EXPECT_TRUE(isMemoryClass(InstrClass::IntShortMem));
    EXPECT_TRUE(isMemoryClass(InstrClass::IntLongMem));
    EXPECT_FALSE(isMemoryClass(InstrClass::IntShort));
    EXPECT_FALSE(isMemoryClass(InstrClass::Branch));
    EXPECT_TRUE(isX86MemOperandClass(InstrClass::IntShortMem));
    EXPECT_FALSE(isX86MemOperandClass(InstrClass::Load));
}

TEST(Pool, ArmPoolCoversPaperMix)
{
    // Section 3.3: short/long integer, FP, SIMD, dummy branches,
    // loads and stores.
    const auto pool = InstructionPool::armV8();
    EXPECT_EQ(pool.isa(), IsaFamily::ArmV8);
    bool classes[kNumInstrClasses] = {};
    for (const auto &d : pool.defs())
        classes[static_cast<std::size_t>(d.cls)] = true;
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::IntShort)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::IntLong)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::FpShort)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::FpLong)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::SimdShort)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::SimdLong)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::Load)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::Store)]);
    EXPECT_TRUE(classes[static_cast<std::size_t>(InstrClass::Branch)]);
    // x86-only classes absent on ARM.
    EXPECT_FALSE(
        classes[static_cast<std::size_t>(InstrClass::IntShortMem)]);
}

TEST(Pool, X86PoolUsesMemOperandsInsteadOfLoadStore)
{
    // Section 3.3: "x86 does not have explicit load-store
    // instructions; memory operations are implemented by using memory
    // address operands for integer instructions".
    const auto pool = InstructionPool::x86Sse2();
    bool classes[kNumInstrClasses] = {};
    for (const auto &d : pool.defs())
        classes[static_cast<std::size_t>(d.cls)] = true;
    EXPECT_TRUE(
        classes[static_cast<std::size_t>(InstrClass::IntShortMem)]);
    EXPECT_TRUE(
        classes[static_cast<std::size_t>(InstrClass::IntLongMem)]);
    EXPECT_FALSE(classes[static_cast<std::size_t>(InstrClass::Load)]);
    EXPECT_FALSE(classes[static_cast<std::size_t>(InstrClass::Store)]);
}

TEST(Pool, LongLatencyExceedsShortLatency)
{
    for (const auto &pool :
         {InstructionPool::armV8(), InstructionPool::x86Sse2()}) {
        unsigned max_short = 0;
        unsigned min_long = 1000;
        for (const auto &d : pool.defs()) {
            if (d.cls == InstrClass::IntShort)
                max_short = std::max(max_short, d.latency);
            if (d.cls == InstrClass::IntLong
                || d.cls == InstrClass::FpLong) {
                min_long = std::min(min_long, d.latency);
            }
        }
        EXPECT_GT(min_long, max_short);
    }
}

TEST(Pool, AddInstructionValidation)
{
    InstructionPool pool(IsaFamily::ArmV8, 4, 4, 4, 2);
    EXPECT_THROW(pool.addInstruction({"", InstrClass::IntShort, 1, 2,
                                      true, RegFile::Int, 1e-9}),
                 ConfigError);
    EXPECT_THROW(pool.addInstruction({"X", InstrClass::IntShort, 0, 2,
                                      true, RegFile::Int, 1e-9}),
                 ConfigError);
    EXPECT_THROW(pool.addInstruction({"X", InstrClass::IntShort, 1, 3,
                                      true, RegFile::Int, 1e-9}),
                 ConfigError);
    pool.addInstruction(
        {"X", InstrClass::IntShort, 1, 2, true, RegFile::Int, 1e-9});
    EXPECT_THROW(pool.addInstruction({"X", InstrClass::IntShort, 1, 2,
                                      true, RegFile::Int, 1e-9}),
                 ConfigError);
    EXPECT_EQ(pool.defIndex("X"), 0u);
    EXPECT_THROW((void)pool.defIndex("Y"), ConfigError);
}

TEST(Pool, RandomInstructionIsValid)
{
    const auto pool = InstructionPool::armV8();
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const auto instr = pool.randomInstruction(rng);
        EXPECT_NO_THROW(pool.validate(instr));
    }
}

TEST(Pool, RandomMemoryInstructionGetsSlot)
{
    const auto pool = InstructionPool::armV8();
    Rng rng(6);
    bool saw_mem = false;
    for (int i = 0; i < 500; ++i) {
        const auto instr = pool.randomInstruction(rng);
        const auto &d = pool.def(instr.def_index);
        if (isMemoryClass(d.cls)) {
            saw_mem = true;
            EXPECT_GE(instr.mem_slot, 0);
            EXPECT_LT(instr.mem_slot, pool.memSlots());
        } else {
            EXPECT_EQ(instr.mem_slot, -1);
        }
    }
    EXPECT_TRUE(saw_mem);
}

TEST(Pool, ValidateRejectsBadOperands)
{
    const auto pool = InstructionPool::armV8();
    Instruction instr;
    instr.def_index = pool.defIndex("ADD");
    instr.dest = 99;
    instr.src = {0, 0};
    EXPECT_THROW(pool.validate(instr), ConfigError);
    instr.dest = 0;
    instr.src = {-1, 0};
    EXPECT_THROW(pool.validate(instr), ConfigError);
}

TEST(Pool, AssemblyRendering)
{
    const auto pool = InstructionPool::armV8();
    Instruction add;
    add.def_index = pool.defIndex("ADD");
    add.dest = 3;
    add.src = {1, 2};
    EXPECT_EQ(pool.toAssembly(add), "ADD r3, r1, r2");

    Instruction ldr;
    ldr.def_index = pool.defIndex("LDR");
    ldr.dest = 2;
    ldr.mem_slot = 1;
    EXPECT_EQ(pool.toAssembly(ldr), "LDR r2, [mem1]");

    Instruction b;
    b.def_index = pool.defIndex("B");
    EXPECT_EQ(pool.toAssembly(b), "B .next");
}

TEST(Pool, XmlRoundTrip)
{
    for (const auto &pool :
         {InstructionPool::armV8(), InstructionPool::x86Sse2()}) {
        const std::string xml = pool.toXmlString();
        const auto restored = InstructionPool::fromXmlString(xml);
        ASSERT_EQ(restored.defs().size(), pool.defs().size());
        for (std::size_t i = 0; i < pool.defs().size(); ++i) {
            EXPECT_EQ(restored.defs()[i].mnemonic,
                      pool.defs()[i].mnemonic);
            EXPECT_EQ(restored.defs()[i].cls, pool.defs()[i].cls);
            EXPECT_EQ(restored.defs()[i].latency, pool.defs()[i].latency);
            EXPECT_EQ(restored.defs()[i].energy, pool.defs()[i].energy)
                << pool.defs()[i].mnemonic;
        }
        EXPECT_EQ(restored.isa(), pool.isa());
        EXPECT_EQ(restored.memSlots(), pool.memSlots());
    }
}

TEST(Pool, XmlEscapesMnemonics)
{
    // A mnemonic carrying markup characters survives the round trip.
    InstructionPool pool(IsaFamily::ArmV8, 8, 8, 8, 4);
    pool.addInstruction({"A&B<\"q'>", InstrClass::IntShort, 1, 1, true,
                         RegFile::Int, 1e-10});
    const auto restored =
        InstructionPool::fromXmlString(pool.toXmlString());
    EXPECT_EQ(restored.defs().at(0).mnemonic, "A&B<\"q'>");
}

TEST(Pool, XmlRejectsBadInput)
{
    EXPECT_THROW(InstructionPool::fromXmlString("<nope/>"),
                 ConfigError);
    EXPECT_THROW(
        InstructionPool::fromXmlString("<pool isa=\"vax\"></pool>"),
        ConfigError);
    EXPECT_THROW(InstructionPool::fromXmlString(
                     "<pool isa=\"armv8\"><registers int=\"8\" "
                     "fp=\"8\" simd=\"8\" mem_slots=\"4\"/></pool>"),
                 ConfigError); // no instructions
    EXPECT_THROW(InstructionPool::fromXmlFile("/nonexistent.xml"),
                 ConfigError);
}

/** A one-instruction pool with one attribute overridden. */
std::string
poolXml(const std::string &regs_int, const std::string &latency,
        const std::string &sources, const std::string &energy)
{
    return "<pool isa=\"armv8\"><registers int=\"" + regs_int
        + "\" fp=\"8\" simd=\"8\" mem_slots=\"4\"/>"
          "<instruction mnemonic=\"ADD\" class=\"int_short\" "
          "latency=\"" + latency + "\" sources=\"" + sources
        + "\" energy=\"" + energy + "\"/></pool>";
}

TEST(Pool, XmlRejectsValuesThatCannotBeCast)
{
    const auto load = [](const std::string &xml) {
        return InstructionPool::fromXmlString(xml);
    };
    EXPECT_NO_THROW((void)load(poolXml("8", "1", "2", "2e-10")));
    // Each of these would be an undefined double-to-integer cast, or
    // a count the pool cannot hold.
    for (const char *bad : {"1e300", "-1", "nan", "inf", "2.5", "4097"})
        EXPECT_THROW((void)load(poolXml(bad, "1", "2", "1")),
                     ConfigError)
            << "int=" << bad;
    for (const char *bad : {"1e300", "-1", "0", "nan", "-inf", "1.5"})
        EXPECT_THROW((void)load(poolXml("8", bad, "2", "1")),
                     ConfigError)
            << "latency=" << bad;
    for (const char *bad : {"-1", "3", "nan", "1e19"})
        EXPECT_THROW((void)load(poolXml("8", "1", bad, "1")),
                     ConfigError)
            << "sources=" << bad;
    for (const char *bad : {"nan", "inf", "-1"})
        EXPECT_THROW((void)load(poolXml("8", "1", "2", bad)),
                     ConfigError)
            << "energy=" << bad;
}

TEST(Xml, NestingDepthIsBounded)
{
    const auto nested = [](std::size_t depth) {
        std::string s;
        for (std::size_t i = 0; i < depth; ++i)
            s += "<a>";
        for (std::size_t i = 0; i < depth; ++i)
            s += "</a>";
        return s;
    };
    EXPECT_NO_THROW((void)parseXml(nested(kMaxXmlDepth)));
    EXPECT_THROW((void)parseXml(nested(kMaxXmlDepth + 1)), ConfigError);
    // Far past any stack: must throw, not overflow.
    std::string deep;
    for (int i = 0; i < 300000; ++i)
        deep += "<a>";
    EXPECT_THROW((void)parseXml(deep), ConfigError);
}

TEST(Xml, ParsesNestedDocument)
{
    const auto root = parseXml(
        "<?xml version=\"1.0\"?>\n"
        "<!-- comment -->\n"
        "<a x=\"1\" y=\"two &amp; three\">\n"
        "  <b/><b z='3.5'/>\n"
        "  <c>text</c>\n"
        "</a>");
    EXPECT_EQ(root.name, "a");
    EXPECT_EQ(root.attr("x"), "1");
    EXPECT_EQ(root.attr("y"), "two & three");
    EXPECT_EQ(root.childrenNamed("b").size(), 2u);
    EXPECT_DOUBLE_EQ(root.childrenNamed("b")[1]->attrNumber("z"), 3.5);
    EXPECT_EQ(root.child("c").text, "text");
    EXPECT_TRUE(root.hasAttr("x"));
    EXPECT_FALSE(root.hasAttr("q"));
    EXPECT_EQ(root.attrOr("q", "dflt"), "dflt");
}

TEST(Xml, ErrorsCarryLineNumbers)
{
    try {
        parseXml("<a>\n<b>\n</c>\n</a>");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Xml, RejectsMalformedDocuments)
{
    EXPECT_THROW(parseXml(""), ConfigError);
    EXPECT_THROW(parseXml("<a>"), ConfigError);
    EXPECT_THROW(parseXml("<a x=1></a>"), ConfigError);
    EXPECT_THROW(parseXml("<a x=\"1\" x=\"2\"></a>"), ConfigError);
    EXPECT_THROW(parseXml("<a></a><b></b>"), ConfigError);
    EXPECT_THROW(parseXml("<a>&bogus;</a>"), ConfigError);
    EXPECT_THROW((void)parseXml("<a/>").attr("missing"), ConfigError);
    EXPECT_THROW((void)parseXml("<a/>").child("missing"), ConfigError);
    // Mismatched close, unterminated comment/attribute, stray text.
    EXPECT_THROW(parseXml("<a></b>"), ConfigError);
    EXPECT_THROW(parseXml("<a><!-- unterminated </a>"), ConfigError);
    EXPECT_THROW(parseXml("<a x=\"unterminated></a>"), ConfigError);
    EXPECT_THROW(parseXml("junk <a/>"), ConfigError);
    EXPECT_THROW(parseXml("<a>&unterminated</a>"), ConfigError);
    // attrNumber on a non-numeric value.
    EXPECT_THROW((void)parseXml("<a x=\"abc\"/>").attrNumber("x"),
                 ConfigError);
    EXPECT_THROW((void)parseXml("<a x=\"1.5zz\"/>").attrNumber("x"),
                 ConfigError);
}

TEST(Xml, AcceptsCommentsEverywhereAndSelfClosingRoot)
{
    const auto root = parseXml(
        "<!-- lead --> <r a=\"1\"/> <!-- trail -->");
    EXPECT_EQ(root.name, "r");
    EXPECT_DOUBLE_EQ(root.attrNumber("a"), 1.0);
}

TEST(Xml, SingleQuotedAttributesAndEntities)
{
    const auto root =
        parseXml("<a t='&lt;x&gt; &apos;q&apos; &quot;w&quot;'/>");
    EXPECT_EQ(root.attr("t"), "<x> 'q' \"w\"");
}

TEST(Kernel, RandomKernelValidates)
{
    const auto pool = InstructionPool::armV8();
    Rng rng(9);
    const auto k = Kernel::random(pool, 50, rng);
    EXPECT_EQ(k.size(), 50u);
    EXPECT_NO_THROW(k.validate(pool));
}

TEST(Kernel, ClassHistogramSumsToSize)
{
    const auto pool = InstructionPool::armV8();
    Rng rng(10);
    const auto k = Kernel::random(pool, 50, rng);
    const auto hist = k.classHistogram(pool);
    std::size_t total = 0;
    for (auto c : hist)
        total += c;
    EXPECT_EQ(total, 50u);
    double frac_total = 0.0;
    for (std::size_t i = 0; i < kNumInstrClasses; ++i)
        frac_total +=
            k.classFraction(pool, static_cast<InstrClass>(i));
    EXPECT_NEAR(frac_total, 1.0, 1e-12);
}

TEST(Kernel, EqualityAndAssembly)
{
    const auto pool = InstructionPool::armV8();
    Rng rng(11);
    const auto a = Kernel::random(pool, 10, rng);
    Kernel b = a;
    EXPECT_TRUE(a == b);
    b[0].dest = (b[0].dest + 1) % 8;
    EXPECT_FALSE(a == b);

    const std::string asm_text = a.toAssembly(pool);
    EXPECT_NE(asm_text.find(".loop:"), std::string::npos);
    EXPECT_NE(asm_text.find("B .loop"), std::string::npos);
}

TEST(Kernel, EmptyKernelFractionIsZero)
{
    const auto pool = InstructionPool::armV8();
    Kernel k;
    EXPECT_EQ(k.classFraction(pool, InstrClass::IntShort), 0.0);
    EXPECT_TRUE(k.empty());
}

} // namespace
} // namespace isa
} // namespace emstress
