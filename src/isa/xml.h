/**
 * @file
 * Minimal XML parser for instruction-pool input files. The paper's GA
 * framework takes "the assembly instructions used in the GA
 * optimization described by the user in an XML input file"
 * (Section 3.2); this parser supports the subset needed for that:
 * nested elements, attributes, comments, self-closing tags and the
 * five standard character entities.
 */

#ifndef EMSTRESS_ISA_XML_H
#define EMSTRESS_ISA_XML_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace emstress {
namespace isa {

/** A parsed XML element. */
struct XmlNode
{
    std::string name;                        ///< Tag name.
    std::map<std::string, std::string> attrs; ///< Attributes.
    std::vector<XmlNode> children;           ///< Child elements.
    std::string text;                        ///< Concatenated text.

    /** True if the attribute exists. */
    bool hasAttr(const std::string &key) const;

    /**
     * Attribute value.
     * @throws ConfigError when the attribute is absent.
     */
    const std::string &attr(const std::string &key) const;

    /** Attribute value with a default when absent. */
    std::string attrOr(const std::string &key,
                       const std::string &fallback) const;

    /**
     * Attribute parsed as a number.
     * @throws ConfigError when absent or not numeric.
     */
    double attrNumber(const std::string &key) const;

    /**
     * Attribute parsed as a whole number in [lo, hi]. The range is
     * checked on the parsed double, before any integer conversion,
     * which would be undefined for a non-finite or out-of-range value.
     * @throws ConfigError when absent, not numeric, not whole or out
     *         of range.
     */
    int attrInteger(const std::string &key, int lo, int hi) const;

    /** All children with a given tag name. */
    std::vector<const XmlNode *>
    childrenNamed(const std::string &name) const;

    /**
     * The single child with a given tag name.
     * @throws ConfigError when missing or ambiguous.
     */
    const XmlNode &child(const std::string &name) const;
};

/// Deepest element nesting parseXml accepts (a pool nests 2 deep);
/// the parser recurses per level, so the bound keeps crafted input
/// from exhausting the stack.
inline constexpr std::size_t kMaxXmlDepth = 64;

/**
 * Parse an XML document from text.
 * @return The root element.
 * @throws ConfigError with a line number on malformed input,
 *         including elements nested deeper than kMaxXmlDepth.
 */
XmlNode parseXml(std::string_view text);

/**
 * Parse an XML document from a file.
 * @throws ConfigError when the file cannot be read or parsed.
 */
XmlNode parseXmlFile(const std::string &path);

/** `text` as an attribute value: markup characters as entities. */
std::string escapeXml(std::string_view text);

} // namespace isa
} // namespace emstress

#endif // EMSTRESS_ISA_XML_H
