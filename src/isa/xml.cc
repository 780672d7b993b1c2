/**
 * @file
 * Minimal XML parser implementation (recursive descent).
 */

#include "isa/xml.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "util/error.h"

namespace emstress {
namespace isa {

bool
XmlNode::hasAttr(const std::string &key) const
{
    return attrs.find(key) != attrs.end();
}

const std::string &
XmlNode::attr(const std::string &key) const
{
    const auto it = attrs.find(key);
    requireConfig(it != attrs.end(),
                  "<" + name + ">: missing attribute '" + key + "'");
    return it->second;
}

std::string
XmlNode::attrOr(const std::string &key, const std::string &fallback) const
{
    const auto it = attrs.find(key);
    return it == attrs.end() ? fallback : it->second;
}

double
XmlNode::attrNumber(const std::string &key) const
{
    const std::string &v = attr(key);
    try {
        std::size_t pos = 0;
        const double out = std::stod(v, &pos);
        requireConfig(pos == v.size(), "trailing junk");
        return out;
    } catch (const std::exception &) {
        throw ConfigError("<" + name + ">: attribute '" + key
                          + "' is not a number: '" + v + "'");
    }
}

int
XmlNode::attrInteger(const std::string &key, int lo, int hi) const
{
    const double v = attrNumber(key);
    requireConfig(std::isfinite(v) && v == std::floor(v)
                      && v >= static_cast<double>(lo)
                      && v <= static_cast<double>(hi),
                  "<" + name + ">: attribute '" + key
                      + "' must be an integer in [" + std::to_string(lo)
                      + ", " + std::to_string(hi) + "]");
    return static_cast<int>(v);
}

std::vector<const XmlNode *>
XmlNode::childrenNamed(const std::string &tag) const
{
    std::vector<const XmlNode *> out;
    for (const auto &c : children)
        if (c.name == tag)
            out.push_back(&c);
    return out;
}

const XmlNode &
XmlNode::child(const std::string &tag) const
{
    const auto matches = childrenNamed(tag);
    requireConfig(matches.size() == 1,
                  "<" + name + ">: expected exactly one <" + tag
                      + "> child, found "
                      + std::to_string(matches.size()));
    return *matches.front();
}

namespace {

/** Character cursor with line tracking for error messages. */
class Cursor
{
  public:
    explicit Cursor(std::string_view text) : text_(text) {}

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek() const
    {
        return atEnd() ? '\0' : text_[pos_];
    }

    char
    next()
    {
        const char c = peek();
        ++pos_;
        if (c == '\n')
            ++line_;
        return c;
    }

    bool
    consume(std::string_view token)
    {
        if (text_.substr(pos_).substr(0, token.size()) != token)
            return false;
        for (std::size_t i = 0; i < token.size(); ++i)
            next();
        return true;
    }

    void
    skipWhitespace()
    {
        while (!atEnd()
               && std::isspace(static_cast<unsigned char>(peek()))) {
            next();
        }
    }

    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw ConfigError("XML parse error at line "
                          + std::to_string(line_) + ": " + message);
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
};

bool
isNameChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_'
        || c == '-' || c == ':' || c == '.';
}

std::string
parseName(Cursor &cur)
{
    std::string out;
    while (!cur.atEnd() && isNameChar(cur.peek()))
        out += cur.next();
    if (out.empty())
        cur.fail("expected a name");
    return out;
}

std::string
decodeEntities(Cursor &cur, const std::string &raw)
{
    std::string out;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] != '&') {
            out += raw[i];
            continue;
        }
        const auto semi = raw.find(';', i);
        if (semi == std::string::npos)
            cur.fail("unterminated character entity");
        const std::string ent = raw.substr(i + 1, semi - i - 1);
        if (ent == "amp")
            out += '&';
        else if (ent == "lt")
            out += '<';
        else if (ent == "gt")
            out += '>';
        else if (ent == "quot")
            out += '"';
        else if (ent == "apos")
            out += '\'';
        else
            cur.fail("unknown entity &" + ent + ";");
        i = semi;
    }
    return out;
}

void skipMisc(Cursor &cur);

/** An element inside `depth` open elements. */
XmlNode
parseElement(Cursor &cur, std::size_t depth)
{
    if (depth >= kMaxXmlDepth)
        cur.fail("elements nested deeper than "
                 + std::to_string(kMaxXmlDepth));
    if (!cur.consume("<"))
        cur.fail("expected '<'");
    XmlNode node;
    node.name = parseName(cur);

    // Attributes.
    for (;;) {
        cur.skipWhitespace();
        if (cur.consume("/>"))
            return node;
        if (cur.consume(">"))
            break;
        const std::string key = parseName(cur);
        cur.skipWhitespace();
        if (!cur.consume("="))
            cur.fail("expected '=' after attribute " + key);
        cur.skipWhitespace();
        const char quote = cur.next();
        if (quote != '"' && quote != '\'')
            cur.fail("expected quoted attribute value");
        std::string raw;
        while (!cur.atEnd() && cur.peek() != quote)
            raw += cur.next();
        if (!cur.consume(std::string_view(&quote, 1)))
            cur.fail("unterminated attribute value");
        if (node.attrs.count(key))
            cur.fail("duplicate attribute " + key);
        node.attrs[key] = decodeEntities(cur, raw);
    }

    // Content.
    for (;;) {
        if (cur.atEnd())
            cur.fail("unexpected end of input inside <" + node.name
                     + ">");
        if (cur.consume("<!--")) {
            while (!cur.atEnd() && !cur.consume("-->"))
                cur.next();
            continue;
        }
        if (cur.consume("</")) {
            const std::string close = parseName(cur);
            if (close != node.name)
                cur.fail("mismatched closing tag </" + close
                         + "> for <" + node.name + ">");
            cur.skipWhitespace();
            if (!cur.consume(">"))
                cur.fail("expected '>' in closing tag");
            return node;
        }
        if (cur.peek() == '<') {
            node.children.push_back(parseElement(cur, depth + 1));
            continue;
        }
        std::string raw;
        while (!cur.atEnd() && cur.peek() != '<')
            raw += cur.next();
        node.text += decodeEntities(cur, raw);
    }
}

/** Skip prolog, comments and whitespace between top-level items. */
void
skipMisc(Cursor &cur)
{
    for (;;) {
        cur.skipWhitespace();
        if (cur.consume("<?")) {
            while (!cur.atEnd() && !cur.consume("?>"))
                cur.next();
            continue;
        }
        if (cur.consume("<!--")) {
            while (!cur.atEnd() && !cur.consume("-->"))
                cur.next();
            continue;
        }
        return;
    }
}

} // namespace

XmlNode
parseXml(std::string_view text)
{
    Cursor cur(text);
    skipMisc(cur);
    if (cur.atEnd())
        cur.fail("no root element");
    XmlNode root = parseElement(cur, 0);
    skipMisc(cur);
    if (!cur.atEnd())
        cur.fail("content after root element");
    return root;
}

XmlNode
parseXmlFile(const std::string &path)
{
    std::ifstream f(path);
    requireConfig(f.good(), "cannot open XML file: " + path);
    std::ostringstream buf;
    buf << f.rdbuf();
    return parseXml(buf.str());
}

std::string
escapeXml(std::string_view text)
{
    std::string out;
    for (const char c : text) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        case '\'': out += "&apos;"; break;
        default: out += c; break;
        }
    }
    return out;
}

} // namespace isa
} // namespace emstress
