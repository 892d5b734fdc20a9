#include "config/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/logging.hh"

namespace bighouse {

bool
JsonValue::asBool() const
{
    if (!isBool())
        fatal("JSON value is not a boolean");
    return std::get<bool>(value);
}

double
JsonValue::asNumber() const
{
    if (!isNumber())
        fatal("JSON value is not a number");
    return std::get<double>(value);
}

const std::string&
JsonValue::asString() const
{
    if (!isString())
        fatal("JSON value is not a string");
    return std::get<std::string>(value);
}

const JsonValue::Array&
JsonValue::asArray() const
{
    if (!isArray())
        fatal("JSON value is not an array");
    return std::get<Array>(value);
}

const JsonValue::Object&
JsonValue::asObject() const
{
    if (!isObject())
        fatal("JSON value is not an object");
    return std::get<Object>(value);
}

JsonValue::Array&
JsonValue::asArray()
{
    if (!isArray())
        fatal("JSON value is not an array");
    return std::get<Array>(value);
}

JsonValue::Object&
JsonValue::asObject()
{
    if (!isObject())
        fatal("JSON value is not an object");
    return std::get<Object>(value);
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    const auto& obj = std::get<Object>(value);
    const auto it = obj.find(std::string(key));
    return it == obj.end() ? nullptr : &it->second;
}

namespace {

void
appendEscaped(std::string& out, const std::string& s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string& out, double d)
{
    if (d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        out += buf;
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        out += buf;
    }
}

void
appendIndent(std::string& out, int indent, int depth)
{
    if (indent > 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * depth, ' ');
    }
}

} // namespace

void
JsonValue::dumpTo(std::string& out, int indent, int depth) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += std::get<bool>(value) ? "true" : "false";
    } else if (isNumber()) {
        appendNumber(out, std::get<double>(value));
    } else if (isString()) {
        appendEscaped(out, std::get<std::string>(value));
    } else if (isArray()) {
        const auto& arr = std::get<Array>(value);
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out += indent > 0 ? "," : ",";
            appendIndent(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr.empty())
            appendIndent(out, indent, depth);
        out += ']';
    } else {
        const auto& obj = std::get<Object>(value);
        out += '{';
        bool first = true;
        for (const auto& [key, val] : obj) {
            if (!first)
                out += ',';
            first = false;
            appendIndent(out, indent, depth + 1);
            appendEscaped(out, key);
            out += indent > 0 ? ": " : ":";
            val.dumpTo(out, indent, depth + 1);
        }
        if (!obj.empty())
            appendIndent(out, indent, depth);
        out += '}';
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser with position tracking. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text(text) {}

    JsonParseResult
    parse()
    {
        JsonParseResult result;
        skipWhitespace();
        if (!parseValue(result.value)) {
            result.error = makeError();
            return result;
        }
        skipWhitespace();
        if (pos != text.size()) {
            message = "trailing characters after JSON document";
            result.error = makeError();
            return result;
        }
        result.ok = true;
        return result;
    }

  private:
    bool
    fail(const char* why)
    {
        if (message.empty())
            message = why;
        return false;
    }

    std::string
    makeError()
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream oss;
        oss << "line " << line << ", column " << col << ": "
            << (message.empty() ? "parse error" : message);
        return oss.str();
    }

    void
    skipWhitespace()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos;
            } else if (c == '/' && pos + 1 < text.size()
                       && text[pos + 1] == '/') {
                while (pos < text.size() && text[pos] != '\n')
                    ++pos;
            } else {
                break;
            }
        }
    }

    bool
    consume(char expected)
    {
        if (pos < text.size() && text[pos] == expected) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue& out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': return parseString(out);
          case 't': return parseLiteral("true", JsonValue(true), out);
          case 'f': return parseLiteral("false", JsonValue(false), out);
          case 'n': return parseLiteral("null", JsonValue(nullptr), out);
          default: return parseNumber(out);
        }
    }

    bool
    parseLiteral(std::string_view word, JsonValue value, JsonValue& out)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        out = std::move(value);
        return true;
    }

    bool
    parseNumber(JsonValue& out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool sawDigit = false;
        auto eatDigits = [&] {
            while (pos < text.size()
                   && std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
                sawDigit = true;
            }
        };
        eatDigits();
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            eatDigits();
        }
        if (sawDigit && pos < text.size()
            && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
                ++pos;
            const std::size_t expStart = pos;
            eatDigits();
            if (pos == expStart)
                return fail("malformed exponent");
        }
        if (!sawDigit) {
            pos = start;
            return fail("invalid number");
        }
        const std::string token(text.substr(start, pos - start));
        out = JsonValue(std::strtod(token.c_str(), nullptr));
        return true;
    }

    bool
    parseString(JsonValue& out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = JsonValue(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string& out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("unterminated escape");
                const char esc = text[pos++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad hex digit in \\u escape");
                    }
                    // Encode the BMP code point as UTF-8 (surrogate pairs
                    // are passed through as two 3-byte sequences).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default: return fail("unknown escape character");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue& out)
    {
        consume('[');
        JsonValue::Array arr;
        skipWhitespace();
        if (consume(']')) {
            out = JsonValue(std::move(arr));
            return true;
        }
        while (true) {
            JsonValue element;
            skipWhitespace();
            if (!parseValue(element))
                return false;
            arr.push_back(std::move(element));
            skipWhitespace();
            if (consume(']'))
                break;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
        out = JsonValue(std::move(arr));
        return true;
    }

    bool
    parseObject(JsonValue& out)
    {
        consume('{');
        JsonValue::Object obj;
        skipWhitespace();
        if (consume('}')) {
            out = JsonValue(std::move(obj));
            return true;
        }
        while (true) {
            skipWhitespace();
            std::string key;
            if (!parseRawString(key))
                return fail("expected object key string");
            skipWhitespace();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWhitespace();
            JsonValue val;
            if (!parseValue(val))
                return false;
            obj.emplace(std::move(key), std::move(val));
            skipWhitespace();
            if (consume('}'))
                break;
            if (!consume(','))
                return fail("expected ',' or '}' in object");
        }
        out = JsonValue(std::move(obj));
        return true;
    }

    std::string_view text;
    std::size_t pos = 0;
    std::string message;
};

} // namespace

void
jsonSetPath(JsonValue& root, std::string_view dottedPath, JsonValue value)
{
    if (dottedPath.empty())
        fatal("jsonSetPath needs a non-empty path");
    if (!root.isObject())
        fatal("jsonSetPath root must be an object");
    JsonValue* node = &root;
    std::string_view rest = dottedPath;
    while (true) {
        const std::size_t dot = rest.find('.');
        const std::string_view segment = rest.substr(0, dot);
        if (segment.empty())
            fatal("empty segment in config path '", std::string(dottedPath),
                  "'");
        JsonValue::Object& obj = node->asObject();
        if (dot == std::string_view::npos) {
            obj[std::string(segment)] = std::move(value);
            return;
        }
        JsonValue& child = obj[std::string(segment)];
        // A fresh map entry is null; promote it to an object. An existing
        // scalar here means the path contradicts the document shape.
        if (child.isNull())
            child = JsonValue(JsonValue::Object{});
        else if (!child.isObject())
            fatal("config path '", std::string(dottedPath),
                  "' traverses non-object segment '", std::string(segment),
                  "'");
        node = &child;
        rest = rest.substr(dot + 1);
    }
}

JsonParseResult
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

JsonValue
parseJsonFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file ", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonParseResult result = parseJson(buffer.str());
    if (!result.ok)
        fatal("JSON error in ", path, ": ", result.error);
    return std::move(result.value);
}

void
writeFileAtomic(const std::string& path, std::string_view text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            fatal("cannot open ", tmp, " for writing");
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        if (!out)
            fatal("write error on ", tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename ", tmp, " to ", path);
}

void
writeJsonFile(const std::string& path, const JsonValue& value)
{
    writeFileAtomic(path, value.dump(2) + "\n");
}

} // namespace bighouse
