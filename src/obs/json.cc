#include "obs/json.hh"

#include <cctype>
#include <cstdio>
#include <istream>
#include <iterator>

#include "sim/logging.hh"

namespace vip
{
namespace json
{

namespace
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _s(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = value();
        skipWs();
        if (_pos != _s.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        fatal("JSON parse error at offset ", _pos, ": ", why);
    }

    void
    skipWs()
    {
        while (_pos < _s.size()
               && std::isspace(static_cast<unsigned char>(_s[_pos])))
            ++_pos;
    }

    char
    peek()
    {
        skipWs();
        if (_pos >= _s.size())
            fail("unexpected end of input");
        return _s[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + _s[_pos]
                 + "'");
        ++_pos;
    }

    JsonValue
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return stringValue();
          case 't': return literal("true", JsonValue::Kind::Bool, true);
          case 'f':
            return literal("false", JsonValue::Kind::Bool, false);
          case 'n': return literal("null", JsonValue::Kind::Null, false);
          default: return number();
        }
    }

    JsonValue
    literal(const char *word, JsonValue::Kind kind, bool b)
    {
        for (const char *p = word; *p; ++p, ++_pos)
            if (_pos >= _s.size() || _s[_pos] != *p)
                fail(std::string("bad literal, expected ") + word);
        JsonValue v;
        v.kind = kind;
        v.b = b;
        return v;
    }

    JsonValue
    number()
    {
        std::size_t start = _pos;
        while (_pos < _s.size()
               && (std::isdigit(static_cast<unsigned char>(_s[_pos]))
                   || _s[_pos] == '-' || _s[_pos] == '+'
                   || _s[_pos] == '.' || _s[_pos] == 'e'
                   || _s[_pos] == 'E'))
            ++_pos;
        if (_pos == start)
            fail("expected a number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        try {
            v.num = std::stod(_s.substr(start, _pos - start));
        } catch (const std::exception &) {
            fail("unparseable number '" + _s.substr(start, _pos - start)
                 + "'");
        }
        return v;
    }

    JsonValue
    stringValue()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.str = rawString();
        return v;
    }

    std::string
    rawString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                fail("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _s.size())
                fail("dangling escape");
            char e = _s[_pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (_pos + 4 > _s.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _s[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // ASCII only (our writers never emit more).
                out += static_cast<char>(code & 0x7f);
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            std::string key = rawString();
            expect(':');
            v.obj.emplace_back(std::move(key), value());
            if (peek() == ',') {
                ++_pos;
                skipWs();
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

} // namespace

JsonValue
parse(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

JsonValue
parse(std::istream &is)
{
    std::string text(std::istreambuf_iterator<char>(is), {});
    return parse(text);
}

std::string
strField(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::String ? v->str : "";
}

double
numField(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::Number ? v->num : 0.0;
}

std::string
quoted(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
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
    return out;
}

} // namespace json
} // namespace vip
