// The one JSON codec for every artifact the repo writes or reads:
// BENCH_<name>.json (bench/support BenchJson), the REPRO_AUDIT JSONL
// (src/audit) and the REPRO_TRACE Chrome trace (src/obs) are written with
// quoted() / append_quoted() / append_number(), and tools/bench_diff and the
// tests read them back through parse(). Header-only and std-only, so obs
// (which sits below common) and the self-contained bench_diff include it
// without a link edge.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace repro::json {

// --- writer ------------------------------------------------------------------

/// Appends `s` as a JSON string literal, quotes included. `"` `\` and
/// newline/tab/CR get short escapes, every other byte below 0x20 becomes
/// \u00XX, and all remaining bytes (UTF-8 included) pass through verbatim.
inline void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

inline std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

/// Appends `v` as "%.9g" (round-trips every float exactly), formatted by
/// std::to_chars, which gives printf's bytes without its format parsing
/// and locale lookups. JSON has no NaN/Inf literal, so non-finite values
/// encode as null, which consumers treat as "metric absent".
inline void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 9)
          .ptr;
  out.append(buf, end);
}

/// Appends an integer in decimal.
template <std::integral T>
void append_integer(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline std::string number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

// --- reader ------------------------------------------------------------------

/// A top-level member's scalar value: the decoded string, or the literal
/// token of a number / true / false / null.
struct Scalar {
  enum class Kind : std::uint8_t { kString, kNumber, kLiteral };
  Kind kind = Kind::kLiteral;
  std::string text;
};

/// What the repo's consumers need from a parsed document: the top level's
/// scalar members (BenchJson is one flat object of them) and every decoded
/// string, keys included, in document order.
struct Document {
  std::map<std::string, Scalar> scalars;  ///< last duplicate key wins
  std::vector<std::string> strings;
  /// True when the top level is an object whose members are all scalars.
  bool flat = false;
};

namespace detail {

/// Recursive-descent validator for the full JSON grammar (RFC 8259).
struct Reader {
  std::string_view s;
  Document& doc;
  std::size_t i = 0;
  const char* what = nullptr;  // first failure

  static constexpr int kMaxDepth = 64;

  bool fail(const char* why) {
    if (what == nullptr) what = why;
    return false;
  }
  bool peek(char c) const { return i < s.size() && s[i] == c; }
  bool eat(char c) {
    if (!peek(c)) return false;
    ++i;
    return true;
  }
  void ws() {
    while (peek(' ') || peek('\n') || peek('\t') || peek('\r')) ++i;
  }
  bool digits() {
    const std::size_t begin = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > begin;
  }

  bool literal(std::string_view word, Scalar& out) {
    if (s.substr(i, word.size()) != word) return fail("invalid literal");
    i += word.size();
    out = {Scalar::Kind::kLiteral, std::string(word)};
    return true;
  }

  bool number(Scalar& out) {
    const std::size_t begin = i;
    eat('-');
    if (!eat('0') && !digits()) return fail("invalid number");
    if (eat('.') && !digits()) return fail("invalid number");
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return fail("invalid number");
    }
    out = {Scalar::Kind::kNumber, std::string(s.substr(begin, i - begin))};
    return true;
  }

  bool hex4(unsigned& code) {
    code = 0;
    for (int k = 0; k < 4; ++k, ++i) {
      const char h = i < s.size() ? s[i] : '\0';
      const int d = h >= '0' && h <= '9'   ? h - '0'
                    : h >= 'a' && h <= 'f' ? h - 'a' + 10
                    : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                           : -1;
      if (d < 0) return fail("invalid \\u escape");
      code = code << 4 | static_cast<unsigned>(d);
    }
    return true;
  }

  /// \uXXXX, or a surrogate pair of them, decodes to UTF-8.
  bool unicode_escape(std::string& out) {
    unsigned cp = 0;
    unsigned low = 0;
    if (!hex4(cp)) return false;
    if (cp >= 0xD800 && cp < 0xDC00 && s.substr(i, 2) == "\\u") {
      i += 2;
      if (!hex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("invalid surrogate pair");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out += static_cast<char>(kLead[tail] | cp >> (6 * tail));
    for (int k = tail - 1; k >= 0; --k) {
      out += static_cast<char>(0x80 | (cp >> (6 * k) & 0x3F));
    }
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return fail("expected string");
    out.clear();
    for (;;) {
      if (i >= s.size()) return fail("unterminated string");
      const auto c = static_cast<unsigned char>(s[i++]);
      if (c == '"') break;
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (i >= s.size()) return fail("unterminated string");
      switch (s[i++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!unicode_escape(out)) return false;
          break;
        default: return fail("invalid escape");
      }
    }
    doc.strings.push_back(out);
    return true;
  }

  bool value(int depth, Scalar& scalar) {
    if (i >= s.size()) return fail("expected value");
    switch (s[i]) {
      case '{':
      case '[': return container(depth);
      case '"':
        scalar.kind = Scalar::Kind::kString;
        return string(scalar.text);
      case 't': return literal("true", scalar);
      case 'f': return literal("false", scalar);
      case 'n': return literal("null", scalar);
      default: return number(scalar);
    }
  }

  /// An object or array; members of the depth-0 object land in `doc`.
  bool container(int depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    const bool object = s[i++] == '{';
    const char close = object ? '}' : ']';
    ws();
    if (eat(close)) return true;
    for (;;) {
      ws();
      std::string key;
      if (object) {
        if (!string(key)) return false;
        ws();
        if (!eat(':')) return fail("expected ':'");
        ws();
      }
      const bool nested = peek('{') || peek('[');
      Scalar scalar;
      if (!value(depth + 1, scalar)) return false;
      if (object && depth == 0) {
        if (nested) {
          doc.flat = false;
        } else {
          doc.scalars[key] = std::move(scalar);
        }
      }
      ws();
      if (eat(',')) continue;
      if (eat(close)) return true;
      return fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
    }
  }
};

}  // namespace detail

/// Parses `text` as exactly one JSON document (surrounding whitespace
/// allowed). On malformed input returns nullopt and, when `error` is
/// given, stores "<what> at byte <offset>".
inline std::optional<Document> parse(std::string_view text,
                                     std::string* error = nullptr) {
  Document doc;
  detail::Reader r{text, doc};
  r.ws();
  doc.flat = r.peek('{');
  Scalar top;
  bool ok = r.value(0, top);
  if (ok) {
    r.ws();
    if (r.i != text.size()) ok = r.fail("trailing characters");
  }
  if (ok) return doc;
  if (error != nullptr) {
    *error = std::string(r.what) + " at byte " + std::to_string(r.i);
  }
  return std::nullopt;
}

}  // namespace repro::json
