//===- support/Json.h - Minimal JSON value, writer, parser ------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON library for the telemetry subsystem: the
/// stats/bench emitters build Value trees and serialize them; the schema
/// tests parse the emitted text back and validate it. Deliberately minimal:
///
/// * Objects keep their keys in sorted order (std::map), so serialization
///   is deterministic — the parallel-determinism tests diff emitted JSON
///   byte for byte.
/// * Numbers distinguish integers from doubles so counters round-trip
///   exactly; non-finite doubles refuse to serialize (the schema forbids
///   NaN/Inf) and fail parsing.
/// * The parser is a strict recursive-descent over the JSON grammar
///   (RFC 8259 minus \u escapes beyond Latin-1). rapd feeds it every request
///   line, so it takes hostile input: nesting deeper than MaxNesting and
///   integers outside int64 are parse errors, not a stack overflow or a
///   silently clamped value.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_JSON_H
#define RAP_SUPPORT_JSON_H

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rap {
namespace json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  Value(std::nullptr_t) : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), B(B) {}
  Value(int64_t I) : K(Kind::Int), I(I) {}
  Value(int I) : K(Kind::Int), I(I) {}
  Value(unsigned U) : K(Kind::Int), I(U) {}
  Value(uint64_t U) : K(Kind::Int), I(static_cast<int64_t>(U)) {}
  Value(double D) : K(Kind::Double), D(D) {}
  Value(const char *S) : K(Kind::String), S(S) {}
  Value(std::string S) : K(Kind::String), S(std::move(S)) {}
  Value(Array A) : K(Kind::Array), A(std::move(A)) {}
  Value(Object O) : K(Kind::Object), O(std::move(O)) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  int64_t asInt() const { return K == Kind::Double ? static_cast<int64_t>(D) : I; }
  double asDouble() const { return K == Kind::Int ? static_cast<double>(I) : D; }
  const std::string &asString() const { return S; }
  const Array &asArray() const { return A; }
  Array &asArray() { return A; }
  const Object &asObject() const { return O; }
  Object &asObject() { return O; }

  /// Object member access; returns a shared null for missing keys or
  /// non-objects, so lookups chain without crashing.
  const Value &operator[](const std::string &Key) const {
    static const Value Null;
    if (K != Kind::Object)
      return Null;
    auto It = O.find(Key);
    return It == O.end() ? Null : It->second;
  }
  bool has(const std::string &Key) const {
    return K == Kind::Object && O.count(Key) != 0;
  }

  /// Serializes the tree. \p Indent > 0 pretty-prints with that many spaces
  /// per level; 0 emits the compact form.
  std::string str(unsigned Indent = 0) const {
    std::string Out;
    write(Out, Indent, 0);
    return Out;
  }

private:
  static void escape(std::string &Out, const std::string &S) {
    Out += '"';
    for (char C : S) {
      switch (C) {
      case '"': Out += "\\\""; break;
      case '\\': Out += "\\\\"; break;
      case '\n': Out += "\\n"; break;
      case '\r': Out += "\\r"; break;
      case '\t': Out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          Out += Buf;
        } else {
          Out += C;
        }
      }
    }
    Out += '"';
  }

  void write(std::string &Out, unsigned Indent, unsigned Depth) const {
    auto Newline = [&](unsigned D) {
      if (Indent) {
        Out += '\n';
        Out.append(static_cast<size_t>(Indent) * D, ' ');
      }
    };
    switch (K) {
    case Kind::Null:
      Out += "null";
      break;
    case Kind::Bool:
      Out += B ? "true" : "false";
      break;
    case Kind::Int:
      Out += std::to_string(I);
      break;
    case Kind::Double: {
      // The schema forbids non-finite numbers; emit null so the validator
      // (which rejects null where a number is required) catches the bug
      // instead of producing invalid JSON.
      if (!std::isfinite(D)) {
        Out += "null";
        break;
      }
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.9g", D);
      Out += Buf;
      // Keep doubles recognizable as doubles on re-parse.
      if (Out.find_first_of(".eE", Out.size() - std::strlen(Buf)) ==
          std::string::npos)
        Out += ".0";
      break;
    }
    case Kind::String:
      escape(Out, S);
      break;
    case Kind::Array: {
      Out += '[';
      bool First = true;
      for (const Value &V : A) {
        if (!First)
          Out += ',';
        First = false;
        Newline(Depth + 1);
        V.write(Out, Indent, Depth + 1);
      }
      if (!A.empty())
        Newline(Depth);
      Out += ']';
      break;
    }
    case Kind::Object: {
      Out += '{';
      bool First = true;
      for (const auto &[Key, V] : O) {
        if (!First)
          Out += ',';
        First = false;
        Newline(Depth + 1);
        escape(Out, Key);
        Out += Indent ? ": " : ":";
        V.write(Out, Indent, Depth + 1);
      }
      if (!O.empty())
        Newline(Depth);
      Out += '}';
      break;
    }
    }
  }

  Kind K;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  Array A;
  Object O;
};

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

/// The deepest nesting of arrays and objects the parser accepts. It bounds
/// the parser's recursion, so a line of a million '[' fails to parse instead
/// of overflowing the stack. The deepest document the repository writes
/// nests about five levels.
inline constexpr unsigned MaxNesting = 64;

namespace detail {

struct Parser {
  const char *P, *End;
  std::string Error;
  /// Arrays and objects open around the current position.
  unsigned Depth = 0;

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }
  bool expect(char C) {
    skipWs();
    if (P == End || *P != C)
      return fail(std::string("expected '") + C + "'");
    ++P;
    return true;
  }
  bool literal(const char *Lit) {
    for (const char *L = Lit; *L; ++L, ++P)
      if (P == End || *P != *L)
        return fail(std::string("bad literal, expected ") + Lit);
    return true;
  }

  bool parseString(std::string &Out) {
    if (!expect('"'))
      return false;
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return fail("unterminated escape");
        switch (*P) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'n': Out += '\n'; break;
        case 'r': Out += '\r'; break;
        case 't': Out += '\t'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'u': {
          if (End - P < 5)
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int K = 1; K <= 4; ++K) {
            char C = P[K];
            Code <<= 4;
            if (C >= '0' && C <= '9')
              Code |= static_cast<unsigned>(C - '0');
            else if (C >= 'a' && C <= 'f')
              Code |= static_cast<unsigned>(C - 'a' + 10);
            else if (C >= 'A' && C <= 'F')
              Code |= static_cast<unsigned>(C - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          if (Code > 0xFF)
            return fail("\\u escape beyond Latin-1 unsupported");
          Out += static_cast<char>(Code);
          P += 4;
          break;
        }
        default:
          return fail("unknown escape");
        }
        ++P;
      } else {
        Out += *P++;
      }
    }
    if (P == End)
      return fail("unterminated string");
    ++P; // closing quote
    return true;
  }

  bool parseObject(Value &Out) {
    ++P; // '{'
    Object O;
    skipWs();
    if (P != End && *P == '}') {
      ++P;
      Out = Value(std::move(O));
      return true;
    }
    while (true) {
      std::string Key;
      if (!parseString(Key) || !expect(':'))
        return false;
      Value V;
      if (!parseValue(V))
        return false;
      O[Key] = std::move(V);
      skipWs();
      if (P != End && *P == ',') {
        ++P;
        skipWs();
        continue;
      }
      break;
    }
    if (!expect('}'))
      return false;
    Out = Value(std::move(O));
    return true;
  }

  bool parseArray(Value &Out) {
    ++P; // '['
    Array A;
    skipWs();
    if (P != End && *P == ']') {
      ++P;
      Out = Value(std::move(A));
      return true;
    }
    while (true) {
      Value V;
      if (!parseValue(V))
        return false;
      A.push_back(std::move(V));
      skipWs();
      if (P != End && *P == ',') {
        ++P;
        continue;
      }
      break;
    }
    if (!expect(']'))
      return false;
    Out = Value(std::move(A));
    return true;
  }

  bool parseValue(Value &Out) {
    skipWs();
    if (P == End)
      return fail("unexpected end of input");
    switch (*P) {
    case '{':
    case '[': {
      if (Depth == MaxNesting)
        return fail("nesting deeper than " + std::to_string(MaxNesting) +
                    " levels");
      ++Depth;
      const bool Ok = *P == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    case 't':
      if (!literal("true"))
        return false;
      Out = Value(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Value(false);
      return true;
    case 'n':
      if (!literal("null"))
        return false;
      Out = Value(nullptr);
      return true;
    default: {
      const char *Start = P;
      if (P != End && (*P == '-' || *P == '+'))
        ++P;
      bool IsDouble = false;
      while (P != End && ((*P >= '0' && *P <= '9') || *P == '.' ||
                          *P == 'e' || *P == 'E' || *P == '-' || *P == '+')) {
        IsDouble |= *P == '.' || *P == 'e' || *P == 'E';
        ++P;
      }
      if (P == Start)
        return fail("unexpected character");
      std::string Num(Start, P);
      if (IsDouble) {
        char *EndPtr = nullptr;
        double D = std::strtod(Num.c_str(), &EndPtr);
        if (EndPtr != Num.c_str() + Num.size() || !std::isfinite(D))
          return fail("bad number '" + Num + "'");
        Out = Value(D);
      } else {
        char *EndPtr = nullptr;
        errno = 0;
        long long I = std::strtoll(Num.c_str(), &EndPtr, 10);
        if (EndPtr != Num.c_str() + Num.size())
          return fail("bad number '" + Num + "'");
        if (errno == ERANGE) // strtoll would clamp it
          return fail("integer '" + Num + "' outside int64");
        Out = Value(static_cast<int64_t>(I));
      }
      return true;
    }
    }
  }
};

} // namespace detail

/// Parses \p Text into \p Out. On failure returns false and sets \p Error
/// (when provided) to a short description.
inline bool parse(const std::string &Text, Value &Out,
                  std::string *Error = nullptr) {
  detail::Parser P{Text.data(), Text.data() + Text.size(), {}};
  bool Ok = P.parseValue(Out);
  if (Ok) {
    P.skipWs();
    if (P.P != P.End) {
      Ok = false;
      P.Error = "trailing characters after JSON value";
    }
  }
  if (!Ok && Error)
    *Error = P.Error;
  return Ok;
}

} // namespace json
} // namespace rap

#endif // RAP_SUPPORT_JSON_H
