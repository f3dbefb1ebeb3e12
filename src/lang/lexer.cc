#include "lang/lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_set>

namespace lima {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool IsKeyword(const std::string& word) {
  static const std::unordered_set<std::string>* kKeywords =
      new std::unordered_set<std::string>{"if",     "else",   "for",
                                          "parfor", "while",  "in",
                                          "function", "return", "TRUE",
                                          "FALSE"};
  return kKeywords->count(word) > 0;
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& source) {
  std::vector<Token> tokens;
  size_t i = 0;
  int line = 1;
  int column = 1;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n && i < source.size(); ++k, ++i) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
  };

  while (i < source.size()) {
    char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (c == '#') {
      while (i < source.size() && source[i] != '\n') advance(1);
      continue;
    }

    Token token;
    token.line = line;
    token.column = column;

    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < source.size() && IsIdentChar(source[i])) advance(1);
      token.text = source.substr(start, i - start);
      token.kind = IsKeyword(token.text) ? TokenKind::kKeyword
                                         : TokenKind::kIdentifier;
      tokens.push_back(std::move(token));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < source.size() &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      size_t start = i;
      bool is_int = true;
      while (i < source.size() &&
             std::isdigit(static_cast<unsigned char>(source[i]))) {
        advance(1);
      }
      if (i < source.size() && source[i] == '.') {
        // Distinguish "1.5" from identifier-like usage; digits must follow.
        is_int = false;
        advance(1);
        while (i < source.size() &&
               std::isdigit(static_cast<unsigned char>(source[i]))) {
          advance(1);
        }
      }
      if (i < source.size() && (source[i] == 'e' || source[i] == 'E')) {
        size_t save = i;
        advance(1);
        if (i < source.size() && (source[i] == '+' || source[i] == '-')) {
          advance(1);
        }
        if (i < source.size() &&
            std::isdigit(static_cast<unsigned char>(source[i]))) {
          is_int = false;
          while (i < source.size() &&
                 std::isdigit(static_cast<unsigned char>(source[i]))) {
            advance(1);
          }
        } else {
          i = save;  // Not an exponent after all.
        }
      }
      token.kind = TokenKind::kNumber;
      token.text = source.substr(start, i - start);
      // strtod never throws: out of range, 1e400 reads as Inf and 1e-400
      // as 0, the values Java's Double.parseDouble and R give.
      token.number = std::strtod(token.text.c_str(), nullptr);
      token.is_int = is_int;
      tokens.push_back(std::move(token));
      continue;
    }

    if (c == '"' || c == '\'') {
      char quote = c;
      advance(1);
      std::string value;
      bool closed = false;
      while (i < source.size()) {
        char d = source[i];
        if (d == '\\' && i + 1 < source.size()) {
          char e = source[i + 1];
          switch (e) {
            case 'n':
              value += '\n';
              break;
            case 't':
              value += '\t';
              break;
            default:
              value += e;
          }
          advance(2);
          continue;
        }
        if (d == quote) {
          advance(1);
          closed = true;
          break;
        }
        value += d;
        advance(1);
      }
      if (!closed) {
        return Status::ParseError("unterminated string at line " +
                                  std::to_string(token.line));
      }
      token.kind = TokenKind::kString;
      token.text = std::move(value);
      tokens.push_back(std::move(token));
      continue;
    }

    // Operators.
    auto make_op = [&](const std::string& text) {
      token.kind = TokenKind::kOperator;
      token.text = text;
      advance(text.size());
      tokens.push_back(token);
    };
    if (c == '%' && source.compare(i, 3, "%*%") == 0) {
      make_op("%*%");
      continue;
    }
    if (c == '%' && source.compare(i, 3, "%/%") == 0) {
      make_op("%/%");
      continue;
    }
    if (c == '%' && source.compare(i, 2, "%%") == 0) {
      make_op("%%");
      continue;
    }
    if (source.compare(i, 2, "==") == 0 || source.compare(i, 2, "!=") == 0 ||
        source.compare(i, 2, "<=") == 0 || source.compare(i, 2, ">=") == 0 ||
        source.compare(i, 2, "&&") == 0 || source.compare(i, 2, "||") == 0 ||
        source.compare(i, 2, "<-") == 0) {
      std::string two = source.substr(i, 2);
      if (two == "&&") two = "&";
      if (two == "||") two = "|";
      if (two == "<-") two = "=";
      token.kind = TokenKind::kOperator;
      token.text = two;
      advance(2);
      tokens.push_back(token);
      continue;
    }
    if (std::string("+-*/^=<>!&|:,;()[]{}").find(c) != std::string::npos) {
      make_op(std::string(1, c));
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at line " + std::to_string(line));
  }

  Token eof;
  eof.kind = TokenKind::kEndOfFile;
  eof.line = line;
  eof.column = column;
  tokens.push_back(std::move(eof));
  return tokens;
}

}  // namespace lima
