#include "analysis/source_model.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace acsr::analysis {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

struct Lexer {
  const std::string& s;
  std::size_t i = 0;
  int line = 1;
  std::vector<Token> out;

  bool done() const { return i >= s.size(); }
  char cur() const { return s[i]; }
  char peek(std::size_t k = 1) const {
    return i + k < s.size() ? s[i + k] : '\0';
  }
  void adv() {
    if (s[i] == '\n') ++line;
    ++i;
  }
  void emit(TokKind k, std::string text, int at) {
    out.push_back({k, std::move(text), at});
  }

  void line_comment() {
    const int at = line;
    std::string t;
    while (!done() && cur() != '\n') {
      t += cur();
      adv();
    }
    emit(TokKind::kComment, std::move(t), at);
  }

  void block_comment() {
    const int at = line;
    std::string t = "/*";
    adv();
    adv();
    while (!done()) {
      if (cur() == '*' && peek() == '/') {
        adv();
        adv();
        t += "*/";
        break;
      }
      t += cur();
      adv();
    }
    emit(TokKind::kComment, std::move(t), at);
  }

  /// `#...` to end of line, honoring backslash continuations.
  void directive() {
    const int at = line;
    std::string t;
    while (!done()) {
      if (cur() == '\\' && peek() == '\n') {
        adv();
        adv();
        t += ' ';
        continue;
      }
      if (cur() == '\n') break;
      t += cur();
      adv();
    }
    emit(TokKind::kDirective, std::move(t), at);
  }

  /// Inner content of a quoted literal (escapes kept verbatim).
  void quoted(char q, TokKind kind) {
    const int at = line;
    std::string t;
    adv();  // opening quote
    while (!done() && cur() != q) {
      if (cur() == '\\') {
        t += cur();
        adv();
        if (done()) break;
      }
      t += cur();
      adv();
    }
    if (!done()) adv();  // closing quote
    emit(kind, std::move(t), at);
  }

  void raw_string() {
    // R"delim( ... )delim"
    const int at = line;
    adv();  // "
    std::string delim;
    while (!done() && cur() != '(') {
      delim += cur();
      adv();
    }
    if (!done()) adv();  // (
    const std::string close = ")" + delim + "\"";
    std::string t;
    while (!done()) {
      if (cur() == ')' && s.compare(i, close.size(), close) == 0) {
        for (std::size_t k = 0; k < close.size(); ++k) adv();
        break;
      }
      t += cur();
      adv();
    }
    emit(TokKind::kString, std::move(t), at);
  }

  void number() {
    const int at = line;
    std::string t;
    while (!done()) {
      const char c = cur();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          (c == '\'' && ident_char(peek())) ||
          ((c == '+' || c == '-') && !t.empty() &&
           (t.back() == 'e' || t.back() == 'E' || t.back() == 'p' ||
            t.back() == 'P'))) {
        t += c;
        adv();
      } else {
        break;
      }
    }
    emit(TokKind::kNumber, std::move(t), at);
  }

  void run() {
    bool at_line_start = true;
    while (!done()) {
      const char c = cur();
      if (c == '\n') {
        at_line_start = true;
        adv();
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        adv();
        continue;
      }
      if (c == '/' && peek() == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek() == '*') {
        block_comment();
        continue;
      }
      if (c == '#' && at_line_start) {
        directive();
        continue;
      }
      at_line_start = false;
      if (ident_start(c)) {
        const int at = line;
        std::string t;
        while (!done() && ident_char(cur())) {
          t += cur();
          adv();
        }
        // Raw / prefixed string literals: R"..", u8"..", LR".." etc.
        if (!done() && cur() == '"' && !t.empty() && t.back() == 'R' &&
            (t == "R" || t == "LR" || t == "uR" || t == "UR" || t == "u8R")) {
          raw_string();
          continue;
        }
        if (!done() && cur() == '"' &&
            (t == "u8" || t == "u" || t == "U" || t == "L")) {
          quoted('"', TokKind::kString);
          continue;
        }
        emit(TokKind::kIdent, std::move(t), at);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && std::isdigit(static_cast<unsigned char>(peek())))) {
        number();
        continue;
      }
      if (c == '"') {
        quoted('"', TokKind::kString);
        continue;
      }
      if (c == '\'') {
        quoted('\'', TokKind::kChar);
        continue;
      }
      // Punctuation; only "::" is fused (qualifier detection needs it).
      const int at = line;
      if (c == ':' && peek() == ':') {
        adv();
        adv();
        emit(TokKind::kPunct, "::", at);
        continue;
      }
      adv();
      emit(TokKind::kPunct, std::string(1, c), at);
    }
  }
};

bool is_code(TokKind k) {
  return k != TokKind::kComment && k != TokKind::kDirective;
}

}  // namespace

bool SourceFile::is_header() const {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

SourceFile lex_source(std::string path, const std::string& text) {
  SourceFile f;
  f.path = std::move(path);
  Lexer lx{text, 0, 1, {}};
  lx.run();
  f.toks = std::move(lx.out);
  for (std::size_t t = 0; t < f.toks.size(); ++t)
    if (is_code(f.toks[t].kind)) f.code.push_back(static_cast<int>(t));
  return f;
}

SourceSet load_source_tree(const std::string& repo_root) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(repo_root) / "src";
  ACSR_REQUIRE(fs::is_directory(src),
               "audit: no src/ under '" << repo_root << "'");
  std::vector<fs::path> paths;
  for (const auto& e : fs::recursive_directory_iterator(src)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  SourceSet set;
  for (const fs::path& p : paths) {
    std::ifstream in(p, std::ios::binary);
    ACSR_REQUIRE(in.good(), "audit: cannot read " << p.string());
    std::ostringstream body;
    body << in.rdbuf();
    const std::string rel =
        fs::relative(p, fs::path(repo_root)).generic_string();
    set.push_back(lex_source(rel, body.str()));
  }
  return set;
}

}  // namespace acsr::analysis
