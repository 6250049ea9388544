// Token-level C++ source model for the audit tier's source passes
// (fault-taxonomy exhaustiveness, gate discipline, and the lint rules
// absorbed from scripts/lint.sh).
//
// The grep era's false positives all came from matching text the
// compiler never sees: `.data()` in a comment, a `getenv` named in a
// docstring, a throw inside a string literal. The lexer here produces a
// comment/string-aware token stream the passes scan.
//
// This is a lexer, not a parser: it does not expand macros or resolve
// templates. The passes are written so a misreading fails loud (a
// finding on clean code, caught by tests/test_audit.cpp's real-tree
// runs) rather than silently excusing a defect.
#pragma once

#include <string>
#include <vector>

namespace acsr::analysis {

enum class TokKind {
  kIdent,      ///< identifiers and keywords
  kNumber,     ///< numeric literals (digit separators included)
  kString,     ///< string literal; text holds the INNER content
  kChar,       ///< character literal; text holds the inner content
  kPunct,      ///< punctuation; "::" is one token, others single-char
  kDirective,  ///< whole `#...` preprocessor line (continuations joined)
  kComment,    ///< // or /* */ comment, full text
};

struct Token {
  TokKind kind{};
  std::string text;
  int line = 1;  ///< 1-based line of the token's first character
};

struct SourceFile {
  std::string path;  ///< repo-relative, e.g. "src/vgpu/fault.hpp"
  std::vector<Token> toks;
  std::vector<int> code;  ///< indices into toks of code tokens only

  bool is_header() const;
  const Token& ct(int code_pos) const { return toks[static_cast<std::size_t>(
      code[static_cast<std::size_t>(code_pos)])]; }
  int n_code() const { return static_cast<int>(code.size()); }
};

SourceFile lex_source(std::string path, const std::string& text);

/// The unit the source passes run over. Tests feed synthetic sets; the
/// CLI loads the real tree.
using SourceSet = std::vector<SourceFile>;

/// Every .hpp/.cpp under `<repo_root>/src`, lexed, in sorted path order.
SourceSet load_source_tree(const std::string& repo_root);

}  // namespace acsr::analysis
