//! A minimal Rust lexer for the lint pass.
//!
//! The previous `awk`-based gate matched `debug_assert` anywhere in a line,
//! so a string literal or a doc comment *mentioning* `debug_assert!` tripped
//! it (and, worse, a real call on a line whose text happened to start with
//! `//` escaped it). This lexer understands just enough Rust to never make
//! that class of mistake:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments
//!   (`/* /* */ */`) are captured as *comment text*, per line — rules read
//!   them for `lint-ok(...)` annotations but never match code patterns
//!   inside them;
//! * string literals (`"..."` with escapes), byte strings (`b"..."`), raw
//!   strings (`r"..."`, `r#"..."#`, `br##"..."##`) and char/byte-char
//!   literals (`'x'`, `'\n'`, `b'\0'`) are skipped entirely;
//! * lifetimes (`'a`) are distinguished from char literals;
//! * raw identifiers (`r#match`) lex as identifiers.
//!
//! Everything else becomes a flat stream of [`Token`]s — identifier/number
//! atoms and single-character punctuation — tagged with 1-based line
//! numbers. That is all the rule pass needs; there is no parser.

/// One code token: an identifier/number atom or a single punctuation char.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text (`"debug_assert"`, `"as"`, `"{"`, ...).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Token {
    /// Whether the token is an identifier or keyword (starts with a letter
    /// or `_`), as opposed to punctuation or a numeric literal.
    pub fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
    }
}

/// Per-line metadata gathered while lexing.
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Concatenated text of every comment that touches this line.
    pub comment: String,
    /// Whether any code token (or literal) starts on this line.
    pub has_code: bool,
}

/// A lexed source file: the code token stream plus per-line comment info.
#[derive(Debug, Default)]
pub struct Scanned {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// Indexed by `line - 1`.
    pub lines: Vec<LineInfo>,
}

impl Scanned {
    /// The first code token on `line` (1-based), if any.
    pub fn first_token_on(&self, line: usize) -> Option<&Token> {
        let i = self.tokens.partition_point(|t| t.line < line);
        self.tokens.get(i).filter(|t| t.line == line)
    }
}

/// Lexes `src`. Never fails: unterminated literals or comments simply
/// consume the rest of the file (the compiler proper rejects such files
/// long before the lint gate matters).
pub fn scan(src: &str) -> Scanned {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Scanned,
    src_lines: usize,
}

impl Lexer {
    fn new(src: &str) -> Self {
        let src_lines = src.lines().count().max(1);
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            out: Scanned::default(),
            src_lines,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn line_info(&mut self, line: usize) -> &mut LineInfo {
        let idx = line - 1;
        if self.out.lines.len() <= idx {
            self.out.lines.resize(idx + 1, LineInfo::default());
        }
        &mut self.out.lines[idx]
    }

    fn mark_code(&mut self) {
        let line = self.line;
        self.line_info(line).has_code = true;
    }

    fn push_token(&mut self, text: String, line: usize) {
        self.line_info(line).has_code = true;
        self.out.tokens.push(Token { text, line });
    }

    fn run(mut self) -> Scanned {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' if self.raw_or_byte_prefix() => {}
                c if c.is_ascii_alphabetic() || c == '_' || c.is_ascii_digit() => self.atom(),
                c if c.is_whitespace() => {
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push_token(c.to_string(), line);
                }
            }
        }
        // Every source line gets an entry, comment-bearing or not.
        if self.out.lines.len() < self.src_lines {
            self.out.lines.resize(self.src_lines, LineInfo::default());
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.line_info(line).comment.push_str(&text);
        self.line_info(line).comment.push(' ');
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        let mut text = String::new();
        let mut line = self.line;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else if c == '\n' {
                self.line_info(line).comment.push_str(&text);
                self.line_info(line).comment.push(' ');
                text.clear();
                self.bump();
                line = self.line;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.line_info(line).comment.push_str(&text);
        self.line_info(line).comment.push(' ');
    }

    /// Handles `r#"..."#`, `r"..."`, `br"..."`, `b"..."`, `b'x'` and raw
    /// identifiers `r#ident`. Returns true when it consumed something.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let c0 = self.peek(0);
        let (skip, next) = match (c0, self.peek(1)) {
            (Some('b'), Some('r')) => (2, self.peek(2)),
            (Some('r') | Some('b'), n) => (1, n),
            _ => return false,
        };
        match next {
            Some('"') => {
                // b"..." or r"..." (zero hashes handled by raw reader too).
                self.mark_code();
                for _ in 0..skip {
                    self.bump();
                }
                if c0 == Some('r') || skip == 2 {
                    self.bump(); // opening quote — raw_string_body scans the body only
                    self.raw_string_body(0);
                } else {
                    self.string_literal();
                }
                true
            }
            Some('#') => {
                // Count hashes: raw string r##"…"## / br#"…"#, or raw ident r#name.
                let mut hashes = 0;
                while self.peek(skip + hashes) == Some('#') {
                    hashes += 1;
                }
                match self.peek(skip + hashes) {
                    Some('"') => {
                        self.mark_code();
                        for _ in 0..skip + hashes + 1 {
                            self.bump();
                        }
                        self.raw_string_body(hashes);
                        true
                    }
                    // Raw identifier r#match — only the r# form is legal.
                    Some(c)
                        if (c.is_ascii_alphabetic() || c == '_')
                            && c0 == Some('r')
                            && hashes == 1 =>
                    {
                        self.bump(); // r
                        self.bump(); // #
                        self.atom();
                        true
                    }
                    _ => false,
                }
            }
            Some('\'') if c0 == Some('b') && skip == 1 => {
                // Byte char literal b'x'.
                self.mark_code();
                self.bump(); // b
                self.char_or_lifetime();
                true
            }
            _ => false,
        }
    }

    /// Body of a raw string after the opening quote; terminated by `"` plus
    /// `hashes` `#` characters.
    fn raw_string_body(&mut self, hashes: usize) {
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut n = 0;
                while n < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    n += 1;
                }
                if n == hashes {
                    return;
                }
            }
        }
    }

    fn string_literal(&mut self) {
        self.mark_code();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => return,
                _ => {}
            }
        }
    }

    /// Disambiguates `'a'` / `'\n'` (char literals) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) {
        self.mark_code();
        self.bump(); // '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape then to closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
            }
            Some(c) if self.peek(1) == Some('\'') => {
                let _ = c;
                self.bump();
                self.bump();
            }
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                // Lifetime: consume the identifier, emit no token.
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            _ => {}
        }
    }

    fn atom(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_are_not_code() {
        let s = scan("// debug_assert!(x)\nlet y = 1;\n");
        assert!(!s.tokens.iter().any(|t| t.text == "debug_assert"));
        assert!(s.lines[0].comment.contains("debug_assert"));
        assert!(!s.lines[0].has_code);
        assert!(s.lines[1].has_code);
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* debug_assert */ still comment */ fn f() {}");
        assert_eq!(
            s.tokens.iter().map(|t| &t.text[..]).collect::<Vec<_>>(),
            vec!["fn", "f", "(", ")", "{", "}"]
        );
        assert!(s.lines[0].comment.contains("debug_assert"));
    }

    #[test]
    fn strings_are_skipped() {
        assert!(!words(r#"let m = "debug_assert! as u32";"#)
            .iter()
            .any(|w| w == "debug_assert" || w == "u32"));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let w = words(r##"let x = r#"as u32 "quoted""#; r#match"##);
        assert!(!w.iter().any(|t| t == "u32"));
        assert!(w.iter().any(|t| t == "match"));
    }

    #[test]
    fn byte_and_char_literals_vs_lifetimes() {
        let w = words("fn f<'a>(x: &'a u8) { let c = 'z'; let b = b'\\n'; let q = '\\''; }");
        assert!(!w.iter().any(|t| t == "z")); // char literal contents lex away
        assert!(w.iter().any(|t| t == "u8"));
        // The lifetime 'a never becomes an `a` identifier token.
        assert_eq!(w.iter().filter(|t| *t == "a").count(), 0);
    }

    #[test]
    fn multiline_block_comment_marks_every_line() {
        let s = scan("/* one\n two lint-ok(lock-order): reason\n three */\ncode();");
        assert!(s.lines[1].comment.contains("lint-ok(lock-order)"));
        assert!(!s.lines[1].has_code);
        assert!(s.lines[3].has_code);
    }

    #[test]
    fn tokens_carry_lines() {
        let s = scan("let a = 1;\nlet b = a as u32;\n");
        let as_tok = s.tokens.iter().find(|t| t.text == "as").unwrap();
        assert_eq!(as_tok.line, 2);
        assert_eq!(s.first_token_on(2).unwrap().text, "let");
    }

    #[test]
    fn trailing_comment_line_still_has_code() {
        let s = scan("call(); // lint-ok(atomic-ordering): reason\n");
        assert!(s.lines[0].has_code);
        assert!(s.lines[0].comment.contains("lint-ok(atomic-ordering)"));
    }
}
