//! Fixture: lexer edge cases. Every policy-violating spelling below lives
//! inside a literal or a comment, next to a `Relaxed` that the
//! `atomic-ordering` rule flags in solver-crate source — if the lexer
//! mishandles any of the masking (raw strings, nested block comments, byte
//! strings, char literals vs lifetimes), a rule fires and the torture test
//! fails.

/* nested /* block /* comments */ nest */ and this `Ordering::Relaxed` is inert */

pub fn torture<'a>(name: &'a str) -> char {
    let plain = "a string with .unwrap() and x.load(Ordering::Relaxed) inside";
    let escaped = "escaped quote \" then Relaxed and .expect(\"still a string\") here";
    let raw = r"raw: partial_cmp(.unwrap()) Relaxed stays inert";
    let hashed = r#"hashed raw: "quoted Relaxed" HashMap::new() and panic!("no")"#;
    let nested_hash = r##"outer r#"inner"# still one literal: Ordering::Relaxed"##;
    let bytes = b"byte string with .unwrap() Relaxed bytes";
    let raw_bytes = br#"raw bytes: "y" Relaxed"#;
    let byte_char = b'\xff';
    let quote_char = '\'';
    let newline = '\n';
    let plain_char = 'q'; // a char literal, while `'a` above is a lifetime
    let _ = (plain, escaped, raw, hashed, nested_hash, bytes, raw_bytes);
    let _ = (byte_char, quote_char, newline, name);
    plain_char
}
