//! The syntax pass: a dependency-free recursive-descent parser over the
//! lexer's token stream.
//!
//! The concurrency rule pack needs more structure than the flat token
//! stream: *which function* a lock is acquired
//! in (to scope guard lifetimes), *which functions call which* (to compute
//! socket-reachability in `sr-serve`), and *which call a closure is an
//! argument of* (to scope the parallel-determinism hazards). This module
//! recovers exactly that much Rust: items (`fn`, `mod`, `impl`, `trait`,
//! `struct`, `enum`, …) with their attributes, names, signature and body
//! token ranges, nested to arbitrary depth. It is **not** an expression
//! grammar — statement- and expression-level structure stays a flat token
//! slice that the rules walk with brace counting.
//!
//! Robustness contract: [`parse`] never panics and always terminates, on
//! *any* token stream the lexer can produce — including the token soup the
//! lexer makes of invalid Rust (the scan→parse proptest pins this). Parsing
//! is best-effort: a construct the parser does not understand is skipped
//! token-by-token, which can only *shrink* the item list, never corrupt a
//! recovered item's ranges. Rules must therefore treat "no enclosing fn" as
//! "out of scope", not as an error.

use crate::lexer::{Scanned, Token};

/// What kind of item a [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(..) {..}` — free function or method (inside an impl/trait).
    Fn,
    /// `mod name {..}` (inline only; `mod name;` has no body to scope).
    Mod,
    /// `impl Type {..}` / `impl Trait for Type {..}`.
    Impl,
    /// `trait Name {..}`.
    Trait,
    /// `struct` / `enum` / `union` — carried for completeness; bodies hold
    /// no nested items the rules care about.
    TypeDef,
}

/// One recovered item. Token positions index into the [`Scanned`] stream
/// the item was parsed from.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Item name (`f` for `fn f`, the type head text for `impl`). Empty
    /// when the parser could not recover one.
    pub name: String,
    /// Attribute texts on the item, flattened: `#[cfg(test)]` becomes
    /// `"cfg ( test )"`.
    pub attrs: Vec<String>,
    /// Token range of the signature / header: from the introducing keyword
    /// up to (not including) the body's `{`.
    pub sig: std::ops::Range<usize>,
    /// Token range of the body including both braces; empty range (at the
    /// terminating token) for braceless items (`mod m;`, `struct S;`).
    pub body: std::ops::Range<usize>,
    /// 1-based source lines the item spans (keyword line through closing
    /// brace line).
    pub lines: std::ops::RangeInclusive<usize>,
    /// Items nested inside the body (fns in impls, anything in mods, and
    /// nested fns inside fn bodies).
    pub children: Vec<Item>,
}

impl Item {
    /// This item and every descendant, depth-first.
    fn walk<'a>(&'a self, out: &mut Vec<&'a Item>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// Parse result: the item tree of one source file.
#[derive(Debug, Default)]
pub struct Syntax {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Syntax {
    /// Every item in the tree, depth-first, source order.
    pub fn all_items(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        for i in &self.items {
            i.walk(&mut out);
        }
        out
    }

    /// Every `fn` item in the tree (including methods and nested fns),
    /// depth-first.
    pub fn fns(&self) -> Vec<&Item> {
        self.all_items()
            .into_iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .collect()
    }
}

/// Parses the token stream into an item tree. Never panics, always
/// terminates; see the module docs for the best-effort contract.
pub fn parse(scanned: &Scanned) -> Syntax {
    let tokens = &scanned.tokens;
    let mut items = Vec::new();
    parse_items(tokens, 0, tokens.len(), &mut items);
    Syntax { items }
}

/// Keywords that introduce the items the rules care about.
fn is_item_keyword(t: &str) -> bool {
    matches!(
        t,
        "fn" | "mod" | "impl" | "trait" | "struct" | "enum" | "union"
    )
}

/// Parses items from `tokens[start..end]` into `out`. Every loop iteration
/// advances the cursor by at least one token, which bounds the recursion
/// (depth ≤ nesting of recovered items) and guarantees termination.
fn parse_items(tokens: &[Token], start: usize, end: usize, out: &mut Vec<Item>) {
    let end = end.min(tokens.len());
    let mut i = start;
    let mut attrs: Vec<String> = Vec::new();
    while i < end {
        let t = tokens[i].text.as_str();
        match t {
            "#" => {
                let (attr, next) = parse_attr(tokens, i, end);
                if let Some(text) = attr {
                    attrs.push(text);
                } else {
                    attrs.clear();
                }
                i = next;
            }
            // Visibility and modifiers that may precede an item keyword are
            // skipped so the keyword dispatch below sees them adjacent.
            "pub" => {
                i += 1;
                // `pub(crate)` / `pub(in path)`.
                if at(tokens, i, end) == Some("(") {
                    i = skip_balanced(tokens, i, end, "(", ")");
                }
            }
            "const" | "async" | "unsafe" | "extern" | "default" => {
                // Only a modifier when an item keyword follows (possibly
                // after further modifiers); `const X: u8 = 1;` is handled by
                // the fall-through skip. Either way: advance one token.
                i += 1;
            }
            _ if is_item_keyword(t) => {
                let (item, next) = parse_item(tokens, i, end, std::mem::take(&mut attrs));
                if let Some(item) = item {
                    out.push(item);
                }
                i = next.max(i + 1);
            }
            // `union` is contextual and `macro_rules` etc. are opaque; any
            // token that is not an item introduction just moves the cursor.
            _ => {
                attrs.clear();
                i += 1;
            }
        }
    }
}

/// The token text at `i`, if `i < end`.
fn at(tokens: &[Token], i: usize, end: usize) -> Option<&str> {
    if i < end {
        tokens.get(i).map(|t| t.text.as_str())
    } else {
        None
    }
}

/// Parses `#[...]` / `#![...]` starting at the `#` in `tokens[i]`. Returns
/// the flattened attribute text (None for inner attributes, which never
/// attach to the *next* item) and the index just past the `]`.
fn parse_attr(tokens: &[Token], i: usize, end: usize) -> (Option<String>, usize) {
    let mut j = i + 1;
    let inner = at(tokens, j, end) == Some("!");
    if inner {
        j += 1;
    }
    if at(tokens, j, end) != Some("[") {
        return (None, i + 1);
    }
    let close = skip_balanced(tokens, j, end, "[", "]");
    let text = tokens[j + 1..close.saturating_sub(1).max(j + 1)]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    (if inner { None } else { Some(text) }, close)
}

/// Skips a balanced `open`..`close` region whose `open` is at `tokens[i]`;
/// returns the index just past the matching `close` (or `end` when
/// unterminated). If `tokens[i]` is not `open`, returns `i + 1`.
pub(crate) fn skip_balanced(
    tokens: &[Token],
    i: usize,
    end: usize,
    open: &str,
    close: &str,
) -> usize {
    if at(tokens, i, end) != Some(open) {
        return i + 1;
    }
    let mut depth = 0usize;
    let mut j = i;
    while j < end {
        let t = tokens[j].text.as_str();
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Parses one item whose introducing keyword is at `tokens[i]`. Returns the
/// item (None when unrecoverable) and the index to continue from.
fn parse_item(tokens: &[Token], i: usize, end: usize, attrs: Vec<String>) -> (Option<Item>, usize) {
    let kw = tokens[i].text.as_str();
    let kind = match kw {
        "fn" => ItemKind::Fn,
        "mod" => ItemKind::Mod,
        "impl" => ItemKind::Impl,
        "trait" => ItemKind::Trait,
        _ => ItemKind::TypeDef,
    };
    // Name: first word token after the keyword (after generics for impl,
    // the head type name is close enough for diagnostics).
    let mut name = String::new();
    let mut j = i + 1;
    // `impl<T> Type` — skip the generic parameter list before the head.
    if at(tokens, j, end) == Some("<") {
        j = skip_angles(tokens, j, end);
    }
    if let Some(t) = tokens.get(j) {
        if j < end && t.is_word() {
            name = t.text.clone();
        }
    }
    // Scan forward to the body `{` or the terminating `;`, skipping any
    // balanced (), [], <> groups the signature contains. Angle depth is
    // clamped so a stray `>` (e.g. `->`) cannot wedge the scan.
    let mut angle: usize = 0;
    while j < end {
        match tokens[j].text.as_str() {
            "(" => {
                j = skip_balanced(tokens, j, end, "(", ")");
                continue;
            }
            "[" => {
                j = skip_balanced(tokens, j, end, "[", "]");
                continue;
            }
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            ";" if angle == 0 => {
                let item = Item {
                    kind,
                    name,
                    attrs,
                    sig: i..j,
                    body: j..j,
                    lines: tokens[i].line..=tokens[j].line,
                    children: Vec::new(),
                };
                return (Some(item), j + 1);
            }
            "{" if angle == 0 => {
                let body_close = skip_balanced(tokens, j, end, "{", "}");
                let mut children = Vec::new();
                // Recurse into bodies that can contain items. Fn bodies can
                // too (nested fns, local mods); TypeDef bodies are fields /
                // variants and are deliberately not descended into.
                if kind != ItemKind::TypeDef {
                    parse_items(tokens, j + 1, body_close.saturating_sub(1), &mut children);
                }
                let last = body_close.saturating_sub(1).max(j);
                let item = Item {
                    kind,
                    name,
                    attrs,
                    sig: i..j,
                    body: j..body_close,
                    lines: tokens[i].line..=tokens[last].line,
                    children,
                };
                return (Some(item), body_close);
            }
            _ => {}
        }
        j += 1;
    }
    (None, end)
}

/// Skips a generic parameter list whose `<` is at `tokens[i]`, tolerating
/// nested `<>` and stopping at `end`.
fn skip_angles(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < end {
        match tokens[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            // A generic list never contains these; bail out rather than
            // swallow the rest of the file on a stray `<`.
            "{" | ";" => return i + 1,
            _ => {}
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse_src(src: &str) -> Syntax {
        parse(&scan(src))
    }

    #[test]
    fn recovers_top_level_fns_with_lines() {
        let s = parse_src(
            "fn a() { let x = 1; }\n\nfn b(v: &mut Vec<u8>) -> usize {\n    v.len()\n}\n",
        );
        let names: Vec<_> = s.fns().iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(s.items[0].lines, 1..=1);
        assert_eq!(s.items[1].lines, 3..=5);
    }

    #[test]
    fn methods_inside_impl_blocks_are_nested() {
        let s =
            parse_src("struct S;\nimpl S {\n    pub fn m(&self) {}\n    fn n() -> u8 { 0 }\n}\n");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.items[1].kind, ItemKind::Impl);
        assert_eq!(s.items[1].name, "S");
        let fns: Vec<_> = s.fns().iter().map(|f| f.name.clone()).collect();
        assert_eq!(fns, ["m", "n"]);
    }

    #[test]
    fn attrs_attach_to_the_following_item() {
        let s = parse_src("#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\n");
        assert_eq!(s.items[0].kind, ItemKind::Mod);
        assert_eq!(s.items[0].attrs, ["cfg ( test )", "allow ( dead_code )"]);
        assert_eq!(s.items[0].children.len(), 1);
    }

    #[test]
    fn generic_impls_and_where_clauses_parse() {
        let s = parse_src(
            "impl<T: Clone + Send> Wrapper<T>\nwhere\n    T: std::fmt::Debug,\n{\n    fn get(&self) -> &T { &self.0 }\n}\n",
        );
        assert_eq!(s.items[0].kind, ItemKind::Impl);
        assert_eq!(s.items[0].name, "Wrapper");
        assert_eq!(s.fns()[0].name, "get");
    }

    #[test]
    fn fn_signature_range_excludes_body() {
        let src = "fn f(a: usize, b: &[u8]) -> Result<(), String> { Ok(()) }";
        let scanned = scan(src);
        let s = parse(&scanned);
        let f = &s.items[0];
        assert_eq!(scanned.tokens[f.sig.start].text, "fn");
        assert_eq!(scanned.tokens[f.body.start].text, "{");
        assert_eq!(scanned.tokens[f.body.end - 1].text, "}");
    }

    #[test]
    fn braceless_items_and_type_defs() {
        let s = parse_src("mod other;\nstruct P(u8);\nenum E { A, B }\npub union U { f: u32 }\n");
        assert_eq!(s.items.len(), 4);
        assert!(s.items.iter().all(|i| i.children.is_empty()));
        assert_eq!(s.items[0].body.len(), 0);
    }

    #[test]
    fn nested_fns_inside_fn_bodies_are_found() {
        let s = parse_src("fn outer() {\n    fn inner(x: u8) -> u8 { x }\n    inner(1);\n}\n");
        let names: Vec<_> = s.fns().iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn closures_and_angle_noise_do_not_derail() {
        // `a < b` comparisons and `->` arrows inside bodies must not be
        // mistaken for generics; the next item must still be recovered.
        let s = parse_src("fn cmp(a: usize, b: usize) -> bool { a < b && b > 1 }\nfn next() {}\n");
        let names: Vec<_> = s.fns().iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, ["cmp", "next"]);
    }

    #[test]
    fn unterminated_body_is_tolerated() {
        let s = parse_src("fn broken() { let x = 1;");
        assert_eq!(s.fns().len(), 1);
        let s2 = parse_src("impl X { fn a(");
        assert!(s2.all_items().len() <= 2, "best-effort, no panic");
    }

    #[test]
    fn trait_items_nest() {
        let s = parse_src(
            "trait T {\n    fn required(&self);\n    fn provided(&self) -> u8 { 1 }\n}\n",
        );
        assert_eq!(s.items[0].kind, ItemKind::Trait);
        let fns: Vec<_> = s.fns().iter().map(|f| f.name.clone()).collect();
        assert_eq!(fns, ["required", "provided"]);
    }
}
