//! A recursive-descent item/expression parser over the lexed token stream.
//!
//! The lexer ([`crate::lexer`]) guarantees we never misread *what is code*;
//! this module recovers enough structure from that code for the semantic
//! rules: the item tree (functions, structs, enums, impls, modules, traits,
//! use declarations, macro invocations), struct/enum field lists with
//! rendered type text, expanded use-trees, and `#[derive(...)]` /
//! test-region attributes. Function bodies are kept as token ranges — the
//! passes that look inside them (panic sites, call sites) scan tokens
//! directly, which is all the fidelity they need.
//!
//! The parser is tolerant: unknown constructs become [`ItemKind::Other`]
//! items one token wide, so item spans always tile the file (the
//! round-trip property `crates/lint/tests/parser_roundtrip.rs` checks).
//! It only fails on structurally broken input (an unclosed delimiter).

use crate::lexer::{LexedFile, Tok, TokKind};

/// What kind of item a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or associated).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `impl` block (children are its associated items).
    Impl,
    /// `mod` with a body (children are its items).
    Mod,
    /// `trait` definition.
    Trait,
    /// `use` declaration (see [`Item::imports`]).
    Use,
    /// A macro *invocation* in item position (`name! { … }`).
    MacroInvocation,
    /// A `macro_rules!` *definition* (body deliberately not item-parsed).
    MacroDef,
    /// `const` / `static` / `type` / `extern crate` / anything else the
    /// parser recognizes enough to skip as a unit.
    Other,
}

/// One field of a struct or enum-struct variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field name; `None` for tuple positions.
    pub name: Option<String>,
    /// Canonically rendered type text (see [`render_tokens`]).
    pub ty: String,
    /// 1-based source line.
    pub line: usize,
}

/// One enum variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// Payload fields (empty for unit variants).
    pub fields: Vec<Field>,
    /// True for `Name(T, U)`, false for `Name { f: T }` / unit.
    pub tuple: bool,
    /// 1-based source line.
    pub line: usize,
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Declared name (`None` for impls — see `impl_ty` — and `Other`).
    pub name: Option<String>,
    /// For [`ItemKind::Impl`]: the rendered self type (after any `for`).
    pub impl_ty: Option<String>,
    /// 1-based line of the first token.
    pub line: usize,
    /// Traits named in `#[derive(...)]` attributes on this item.
    pub derives: Vec<String>,
    /// True under `#[test]` / `#[cfg(test)]` (inherited from parents).
    pub is_test: bool,
    /// Token range `[start, end)` the item occupies, attributes included.
    pub span: (usize, usize),
    /// Token range of the braced body's *interior*, when there is one
    /// (fn/mod/impl/trait bodies, macro `{…}` payloads).
    pub body: Option<(usize, usize)>,
    /// Struct fields ([`ItemKind::Struct`] / [`ItemKind::Union`]).
    pub fields: Vec<Field>,
    /// Enum variants ([`ItemKind::Enum`]).
    pub variants: Vec<Variant>,
    /// For [`ItemKind::Use`]: `(local name, full path)` bindings; a glob
    /// import is recorded as `("*", "path::*")`.
    pub imports: Vec<(String, String)>,
    /// Nested items (mod/impl/trait bodies).
    pub children: Vec<Item>,
}

impl Item {
    fn new(kind: ItemKind, line: usize, start: usize) -> Self {
        Self {
            kind,
            name: None,
            impl_ty: None,
            line,
            derives: Vec::new(),
            is_test: false,
            span: (start, start),
            body: None,
            fields: Vec::new(),
            variants: Vec::new(),
            imports: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Depth-first walk over this item and its children.
    pub fn walk<'a>(&'a self, out: &mut Vec<&'a Item>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// The parsed form of one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Every item in the file, depth first.
    pub fn all_items(&self) -> Vec<&Item> {
        let mut out = Vec::new();
        for i in &self.items {
            i.walk(&mut out);
        }
        out
    }
}

/// Renders a token slice as canonical type/expression text: punctuation is
/// glued, a single space separates word-like tokens (`dyn Fn`, `&'a str`).
pub fn render_tokens(toks: &[Tok]) -> String {
    let mut out = String::new();
    for t in toks {
        let word = matches!(t.kind, TokKind::Ident | TokKind::Num | TokKind::Lifetime);
        if word && out.chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            out.push(' ');
        }
        if t.kind == TokKind::Lifetime {
            out.push('\'');
        }
        out.push_str(&t.text);
    }
    out
}

/// Parses a lexed file into its item tree.
///
/// # Errors
/// Structurally broken input: an unclosed `{`/`(`/`[` at item level.
pub fn parse(file: &LexedFile) -> Result<ParsedFile, String> {
    let mut p = Parser { toks: &file.tokens, pos: 0 };
    let items = p.items(false, None)?;
    Ok(ParsedFile { items })
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn at_ident(&self, text: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    fn at_punct(&self, ch: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    }

    fn punct_at(&self, off: usize) -> Option<&str> {
        self.toks.get(self.pos + off).filter(|t| t.kind == TokKind::Punct).map(|t| t.text.as_str())
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        self.toks.get(self.pos + off).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str())
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn line(&self) -> usize {
        self.peek().map_or(self.toks.last().map_or(1, |t| t.line), |t| t.line)
    }

    fn err(&self, msg: &str) -> String {
        format!("line {}: {msg}", self.line())
    }

    /// Skips a balanced delimiter group starting at the current token
    /// (which must be `(`, `[`, or `{`), tracking only the matching pair.
    fn skip_balanced(&mut self) -> Result<(), String> {
        let open = self.peek().ok_or_else(|| self.err("expected a delimiter"))?.text.clone();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            other => return Err(self.err(&format!("not a delimiter: {other:?}"))),
        };
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return Ok(());
                    }
                }
            }
            self.bump();
        }
        Err(format!("unclosed `{open}`"))
    }

    /// Skips a generic parameter list starting at `<`. Tolerates `->`
    /// inside `Fn(…) -> T` bounds.
    fn skip_generics(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    "-" if self.punct_at(1) == Some(">") => {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            self.bump();
                            return;
                        }
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Parses items until end of input or — when `in_block` — the `}`
    /// closing the surrounding body.
    fn items(&mut self, in_block: bool, inherit_test: Option<bool>) -> Result<Vec<Item>, String> {
        let mut out = Vec::new();
        while let Some(t) = self.peek() {
            if in_block && t.kind == TokKind::Punct && t.text == "}" {
                break;
            }
            let mut item = self.item()?;
            if inherit_test == Some(true) {
                mark_test(&mut item);
            }
            out.push(item);
        }
        Ok(out)
    }

    /// Parses one item (attributes included). Never returns `None` before
    /// end of input: unrecognized tokens come back as 1-token `Other`s.
    fn item(&mut self) -> Result<Item, String> {
        let start = self.pos;
        let line = self.line();
        let mut item = Item::new(ItemKind::Other, line, start);

        // Attributes: outer `#[…]` and inner `#![…]`.
        while self.at_punct("#") {
            let attr_start = self.pos;
            self.bump();
            if self.at_punct("!") {
                self.bump();
            }
            if !self.at_punct("[") {
                // A stray `#` (e.g. inside skipped macro output) — treat the
                // token as Other and bail out of this item.
                self.pos = attr_start + 1;
                item.span = (start, self.pos);
                return Ok(item);
            }
            let body_start = self.pos + 1;
            self.skip_balanced()?;
            self.scan_attr(&self.toks[body_start..self.pos - 1], &mut item);
        }

        // Visibility and modifier keywords.
        loop {
            if self.at_ident("pub") {
                self.bump();
                if self.at_punct("(") {
                    self.skip_balanced()?;
                }
                continue;
            }
            if self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("default") {
                self.bump();
                continue;
            }
            // `const fn` / `extern "C" fn` are modifiers; `const NAME` /
            // `extern crate` are items, handled below.
            if self.at_ident("const") && self.ident_at(1) == Some("fn") {
                self.bump();
                continue;
            }
            if self.at_ident("extern")
                && (self.toks.get(self.pos + 1).is_some_and(|t| t.kind == TokKind::Str))
                && self.ident_at(2) == Some("fn")
            {
                self.bump();
                self.bump();
                continue;
            }
            break;
        }

        let Some(head) = self.peek() else {
            item.span = (start, self.pos);
            return Ok(item);
        };
        if head.kind != TokKind::Ident {
            self.bump();
            item.span = (start, self.pos);
            return Ok(item);
        }

        match head.text.as_str() {
            "fn" => self.finish_fn(&mut item)?,
            "struct" | "union" => {
                let is_union = head.text == "union";
                self.finish_struct(&mut item)?;
                if is_union {
                    item.kind = ItemKind::Union;
                }
            }
            "enum" => self.finish_enum(&mut item)?,
            "impl" => self.finish_impl(&mut item)?,
            "mod" => self.finish_mod(&mut item)?,
            "trait" => self.finish_trait(&mut item)?,
            "use" => self.finish_use(&mut item)?,
            "macro_rules" => self.finish_macro_rules(&mut item)?,
            "const" | "static" | "type" | "extern" => self.finish_terminated(&mut item)?,
            name if self.punct_at(1) == Some("!") => {
                let name = name.to_string();
                self.finish_macro_invocation(&mut item, name)?;
            }
            _ => self.bump(), // expression/statement token in item position
        }
        item.span = (start, self.pos);
        Ok(item)
    }

    fn scan_attr(&self, attr: &[Tok], item: &mut Item) {
        // `derive(A, B)` → collect the trait names.
        if attr.first().is_some_and(|t| t.text == "derive") {
            for t in &attr[1..] {
                if t.kind == TokKind::Ident {
                    item.derives.push(t.text.clone());
                }
            }
        }
        // `#[test]` / `#[cfg(test)]` (but not `cfg(not(test))`).
        let mut saw_test = false;
        let mut saw_not = false;
        for t in attr {
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "test" => saw_test = true,
                    "not" => saw_not = true,
                    _ => {}
                }
            }
        }
        if saw_test && !saw_not {
            item.is_test = true;
        }
    }

    fn parse_name(&mut self) -> Option<String> {
        let name = self.peek().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
        if name.is_some() {
            self.bump();
        }
        name
    }

    fn finish_fn(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Fn;
        self.bump(); // fn
        item.name = self.parse_name();
        if self.at_punct("<") {
            self.skip_generics();
        }
        // Signature up to the body `{` or a `;` (trait method without a
        // default body). Parens/brackets are skipped whole so a `{` inside
        // a const-generic default can't fool us.
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => {
                        self.skip_balanced()?;
                        continue;
                    }
                    ";" => {
                        self.bump();
                        return Ok(());
                    }
                    "{" => {
                        let body_start = self.pos + 1;
                        self.skip_balanced()?;
                        item.body = Some((body_start, self.pos - 1));
                        return Ok(());
                    }
                    _ => {}
                }
            }
            self.bump();
        }
        Err("fn without body or `;`".into())
    }

    fn finish_struct(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Struct;
        self.bump(); // struct/union
        item.name = self.parse_name();
        if self.at_punct("<") {
            self.skip_generics();
        }
        // Where clause (before the brace in struct syntax).
        while let Some(t) = self.peek() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    let inner_start = self.pos + 1;
                    self.skip_balanced()?;
                    item.fields = parse_named_fields(&self.toks[inner_start..self.pos - 1]);
                    return Ok(());
                }
                (TokKind::Punct, "(") => {
                    let inner_start = self.pos + 1;
                    self.skip_balanced()?;
                    item.fields = parse_tuple_fields(&self.toks[inner_start..self.pos - 1]);
                    // trailing where-clause + `;`
                    while self.peek().is_some() && !self.at_punct(";") {
                        self.bump();
                    }
                    if self.at_punct(";") {
                        self.bump();
                    }
                    return Ok(());
                }
                (TokKind::Punct, ";") => {
                    self.bump();
                    return Ok(());
                }
                _ => self.bump(),
            }
        }
        Err("struct without body or `;`".into())
    }

    fn finish_enum(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Enum;
        self.bump(); // enum
        item.name = self.parse_name();
        if self.at_punct("<") {
            self.skip_generics();
        }
        while self.peek().is_some() && !self.at_punct("{") {
            self.bump();
        }
        if !self.at_punct("{") {
            return Err("enum without body".into());
        }
        let inner_start = self.pos + 1;
        self.skip_balanced()?;
        item.variants = parse_variants(&self.toks[inner_start..self.pos - 1]);
        Ok(())
    }

    fn finish_impl(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Impl;
        self.bump(); // impl
        if self.at_punct("<") {
            self.skip_generics();
        }
        let ty_start = self.pos;
        let mut ty_end = self.pos;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct && t.text == "{" {
                break;
            }
            if t.kind == TokKind::Ident && (t.text == "for" || t.text == "where") {
                self.bump();
                if t.text == "for" {
                    // self type follows the trait name
                    let self_ty_start = self.pos;
                    while self.peek().is_some() && !self.at_punct("{") && !self.at_ident("where") {
                        self.bump();
                    }
                    item.impl_ty = Some(render_tokens(&self.toks[self_ty_start..self.pos]));
                }
                continue;
            }
            self.bump();
            ty_end = self.pos;
        }
        if item.impl_ty.is_none() {
            item.impl_ty = Some(render_tokens(&self.toks[ty_start..ty_end]));
        }
        if !self.at_punct("{") {
            return Err("impl without body".into());
        }
        let body_start = self.pos + 1;
        self.bump(); // `{`
        item.children = self.items(true, Some(item.is_test))?;
        if !self.at_punct("}") {
            return Err("unclosed impl body".into());
        }
        self.bump();
        item.body = Some((body_start, self.pos - 1));
        Ok(())
    }

    fn finish_mod(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Mod;
        self.bump(); // mod
        item.name = self.parse_name();
        if self.at_punct(";") {
            self.bump();
            return Ok(());
        }
        if !self.at_punct("{") {
            return Err("mod without body or `;`".into());
        }
        let body_start = self.pos + 1;
        self.bump();
        item.children = self.items(true, Some(item.is_test))?;
        if !self.at_punct("}") {
            return Err("unclosed mod body".into());
        }
        self.bump();
        item.body = Some((body_start, self.pos - 1));
        Ok(())
    }

    fn finish_trait(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Trait;
        self.bump(); // trait
        item.name = self.parse_name();
        while self.peek().is_some() && !self.at_punct("{") {
            if self.at_punct("<") {
                self.skip_generics();
            } else {
                self.bump();
            }
        }
        if !self.at_punct("{") {
            return Err("trait without body".into());
        }
        let body_start = self.pos + 1;
        self.bump();
        item.children = self.items(true, Some(item.is_test))?;
        if !self.at_punct("}") {
            return Err("unclosed trait body".into());
        }
        self.bump();
        item.body = Some((body_start, self.pos - 1));
        Ok(())
    }

    fn finish_use(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Use;
        self.bump(); // use
        let tree_start = self.pos;
        // Balance-aware scan to the terminating `;`.
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            self.bump();
        }
        let tree = &self.toks[tree_start..self.pos];
        if self.at_punct(";") {
            self.bump();
        }
        expand_use_tree(tree, "", &mut item.imports);
        Ok(())
    }

    fn finish_macro_rules(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::MacroDef;
        self.bump(); // macro_rules
        if self.at_punct("!") {
            self.bump();
        }
        item.name = self.parse_name();
        if self.at_punct("{") {
            let body_start = self.pos + 1;
            self.skip_balanced()?;
            item.body = Some((body_start, self.pos - 1));
            Ok(())
        } else {
            Err("macro_rules without body".into())
        }
    }

    fn finish_macro_invocation(&mut self, item: &mut Item, name: String) -> Result<(), String> {
        item.kind = ItemKind::MacroInvocation;
        item.name = Some(name);
        self.bump(); // name
        self.bump(); // !
        match self.peek().map(|t| t.text.as_str()) {
            Some("{") => {
                let body_start = self.pos + 1;
                self.skip_balanced()?;
                item.body = Some((body_start, self.pos - 1));
            }
            Some("(") | Some("[") => {
                let body_start = self.pos + 1;
                self.skip_balanced()?;
                item.body = Some((body_start, self.pos - 1));
                if self.at_punct(";") {
                    self.bump();
                }
            }
            _ => return Err("macro invocation without a delimiter".into()),
        }
        Ok(())
    }

    /// `const`/`static`/`type`/`extern crate`: name then skip to `;`
    /// (initializer expressions may contain braces — skipped whole).
    fn finish_terminated(&mut self, item: &mut Item) -> Result<(), String> {
        item.kind = ItemKind::Other;
        self.bump(); // keyword
        if self.at_ident("mut") || self.at_ident("crate") {
            self.bump();
        }
        item.name = self.parse_name();
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => {
                        self.skip_balanced()?;
                        continue;
                    }
                    ";" => {
                        self.bump();
                        return Ok(());
                    }
                    _ => {}
                }
            }
            self.bump();
        }
        Ok(()) // tolerated: EOF after an item tail
    }
}

fn mark_test(item: &mut Item) {
    item.is_test = true;
    for c in &mut item.children {
        mark_test(c);
    }
}

/// Splits `toks` on top-level commas (tracking all three delimiter kinds
/// plus angle brackets with a `->` guard).
fn split_top_commas(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut angle = 0isize;
    let mut start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                "-" if toks.get(i + 1).is_some_and(|n| n.text == ">") => i += 1,
                ">" => angle = (angle - 1).max(0),
                "," if depth == 0 && angle == 0 => {
                    out.push(&toks[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        i += 1;
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// Strips leading attributes and visibility from a field/variant chunk.
fn strip_field_prefix(mut toks: &[Tok]) -> &[Tok] {
    loop {
        if toks.first().is_some_and(|t| t.text == "#") {
            // `#[…]`: find the matching `]`.
            let mut depth = 0usize;
            let mut cut = toks.len();
            for (i, t) in toks.iter().enumerate().skip(1) {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                cut = i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
            }
            toks = &toks[cut.min(toks.len())..];
            continue;
        }
        if toks.first().is_some_and(|t| t.kind == TokKind::Ident && t.text == "pub") {
            toks = &toks[1..];
            if toks.first().is_some_and(|t| t.text == "(") {
                let mut depth = 0usize;
                let mut cut = toks.len();
                for (i, t) in toks.iter().enumerate() {
                    match t.text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                cut = i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                toks = &toks[cut.min(toks.len())..];
            }
            continue;
        }
        return toks;
    }
}

fn parse_named_fields(toks: &[Tok]) -> Vec<Field> {
    let mut out = Vec::new();
    for chunk in split_top_commas(toks) {
        let chunk = strip_field_prefix(chunk);
        let Some(name_tok) = chunk.first().filter(|t| t.kind == TokKind::Ident) else { continue };
        if chunk.get(1).is_none_or(|t| t.text != ":") {
            continue;
        }
        out.push(Field {
            name: Some(name_tok.text.clone()),
            ty: render_tokens(&chunk[2..]),
            line: name_tok.line,
        });
    }
    out
}

fn parse_tuple_fields(toks: &[Tok]) -> Vec<Field> {
    split_top_commas(toks)
        .into_iter()
        .map(strip_field_prefix)
        .filter(|c| !c.is_empty())
        .map(|c| Field { name: None, ty: render_tokens(c), line: c[0].line })
        .collect()
}

fn parse_variants(toks: &[Tok]) -> Vec<Variant> {
    let mut out = Vec::new();
    for chunk in split_top_commas(toks) {
        let chunk = strip_field_prefix(chunk);
        let Some(name_tok) = chunk.first().filter(|t| t.kind == TokKind::Ident) else { continue };
        let mut v = Variant {
            name: name_tok.text.clone(),
            fields: Vec::new(),
            tuple: false,
            line: name_tok.line,
        };
        match chunk.get(1).map(|t| t.text.as_str()) {
            Some("(") => {
                v.tuple = true;
                v.fields = parse_tuple_fields(&chunk[2..chunk.len().saturating_sub(1)]);
            }
            Some("{") => {
                v.fields = parse_named_fields(&chunk[2..chunk.len().saturating_sub(1)]);
            }
            _ => {} // unit (possibly with `= discriminant`, which adds no fields)
        }
        out.push(v);
    }
    out
}

/// Expands a use-tree token slice into `(local name, full path)` pairs.
fn expand_use_tree(toks: &[Tok], prefix: &str, out: &mut Vec<(String, String)>) {
    let mut segs: Vec<String> = Vec::new();
    let mut i = 0usize;
    let joined = |prefix: &str, segs: &[String]| -> String {
        let tail = segs.join("::");
        match (prefix.is_empty(), tail.is_empty()) {
            (true, _) => tail,
            (_, true) => prefix.to_string(),
            _ => format!("{prefix}::{tail}"),
        }
    };
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "as") => {
                // `path as alias`
                if let Some(alias) = toks.get(i + 1).filter(|a| a.kind == TokKind::Ident) {
                    out.push((alias.text.clone(), joined(prefix, &segs)));
                }
                return;
            }
            (TokKind::Ident, _) => {
                segs.push(t.text.clone());
                i += 1;
            }
            (TokKind::Punct, ":") => i += 1,
            (TokKind::Punct, "*") => {
                out.push(("*".into(), format!("{}::*", joined(prefix, &segs))));
                return;
            }
            (TokKind::Punct, "{") => {
                // Group: recurse per top-level comma chunk of the interior.
                let mut depth = 0usize;
                let mut close = toks.len();
                for (j, u) in toks.iter().enumerate().skip(i) {
                    match u.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                close = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let new_prefix = joined(prefix, &segs);
                for sub in split_top_commas(&toks[i + 1..close]) {
                    expand_use_tree(sub, &new_prefix, out);
                }
                return;
            }
            _ => i += 1,
        }
    }
    if let Some(last) = segs.last().cloned() {
        if last == "self" {
            // `use a::b::{self}` binds `b`.
            segs.pop();
            if let Some(parent) = segs.last().cloned() {
                out.push((parent, joined(prefix, &segs)));
            }
        } else {
            out.push((last, joined(prefix, &segs)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src)).expect("parses")
    }

    #[test]
    fn items_tile_the_token_stream() {
        let src = "use a::b; fn f() { let x = 1; } struct S { a: u32 } ; enum E { A, B(u8) }";
        let lexed = lex(src);
        let parsed = parse(&lexed).unwrap();
        let mut cursor = 0usize;
        for item in &parsed.items {
            assert_eq!(item.span.0, cursor, "gap before {:?}", item.kind);
            cursor = item.span.1;
        }
        assert_eq!(cursor, lexed.tokens.len());
    }

    #[test]
    fn struct_fields_and_types() {
        let p = parse_src(
            "#[derive(Clone, Serialize)] pub struct Quantized { rows: usize, packed: Vec<u8>, \
             pair: (f32, f32) }",
        );
        let s = &p.items[0];
        assert_eq!(s.kind, ItemKind::Struct);
        assert_eq!(s.name.as_deref(), Some("Quantized"));
        assert_eq!(s.derives, vec!["Clone", "Serialize"]);
        let tys: Vec<&str> = s.fields.iter().map(|f| f.ty.as_str()).collect();
        assert_eq!(tys, vec!["usize", "Vec<u8>", "(f32,f32)"]);
    }

    #[test]
    fn enum_variants_cover_all_shapes() {
        let p = parse_src(
            "enum FpMessage { Exact { h: Matrix, m_cr: Matrix }, Compressed(Quantized), Unit }",
        );
        let e = &p.items[0];
        assert_eq!(e.variants.len(), 3);
        assert_eq!(e.variants[0].fields.len(), 2);
        assert!(e.variants[1].tuple);
        assert!(e.variants[2].fields.is_empty());
    }

    #[test]
    fn impl_and_mod_children_are_nested() {
        let p = parse_src(
            "impl Engine { fn step(&mut self) {} fn report(&self) -> u32 { 0 } }\n\
             mod inner { pub fn helper() {} }",
        );
        assert_eq!(p.items[0].kind, ItemKind::Impl);
        assert_eq!(p.items[0].impl_ty.as_deref(), Some("Engine"));
        assert_eq!(p.items[0].children.len(), 2);
        assert_eq!(p.items[1].children[0].name.as_deref(), Some("helper"));
    }

    #[test]
    fn use_trees_expand_groups_aliases_and_globs() {
        let p = parse_src(
            "use ec_comm::{HostTimer, clock::HostTimer as HT, stats::*};\nuse crate::exec;",
        );
        let mut all: Vec<(String, String)> = Vec::new();
        for i in &p.items {
            all.extend(i.imports.iter().cloned());
        }
        assert!(all.contains(&("HostTimer".into(), "ec_comm::HostTimer".into())));
        assert!(all.contains(&("HT".into(), "ec_comm::clock::HostTimer".into())));
        assert!(all.contains(&("*".into(), "ec_comm::stats::*".into())));
        assert!(all.contains(&("exec".into(), "crate::exec".into())));
    }

    #[test]
    fn macro_definition_vs_invocation() {
        let p = parse_src(
            "macro_rules! metric_catalog { ($x:ident) => { pub enum E { $x } } }\n\
             metric_catalog! { Alive => { \"a\", Counter } }",
        );
        assert_eq!(p.items[0].kind, ItemKind::MacroDef);
        assert_eq!(p.items[1].kind, ItemKind::MacroInvocation);
        assert_eq!(p.items[1].name.as_deref(), Some("metric_catalog"));
        assert!(p.items[1].body.is_some());
    }

    #[test]
    fn cfg_test_marks_children_recursively() {
        let p = parse_src("#[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }");
        assert!(p.items[0].is_test);
        assert!(p.items[0].children.iter().all(|c| c.is_test));
    }

    #[test]
    fn generic_fn_signatures_parse() {
        let p = parse_src(
            "pub fn run_workers<R: Send>(threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> \
             { body() }",
        );
        let f = &p.items[0];
        assert_eq!(f.kind, ItemKind::Fn);
        assert_eq!(f.name.as_deref(), Some("run_workers"));
        assert!(f.body.is_some());
    }

    #[test]
    fn unclosed_delimiter_is_an_error() {
        assert!(parse(&lex("fn f() { let x = 1;")).is_err());
    }

    #[test]
    fn render_spaces_word_tokens_only() {
        let lexed = lex("&'a dyn Fn(u32) -> Vec<u8>");
        assert_eq!(render_tokens(&lexed.tokens), "&'a dyn Fn(u32)->Vec<u8>");
    }
}
