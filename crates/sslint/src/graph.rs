//! The item scanner: a flat item *list* per lexed source file.
//!
//! For every file it records the `fn`/`struct`/`enum`/`trait`/`impl`/
//! `const`/`static`/`mod` items with their kind, visibility, name, line,
//! token span, enclosing `impl`/`mod` and whether they sit in test code.
//! That is all it is — no call edges, no reachability, no types: the
//! rules that need more than tokens ([`crate::rules`]: `dead-pub`,
//! `trace-coverage`, `unsafe-contract`) ask "which items does this file
//! declare, and where", and the list answers it.

use crate::lex::{self, Tok, TokKind};

/// What kind of item a [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function (free, inherent method or trait method with a body).
    Fn,
    /// A `struct` or `union` declaration.
    Struct,
    /// An `enum` declaration.
    Enum,
    /// A `trait` declaration.
    Trait,
    /// A `type` alias.
    TypeAlias,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// An inline `mod name { … }` (file modules are separate files).
    Mod,
    /// An `impl` block (the container; its fns are separate items).
    Impl,
}

/// Item visibility as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// One item scanned out of a file's token stream.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Declared name. For [`ItemKind::Impl`] this is the implemented
    /// *type*'s last path segment; for trait impls the trait name is in
    /// [`Item::trait_name`].
    pub name: String,
    /// Visibility qualifier on the item itself.
    pub vis: Vis,
    /// 1-based line of the declaring keyword.
    pub line: u32,
    /// Token span `[start, end)` covering the whole item.
    pub span: (usize, usize),
    /// For fns: the token span of the body between its braces
    /// (`None` for bodyless trait signatures).
    pub body: Option<(usize, usize)>,
    /// Index (into the same file's item list) of the enclosing `impl` or
    /// inline `mod`, if any.
    pub parent: Option<usize>,
    /// For fns inside `impl Trait for Type` and for impl items
    /// themselves: the trait's last path segment.
    pub trait_name: Option<String>,
    /// Whether the declaring token sits in `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
}

impl Item {
    /// Whether this fn is a method of a trait implementation (reachable
    /// through dynamic dispatch even without a `pub` qualifier).
    pub fn is_trait_impl_fn(&self) -> bool {
        self.kind == ItemKind::Fn && self.trait_name.is_some()
    }
}

/// Scans one file's token stream into its item list, in source order
/// (containers precede their children).
pub fn scan_file(toks: &[Tok], mask: &[bool]) -> Vec<Item> {
    let mut out = Vec::new();
    scan_items(toks, mask, 0, toks.len(), None, None, &mut out);
    out
}

/// Recursive item scanner over `toks[start..end)`.
#[allow(clippy::too_many_arguments)]
fn scan_items(
    toks: &[Tok],
    mask: &[bool],
    start: usize,
    end: usize,
    parent: Option<usize>,
    enclosing_trait: Option<&str>,
    out: &mut Vec<Item>,
) {
    let mut i = start;
    let mut vis = Vis::Private;
    while i < end {
        let t = &toks[i];
        // Attributes: skip `#[…]` / `#![…]` wholesale.
        if t.is_punct("#") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_punct("!")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|n| n.is_punct("[")) {
                i = skip_balanced(toks, j, end, "[", "]");
                continue;
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            vis = Vis::Private;
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                vis = Vis::Pub;
                i += 1;
                if toks.get(i).is_some_and(|n| n.is_punct("(")) {
                    vis = Vis::Restricted;
                    i = skip_balanced(toks, i, end, "(", ")");
                }
                continue;
            }
            // Qualifiers that may precede `fn` without changing item shape.
            "const" | "static"
                if !toks.get(i + 1).is_some_and(|n| {
                    n.is_ident("fn")
                        || n.is_ident("unsafe")
                        || n.is_ident("extern")
                        || n.is_ident("async")
                }) =>
            {
                let kind = if t.text == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                let name = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone())
                    .unwrap_or_default();
                let item_end = skip_to_semicolon(toks, i, end);
                out.push(Item {
                    kind,
                    name,
                    vis,
                    line: t.line,
                    span: (i, item_end),
                    body: None,
                    parent,
                    trait_name: None,
                    in_test: mask.get(i).copied().unwrap_or(false),
                });
                i = item_end;
                vis = Vis::Private;
                continue;
            }
            "const" | "static" | "async" | "extern" | "default" => {
                // Fn qualifier — the `fn` keyword follows shortly.
                i += 1;
                continue;
            }
            "unsafe" => {
                i += 1;
                continue;
            }
            "fn" => {
                let line = t.line;
                let name = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone())
                    .unwrap_or_default();
                // Find the body `{` (or a terminating `;` for bodyless
                // trait signatures), tracking bracket depth so closure
                // types and where-clauses don't confuse the scan.
                let mut j = i + 1;
                let mut body = None;
                let mut depth = 0i32;
                while j < end {
                    let tj = &toks[j];
                    if tj.is_punct("(") || tj.is_punct("[") {
                        depth += 1;
                    } else if tj.is_punct(")") || tj.is_punct("]") {
                        depth -= 1;
                    } else if depth == 0 && tj.is_punct(";") {
                        j += 1;
                        break;
                    } else if depth == 0 && tj.is_punct("{") {
                        let bend = skip_balanced(toks, j, end, "{", "}");
                        body = Some((j + 1, bend.saturating_sub(1)));
                        j = bend;
                        break;
                    }
                    j += 1;
                }
                out.push(Item {
                    kind: ItemKind::Fn,
                    name,
                    vis,
                    line,
                    span: (i, j),
                    body,
                    parent,
                    trait_name: enclosing_trait.map(str::to_string),
                    in_test: mask.get(i).copied().unwrap_or(false),
                });
                i = j;
                vis = Vis::Private;
                continue;
            }
            "struct" | "union" | "enum" | "trait" | "type" | "mod" => {
                let line = t.line;
                let kw = t.text.clone();
                let name = toks
                    .get(i + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone())
                    .unwrap_or_default();
                let kind = match kw.as_str() {
                    "struct" | "union" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    "trait" => ItemKind::Trait,
                    "type" => ItemKind::TypeAlias,
                    _ => ItemKind::Mod,
                };
                // Body or semicolon terminated.
                let mut j = i + 1;
                let mut body_range = None;
                let mut depth = 0i32;
                while j < end {
                    let tj = &toks[j];
                    if tj.is_punct("(") || tj.is_punct("[") {
                        depth += 1;
                    } else if tj.is_punct(")") || tj.is_punct("]") {
                        depth -= 1;
                    } else if depth == 0 && tj.is_punct(";") {
                        j += 1;
                        break;
                    } else if depth == 0 && tj.is_punct("{") {
                        let bend = skip_balanced(toks, j, end, "{", "}");
                        body_range = Some((j + 1, bend.saturating_sub(1)));
                        j = bend;
                        break;
                    }
                    j += 1;
                }
                let idx = out.len();
                out.push(Item {
                    kind,
                    name: name.clone(),
                    vis,
                    line,
                    span: (i, j),
                    body: None,
                    parent,
                    trait_name: None,
                    in_test: mask.get(i).copied().unwrap_or(false),
                });
                // Recurse into trait bodies (default methods) and inline
                // mods; struct/enum bodies hold no items.
                if let Some((bs, be)) = body_range {
                    if kind == ItemKind::Trait {
                        scan_items(toks, mask, bs, be, Some(idx), None, out);
                    } else if kind == ItemKind::Mod {
                        scan_items(toks, mask, bs, be, Some(idx), None, out);
                    }
                }
                i = j;
                vis = Vis::Private;
                continue;
            }
            "impl" => {
                let line = t.line;
                // Header: up to the body `{` at angle-depth 0. `->` must
                // not close an angle bracket.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut header: Vec<usize> = Vec::new();
                while j < end {
                    let tj = &toks[j];
                    if tj.is_punct("<") {
                        angle += 1;
                    } else if tj.is_punct(">")
                        && !lex::back(toks, j, 1).is_some_and(|p| p.is_punct("-"))
                    {
                        angle -= 1;
                    } else if angle <= 0 && tj.is_punct("{") {
                        break;
                    } else if angle <= 0 && tj.is_punct(";") {
                        // `impl Trait for Type;` does not exist, but stay
                        // robust on malformed input.
                        break;
                    }
                    header.push(j);
                    j += 1;
                }
                // Trait impl: an ident `for` at angle-depth 0 inside the
                // header splits `impl Trait for Type`.
                let mut trait_name = None;
                let type_name;
                let mut for_pos = None;
                let mut a = 0i32;
                for &h in &header {
                    let th = &toks[h];
                    if th.is_punct("<") {
                        a += 1;
                    } else if th.is_punct(">")
                        && !lex::back(toks, h, 1).is_some_and(|p| p.is_punct("-"))
                    {
                        a -= 1;
                    } else if a <= 0 && th.is_ident("for") {
                        for_pos = Some(h);
                        break;
                    }
                }
                if let Some(fp) = for_pos {
                    // Trait = last ident before `for`; type = first path
                    // after it.
                    trait_name = header
                        .iter()
                        .filter(|&&h| h < fp)
                        .rev()
                        .find(|&&h| toks[h].kind == TokKind::Ident)
                        .map(|&h| toks[h].text.clone());
                    type_name = last_path_ident(toks, &header, fp).unwrap_or_default();
                } else {
                    // Inherent impl: the head of the type path, so
                    // `impl Foo<T>` names Foo, not the generic arg.
                    type_name = header
                        .iter()
                        .find(|&&h| toks[h].kind == TokKind::Ident && !toks[h].is_ident("where"))
                        .map(|&h| toks[h].text.clone())
                        .unwrap_or_default();
                }
                if j >= end || !toks[j].is_punct("{") {
                    i = j;
                    vis = Vis::Private;
                    continue;
                }
                let bend = skip_balanced(toks, j, end, "{", "}");
                let idx = out.len();
                out.push(Item {
                    kind: ItemKind::Impl,
                    name: type_name,
                    vis: Vis::Private,
                    line,
                    span: (i, bend),
                    body: None,
                    parent,
                    trait_name: trait_name.clone(),
                    in_test: mask.get(i).copied().unwrap_or(false),
                });
                scan_items(
                    toks,
                    mask,
                    j + 1,
                    bend.saturating_sub(1),
                    Some(idx),
                    trait_name.as_deref(),
                    out,
                );
                i = bend;
                vis = Vis::Private;
                continue;
            }
            "use" | "macro_rules" => {
                i = skip_to_semicolon_or_block(toks, i, end);
                vis = Vis::Private;
                continue;
            }
            _ => {
                i += 1;
                vis = Vis::Private;
            }
        }
    }
}

/// For a trait impl header, the implemented type's last path segment
/// before any generics: `impl Node<M> for RouterNode<M>` → `RouterNode`.
fn last_path_ident(toks: &[Tok], header: &[usize], after: usize) -> Option<String> {
    let mut angle = 0i32;
    for &h in header.iter().filter(|&&h| h > after) {
        let th = &toks[h];
        if th.is_punct("<") {
            angle += 1;
        } else if th.is_punct(">") && !lex::back(toks, h, 1).is_some_and(|p| p.is_punct("-")) {
            angle -= 1;
        } else if angle <= 0 && th.is_ident("where") {
            break;
        } else if angle <= 0 && th.kind == TokKind::Ident {
            return Some(th.text.clone());
        }
    }
    None
}

/// Skips a balanced bracket pair starting at `open_at` (which must hold
/// `open`). Returns the index just past the matching close.
pub(crate) fn skip_balanced(
    toks: &[Tok],
    open_at: usize,
    end: usize,
    open: &str,
    close: &str,
) -> usize {
    let mut depth = 0usize;
    let mut i = open_at;
    while i < end {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Skips to just past the next `;` at bracket depth 0.
fn skip_to_semicolon(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < end {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            return i + 1;
        }
        i += 1;
    }
    end
}

/// Skips one `use`-like item: to `;`, or past a balanced `{…}` for
/// `macro_rules! name { … }`.
fn skip_to_semicolon_or_block(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut i = from;
    while i < end {
        let t = &toks[i];
        if t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("{") {
            return skip_balanced(toks, i, end, "{", "}");
        }
        i += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn items_of(src: &str) -> Vec<Item> {
        let lexed = lex::lex(src);
        let mask = lex::test_mask(&lexed.tokens);
        scan_file(&lexed.tokens, &mask)
    }

    #[test]
    fn scans_fn_struct_enum_with_visibility() {
        let items = items_of(
            "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\npub struct S { pub x: u32 }\nenum E { V }\npub const N: u32 = 3;\n",
        );
        let by_name = |n: &str| items.iter().find(|i| i.name == n).unwrap();
        assert_eq!(by_name("a").vis, Vis::Pub);
        assert_eq!(by_name("a").kind, ItemKind::Fn);
        assert_eq!(by_name("b").vis, Vis::Private);
        assert_eq!(by_name("c").vis, Vis::Restricted);
        assert_eq!(by_name("S").kind, ItemKind::Struct);
        // The struct field `pub x` must not become an item.
        assert!(items.iter().all(|i| i.name != "x"));
        assert_eq!(by_name("E").kind, ItemKind::Enum);
        assert_eq!(by_name("N").kind, ItemKind::Const);
    }

    #[test]
    fn impl_blocks_attribute_methods() {
        let items = items_of(
            "struct S;\nimpl S { pub fn m(&self) {} fn p(&self) {} }\nimpl core::fmt::Display for S { fn fmt(&self) {} }\n",
        );
        let m = items.iter().find(|i| i.name == "m").unwrap();
        assert_eq!(m.vis, Vis::Pub);
        assert!(!m.is_trait_impl_fn());
        let f = items.iter().find(|i| i.name == "fmt").unwrap();
        assert!(f.is_trait_impl_fn());
        assert_eq!(f.trait_name.as_deref(), Some("Display"));
        let imp = items
            .iter()
            .find(|i| i.kind == ItemKind::Impl && i.trait_name.is_some())
            .unwrap();
        assert_eq!(imp.name, "S");
    }

    #[test]
    fn test_items_are_marked() {
        let items = items_of("#[cfg(test)]\nmod tests { pub fn t() {} }\npub fn live() {}");
        let t = items.iter().find(|i| i.name == "t").unwrap();
        assert!(t.in_test);
        let live = items.iter().find(|i| i.name == "live").unwrap();
        assert!(!live.in_test);
    }

    #[test]
    fn trait_default_methods_are_scanned() {
        let items = items_of(
            "pub trait T { fn provided(&self) { helper(); } fn required(&self); }\nfn helper() {}",
        );
        let p = items.iter().find(|i| i.name == "provided").unwrap();
        assert!(p.body.is_some());
        let r = items.iter().find(|i| i.name == "required").unwrap();
        assert!(r.body.is_none());
    }
}
