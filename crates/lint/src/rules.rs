//! The six determinism rules, ported from the regex scanner onto the
//! syntax model, plus the `nested-vec` data-layout rule.
//!
//! Working over tokens instead of line text removes the regex engine's
//! known failure modes:
//!
//! * string literals are single tokens — `"Instant::now"` inside a log
//!   message no longer false-positives `std-time`;
//! * patterns match across line breaks — `Box<dyn\nPolicy` no longer
//!   escapes `dispatch`;
//! * spacing is irrelevant — `m . values ()` is the same token sequence
//!   as `m.values()`;
//! * `#[cfg(test)]` scopes are resolved structurally, not by requiring
//!   the attribute on its own line.
//!
//! Each scanner returns [`RawFinding`]s; the driver in `lib.rs` attaches
//! paths, excerpts, and annotation filtering.

use crate::ast::{FileAst, FnDef, Group, Tree};
use crate::lexer::{Delim, TokKind, Token};

/// A rule hit before path/excerpt attachment.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule identifier.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short explanation specific to this hit.
    pub note: String,
}

impl RawFinding {
    pub(crate) fn at(rule: &'static str, tok: &Token, note: impl Into<String>) -> Self {
        Self {
            rule,
            line: tok.span.line,
            col: tok.span.col,
            note: note.into(),
        }
    }
}

/// The file's token stream with test-gated lines removed — the view the
/// file-scope rules (`std-time`, `entropy`, `layering`, `dispatch`) scan,
/// so `use` imports, struct fields, and const initializers are covered
/// along with function bodies.
pub fn non_test_tokens(ast: &FileAst) -> Vec<&Token> {
    ast.tokens
        .iter()
        .filter(|t| !ast.is_test_line(t.span.line))
        .collect()
}

fn ident_at<'a>(ts: &'a [&Token], i: usize) -> Option<&'a str> {
    ts.get(i).and_then(|t| {
        if t.kind == TokKind::Ident {
            Some(t.text.as_str())
        } else {
            None
        }
    })
}

fn punct_at(ts: &[&Token], i: usize, s: &str) -> bool {
    ts.get(i).is_some_and(|t| t.is_punct(s))
}

fn open_at(ts: &[&Token], i: usize, d: Delim) -> bool {
    ts.get(i).is_some_and(|t| t.kind == TokKind::Open(d))
}

/// `std-time`: wall-clock reads. Simulated time comes from the model's
/// own clocks.
pub fn scan_std_time(ts: &[&Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..ts.len() {
        let Some(id) = ident_at(ts, i) else { continue };
        match id {
            "SystemTime" => out.push(RawFinding::at(
                "std-time",
                ts[i],
                "wall-clock type; use the model's own cycle counters",
            )),
            "std" if punct_at(ts, i + 1, "::") && ident_at(ts, i + 2) == Some("time") => {
                out.push(RawFinding::at(
                    "std-time",
                    ts[i],
                    "std::time on a simulation path",
                ));
            }
            "Instant" if punct_at(ts, i + 1, "::") && ident_at(ts, i + 2) == Some("now") => {
                out.push(RawFinding::at(
                    "std-time",
                    ts[i],
                    "Instant::now() reads the host clock",
                ));
            }
            _ => {}
        }
    }
    out
}

/// `entropy`: ambient randomness. All randomness must flow from seeded
/// `itpx_types::Rng64` state.
pub fn scan_entropy(ts: &[&Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..ts.len() {
        let Some(id) = ident_at(ts, i) else { continue };
        match id {
            "thread_rng" | "RandomState" | "from_entropy" => out.push(RawFinding::at(
                "entropy",
                ts[i],
                "ambient randomness; seed an Rng64 instead",
            )),
            "rand" if punct_at(ts, i + 1, "::") => out.push(RawFinding::at(
                "entropy",
                ts[i],
                "rand:: crate path; all randomness flows from Rng64 seeds",
            )),
            _ => {}
        }
    }
    out
}

/// `layering`: direct `hierarchy.l2` / `hierarchy.llc` field access
/// outside `itpx-mem`. Callers go through the depth-stable
/// `l2c()`/`llc()` accessors.
pub fn scan_layering(ts: &[&Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..ts.len() {
        if ident_at(ts, i) != Some("hierarchy") || !punct_at(ts, i + 1, ".") {
            continue;
        }
        let Some(field) = ident_at(ts, i + 2) else {
            continue;
        };
        if (field == "l2" || field == "llc") && !open_at(ts, i + 3, Delim::Paren) {
            out.push(RawFinding::at(
                "layering",
                ts[i + 2],
                "shared-level field access; use l2c()/l2c_mut()/llc()/llc_mut()",
            ));
        }
    }
    out
}

/// `dispatch`: `Box<dyn Policy` in the hot-path crates. Policies dispatch
/// through the engine enums so per-access calls inline.
pub fn scan_dispatch(ts: &[&Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..ts.len() {
        if ident_at(ts, i) == Some("Box")
            && punct_at(ts, i + 1, "<")
            && ident_at(ts, i + 2) == Some("dyn")
            && ident_at(ts, i + 3) == Some("Policy")
        {
            out.push(RawFinding::at(
                "dispatch",
                ts[i],
                "boxed trait object on a hot-path crate; use the policy engine enums",
            ));
        }
    }
    out
}

/// `nested-vec`: `Vec<Vec<…>>` in the hot-path crates. Nested vectors
/// scatter per-set rows across the heap (one pointer chase and one
/// allocation per row); set-indexed state uses the flat
/// `itpx_types::SetGrid` layout instead.
pub fn scan_nested_vec(ts: &[&Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..ts.len() {
        if ident_at(ts, i) == Some("Vec")
            && punct_at(ts, i + 1, "<")
            && ident_at(ts, i + 2) == Some("Vec")
            && punct_at(ts, i + 3, "<")
        {
            out.push(RawFinding::at(
                "nested-vec",
                ts[i],
                "nested Vec scatters rows across the heap; use itpx_types::SetGrid",
            ));
        }
    }
    out
}

/// Base type name of a flattened type text: strips `&`/`mut`, returns the
/// first identifier (`& mut HashMap < u64 , u64 >` → `HashMap`).
pub fn ty_base(ty: &str) -> Option<&str> {
    ty.split_whitespace().find(|w| {
        !matches!(*w, "&" | "mut" | "'" | "'_")
            && w.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
    })
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap"];

/// Iteration methods whose order depends on the hasher.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// `map-iter`: iteration over a `HashMap`/`HashSet`/`FxHashMap`. Tracks
/// identifiers bound to hash types through struct fields, fn params, and
/// `let` bindings, then flags order-dependent traversals of them.
pub fn scan_map_iter(ast: &FileAst) -> Vec<RawFinding> {
    let mut tracked: Vec<&str> = Vec::new();
    for f in &ast.fields {
        if ty_base(&f.ty).is_some_and(|b| HASH_TYPES.contains(&b)) {
            tracked.push(&f.name);
        }
    }
    for f in &ast.fns {
        if f.is_test {
            continue;
        }
        for (name, ty) in &f.params {
            if ty_base(ty).is_some_and(|b| HASH_TYPES.contains(&b)) {
                tracked.push(name);
            }
        }
    }
    let mut out = Vec::new();
    for f in &ast.fns {
        if f.is_test {
            continue;
        }
        let mut ts = Vec::new();
        crate::ast::linearize(&f.body, &mut ts);
        let ts: Vec<&Token> = ts.iter().collect();
        // `let [mut] name … = … HashMap/HashSet … ;` adds a local binding.
        let mut local: Vec<String> = Vec::new();
        for i in 0..ts.len() {
            if ident_at(&ts, i) != Some("let") {
                continue;
            }
            let mut j = i + 1;
            if ident_at(&ts, j) == Some("mut") {
                j += 1;
            }
            let Some(name) = ident_at(&ts, j) else {
                continue;
            };
            let mut k = j + 1;
            while k < ts.len() && !ts[k].is_punct(";") {
                if let Some(id) = ident_at(&ts, k) {
                    if HASH_TYPES.contains(&id) {
                        local.push(name.to_string());
                        break;
                    }
                }
                k += 1;
            }
        }
        let is_tracked = |id: &str| tracked.contains(&id) || local.iter().any(|l| l == id);
        for i in 0..ts.len() {
            // `name.values()` / `self.name.drain(..)` — flag at the method.
            if let Some(id) = ident_at(&ts, i) {
                if is_tracked(id)
                    && punct_at(&ts, i + 1, ".")
                    && ident_at(&ts, i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
                    && open_at(&ts, i + 3, Delim::Paren)
                {
                    out.push(RawFinding::at(
                        "map-iter",
                        ts[i + 2],
                        format!("hash-order iteration over `{id}`; use BTreeMap/BTreeSet or sort"),
                    ));
                }
                // `for x in [&][mut] [self.]name { … }`
                if id == "in" {
                    let mut j = i + 1;
                    if punct_at(&ts, j, "&") {
                        j += 1;
                    }
                    if ident_at(&ts, j) == Some("mut") {
                        j += 1;
                    }
                    if ident_at(&ts, j) == Some("self") && punct_at(&ts, j + 1, ".") {
                        j += 2;
                    }
                    if let Some(name) = ident_at(&ts, j) {
                        if is_tracked(name) && open_at(&ts, j + 1, Delim::Brace) {
                            out.push(RawFinding::at(
                                "map-iter",
                                ts[j],
                                format!(
                                    "hash-order for-loop over `{name}`; use BTreeMap/BTreeSet or sort"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// `panicking-index`: `.unwrap()`/`.expect(…)` and computed indexing
/// without a justifying comment. The comment exemption is resolved by the
/// driver (it owns the comment stream); this scanner reports candidates.
pub fn scan_panicking(f: &FnDef) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut ts = Vec::new();
    crate::ast::linearize(&f.body, &mut ts);
    let ts: Vec<&Token> = ts.iter().collect();
    for i in 0..ts.len() {
        if !punct_at(&ts, i, ".") {
            continue;
        }
        match ident_at(&ts, i + 1) {
            Some("unwrap")
                if open_at(&ts, i + 2, Delim::Paren)
                    && ts
                        .get(i + 3)
                        .is_some_and(|t| t.kind == TokKind::Close(Delim::Paren)) =>
            {
                out.push(RawFinding::at(
                    "panicking-index",
                    ts[i + 1],
                    "bare unwrap; justify with a comment or handle the None/Err arm",
                ));
            }
            Some("expect") if open_at(&ts, i + 2, Delim::Paren) => {
                out.push(RawFinding::at(
                    "panicking-index",
                    ts[i + 1],
                    "bare expect; justify with a comment or handle the None/Err arm",
                ));
            }
            _ => {}
        }
    }
    walk_computed_index(&f.body, &mut out);
    out
}

/// Recursively finds `base[computed]` index expressions.
fn walk_computed_index(trees: &[Tree], out: &mut Vec<RawFinding>) {
    for i in 0..trees.len() {
        let Tree::Group(g) = &trees[i] else { continue };
        if g.delim == Delim::Bracket && i > 0 && is_indexable(&trees[i - 1]) && is_computed(g) {
            out.push(RawFinding {
                rule: "panicking-index",
                line: g.open.line,
                col: g.open.col,
                note: "computed index can panic; justify with a comment or use get()".to_string(),
            });
        }
        walk_computed_index(&g.trees, out);
    }
}

/// An expression the `[…]` that follows indexes into: an identifier, a
/// call/paren result, or another index result.
fn is_indexable(prev: &Tree) -> bool {
    match prev {
        Tree::Tok(t) => t.kind == TokKind::Ident && !is_expr_keyword(&t.text),
        Tree::Group(g) => matches!(g.delim, Delim::Paren | Delim::Bracket),
    }
}

fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "if" | "else" | "match" | "mut" | "ref" | "as" | "dyn"
    )
}

/// Index content involving arithmetic or a call — the off-by-one panic
/// cases. Ranges (`a[1..3]`) and plain `a[i]` stay exempt.
fn is_computed(g: &Group) -> bool {
    let mut ts = Vec::new();
    crate::ast::linearize(&g.trees, &mut ts);
    if ts.iter().any(|t| t.is_punct("..") || t.is_punct("..=")) {
        return false;
    }
    if ts.iter().any(|t| t.kind == TokKind::Open(Delim::Paren)) {
        return true;
    }
    for (i, t) in ts.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "+" | "/" | "%" => return true,
            "-" | "*" if i > 0 => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;

    fn file(src: &str) -> FileAst {
        parse_file("crates/vm/src/x.rs", src).expect("parses")
    }

    fn file_rules(src: &str) -> Vec<&'static str> {
        let ast = file(src);
        let ts = non_test_tokens(&ast);
        let mut out = Vec::new();
        out.extend(scan_std_time(&ts));
        out.extend(scan_entropy(&ts));
        out.extend(scan_layering(&ts));
        out.extend(scan_dispatch(&ts));
        out.extend(scan_nested_vec(&ts));
        out.extend(scan_map_iter(&ast));
        for f in ast.fns.iter().filter(|f| !f.is_test) {
            for c in scan_panicking(f) {
                if !ast.has_comment_near(c.line) {
                    out.push(c);
                }
            }
        }
        out.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_is_flagged() {
        // Both the `std::time` path and the `Instant::now` call match.
        assert_eq!(
            file_rules("fn f() { let t = std::time::Instant::now(); }"),
            ["std-time", "std-time"]
        );
        assert_eq!(
            file_rules("fn f() { let t = Instant::now(); }"),
            ["std-time"]
        );
    }

    #[test]
    fn string_literal_mentioning_time_is_clean() {
        // Historical regex false positive: the scanner matched inside
        // string literals.
        assert!(file_rules("fn f() { let m = \"uses Instant::now internally\"; }").is_empty());
        assert!(file_rules("fn f() { let m = \"RandomState docs\"; }").is_empty());
    }

    #[test]
    fn entropy_is_flagged() {
        assert_eq!(
            file_rules("fn f() { let r = rand::thread_rng(); }"),
            ["entropy", "entropy"]
        );
        assert_eq!(
            file_rules("fn f() { let s = RandomState::new(); }"),
            ["entropy"]
        );
    }

    #[test]
    fn layering_flags_fields_not_accessors() {
        assert_eq!(
            file_rules("fn f(config: &mut Config) { config.hierarchy.l2.sets = 1024; }"),
            ["layering"]
        );
        assert!(file_rules("fn f(c: &mut Config) { c.hierarchy.l2c_mut().sets = 4; }").is_empty());
        assert!(file_rules("fn f(c: &Config) { let x = c.hierarchy.llc(); }").is_empty());
    }

    #[test]
    fn dispatch_matches_across_lines() {
        // Historical regex false negative: a line break inside the type
        // defeated the substring match.
        let src = "fn f() { let p: Box<dyn\n    Policy<CacheMeta>> = mk(); }";
        assert_eq!(file_rules(src), ["dispatch"]);
    }

    #[test]
    fn nested_vec_is_flagged() {
        assert_eq!(
            file_rules("struct S { rows: Vec<Vec<u8>> }"),
            ["nested-vec"]
        );
        // Matches across line breaks and spacing, like every token rule.
        assert_eq!(
            file_rules("fn f() { let x: Vec<\n    Vec<bool>> = Vec::new(); }"),
            ["nested-vec"]
        );
    }

    #[test]
    fn flat_vec_and_nested_mentions_in_strings_are_clean() {
        assert!(file_rules("struct S { rows: Vec<u8> }").is_empty());
        assert!(file_rules("fn f() { let m = \"was Vec<Vec<u8>> once\"; }").is_empty());
        assert!(file_rules("fn f(g: &SetGrid<u8>) -> &[u8] { g.row(0) }").is_empty());
    }

    #[test]
    fn map_iter_tracks_fields_params_and_lets() {
        let field = "struct S { counts: HashMap<u64, u64> }\n\
                     impl S { fn sum(&self) -> u64 { self.counts.values().sum() } }";
        assert_eq!(file_rules(field), ["map-iter"]);
        let param = "fn total(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }";
        assert_eq!(file_rules(param), ["map-iter"]);
        let local = "fn f() { let mut seen = HashMap::new(); seen.insert(1, 2);\n\
                     for (k, v) in &seen { let _ = (k, v); } }";
        assert_eq!(file_rules(local), ["map-iter"]);
    }

    #[test]
    fn map_iter_spaced_call_is_caught() {
        // Historical regex false negative: `m . values ()` defeated the
        // `m.values()` substring.
        let src = "fn total(m: &HashMap<u64, u64>) -> u64 { m . values () . sum() }";
        assert_eq!(file_rules(src), ["map-iter"]);
    }

    #[test]
    fn btree_iteration_is_clean() {
        assert!(file_rules("fn f(m: &BTreeMap<u64, u64>) -> u64 { m.values().sum() }").is_empty());
    }

    #[test]
    fn hash_point_lookup_is_clean() {
        let src = "struct S { counts: HashMap<u64, u64> }\n\
                   impl S { fn get(&self, k: u64) -> Option<&u64> { self.counts.get(&k) } }";
        assert!(file_rules(src).is_empty());
    }

    #[test]
    fn unwrap_and_expect_are_flagged_without_comment() {
        assert_eq!(
            file_rules("fn f(o: Option<u32>) { let x = o.unwrap(); }"),
            ["panicking-index"]
        );
        assert_eq!(
            file_rules("fn f(o: Option<u32>) { let x = o.expect(\"msg\"); }"),
            ["panicking-index"]
        );
        assert!(
            file_rules("fn f(o: Option<u32>) { let x = o.unwrap(); // checked above\n }")
                .is_empty()
        );
    }

    #[test]
    fn unwrap_or_variants_are_clean() {
        assert!(file_rules("fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }").is_empty());
        assert!(file_rules("fn f(o: Option<u32>) -> u32 { o.unwrap_or_default() }").is_empty());
    }

    #[test]
    fn computed_index_is_flagged_plain_is_not() {
        assert_eq!(
            file_rules("fn f(v: &[u32], i: usize) { let x = v[i + 1]; }"),
            ["panicking-index"]
        );
        assert_eq!(
            file_rules("fn f(v: &[u32], i: usize) { let x = v[idx(i)]; }"),
            ["panicking-index"]
        );
        assert!(file_rules("fn f(v: &[u32], i: usize) { let x = v[i]; }").is_empty());
        assert!(file_rules("fn f(v: &[u32]) { let x = &v[1..3]; }").is_empty());
        assert!(file_rules("fn f() { let x: [u8; 4] = [0; 4]; }").is_empty());
        assert!(file_rules("fn f(n: usize) { let x = vec![0; n]; }").is_empty());
    }

    #[test]
    fn test_scopes_are_exempt_even_single_line() {
        // Historical regex false negative turned exemption bug: the mask
        // required `#[cfg(test)]` on its own line.
        let src = "fn prod() {}\n#[cfg(test)] mod tests { fn t() { let x = Instant::now(); } }";
        assert!(file_rules(src).is_empty());
    }
}
