//! Pass 1 of the two-pass analyzer: per-function summaries.
//!
//! For every library/binary file this module extracts, per function:
//! which locks it acquires (as canonical `Struct::field` identities) and in
//! what order, whether a guard is live across an `.await` or channel-send
//! boundary, every call made while a guard is held, every unordered
//! (`HashMap`/`HashSet`) iteration site, whether the body touches a
//! digest/hash sink, and every string literal passed as a counter or
//! histogram name. Pass 2 ([`crate::graph`], [`crate::taint`], and the
//! global rules in [`crate::rules`]) stitches these summaries into
//! workspace-wide diagnostics.
//!
//! The analysis is token-based and deliberately conservative: a receiver
//! that cannot be resolved to a unique lock field produces no lock
//! identity (and therefore no edge) rather than a guessed one.

use std::collections::BTreeMap;

use crate::engine::FileCtx;
use crate::lexer::{Tok, TokKind};

/// A direct lock acquisition: canonical identity + source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acq {
    /// Canonical lock identity, `Struct::field`.
    pub lock: String,
    pub line: u32,
}

/// An ordered pair observed inside one function: `inner` acquired while
/// `held` is live.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub held_line: u32,
    pub inner: String,
    pub inner_line: u32,
}

/// A call site, with the locks live at the moment of the call.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: String,
    pub line: u32,
    pub holds: Vec<Acq>,
}

/// An unordered-container iteration site.
#[derive(Debug, Clone)]
pub struct IterSite {
    /// What is being iterated (`queries`, `Pool::queries`, ...).
    pub container: String,
    pub line: u32,
    /// True when the iteration provably cannot leak order: it feeds an
    /// order-insensitive reduction or an ordered collection in the same
    /// statement, or a sort intervenes later in the same function.
    pub escaped: bool,
}

/// Everything pass 2 needs to know about one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Bare function name (call-graph key).
    pub name: String,
    /// `crate::Struct::name` or `crate::name` (for messages).
    pub qual: String,
    pub file: String,
    pub line: u32,
    pub crate_name: String,
    pub acquires: Vec<Acq>,
    pub lock_edges: Vec<LockEdge>,
    pub calls: Vec<Call>,
    /// `.await` reached while a guard is live: (lock, await line).
    pub awaits_under_guard: Vec<(String, u32)>,
    /// Channel `send`/`try_send`/`blocking_send` while a guard is live.
    pub sends_under_guard: Vec<(String, u32)>,
    pub iter_sites: Vec<IterSite>,
    /// Body touches a digest/hashing sink (`digest`, `DefaultHasher`,
    /// `mix64`, `fnv1a`, `trace_digest`).
    pub has_sink: bool,
}

/// Per-file summary: function summaries plus file-level registries.
#[derive(Debug, Clone)]
pub struct FileSummary {
    pub file: String,
    pub crate_name: String,
    pub fns: Vec<FnSummary>,
    /// String literals passed as counter/histogram names:
    /// (method, literal, line).
    pub metric_literals: Vec<(String, String, u32)>,
    /// `const NAME: &str = "value";` items: (name, value, line).
    pub registry_consts: Vec<(String, String, u32)>,
}

/// How a struct field matters to the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    Lock,
    Hash,
    /// e.g. `Mutex<HashMap<...>>`.
    LockAndHash,
}

impl FieldKind {
    pub fn is_lock(self) -> bool {
        matches!(self, FieldKind::Lock | FieldKind::LockAndHash)
    }
    pub fn is_hash(self) -> bool {
        matches!(self, FieldKind::Hash | FieldKind::LockAndHash)
    }
}

/// crate -> struct -> field -> kind. BTreeMaps keep every downstream
/// iteration deterministic.
pub type FieldMap = BTreeMap<String, BTreeMap<String, BTreeMap<String, FieldKind>>>;

/// Summarize every lib/bin file. Test/example files and `#[cfg(test)]`
/// regions are excluded — drivers are not part of the invariant surface.
pub fn summarize_all(ctxs: &[FileCtx]) -> Vec<FileSummary> {
    let fields = harvest_fields(ctxs);
    ctxs.iter().filter(|c| c.crate_name.is_some()).map(|c| summarize_file(c, &fields)).collect()
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
}

fn is_punct(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

// ---------------------------------------------------------------------------
// Field harvesting (sub-pass 1a)
// ---------------------------------------------------------------------------

/// Walk every struct declaration in every file, recording which fields are
/// lock-typed (`Mutex`/`RwLock`) and which are unordered containers
/// (`HashMap`/`HashSet`).
pub fn harvest_fields(ctxs: &[FileCtx]) -> FieldMap {
    let mut map: FieldMap = BTreeMap::new();
    for ctx in ctxs {
        let Some(krate) = ctx.crate_name.clone() else { continue };
        let toks = &ctx.lexed.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if ident_at(toks, i) == Some("struct") {
                if let Some((name, body)) = struct_body(toks, i) {
                    for (field, kind) in struct_fields(&toks[body.0..body.1]) {
                        map.entry(krate.clone())
                            .or_default()
                            .entry(name.clone())
                            .or_default()
                            .insert(field, kind);
                    }
                    i = body.1;
                    continue;
                }
            }
            i += 1;
        }
    }
    map
}

/// From the `struct` keyword, find the name and the token range of the
/// `{ ... }` body (exclusive of the braces). Tuple/unit structs yield none.
fn struct_body(toks: &[Tok], kw: usize) -> Option<(String, (usize, usize))> {
    let name = ident_at(toks, kw + 1)?.to_string();
    let mut i = kw + 2;
    let mut angle = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !is_punct(toks, i.wrapping_sub(1), '-') => angle -= 1,
            TokKind::Punct('{') if angle == 0 => {
                let close = match_brace(toks, i)?;
                return Some((name, (i + 1, close)));
            }
            // tuple (`(`) or unit (`;`) struct: no named fields
            TokKind::Punct('(') | TokKind::Punct(';') if angle == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Parse `name: Type,` fields at depth 0 of a struct body slice.
fn struct_fields(body: &[Tok]) -> Vec<(String, FieldKind)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut depth = 0i32; // (), [], {} inside default-type expressions etc.
    let mut angle = 0i32;
    while i < body.len() {
        match &body[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !is_punct(body, i.wrapping_sub(1), '-') => angle -= 1,
            TokKind::Punct(':') if depth == 0 && angle == 0 => {
                // field name is the ident just before `:`
                if let Some(name) = ident_at(body, i.wrapping_sub(1)) {
                    // type runs to the `,` at depth 0 / angle 0, or body end
                    let mut j = i + 1;
                    let (mut d2, mut a2) = (0i32, 0i32);
                    let mut has_lock = false;
                    let mut has_hash = false;
                    while j < body.len() {
                        match &body[j].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                d2 += 1
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                                d2 -= 1
                            }
                            TokKind::Punct('<') => a2 += 1,
                            TokKind::Punct('>') if !is_punct(body, j - 1, '-') => a2 -= 1,
                            TokKind::Punct(',') if d2 == 0 && a2 == 0 => break,
                            TokKind::Ident => match body[j].text.as_str() {
                                "Mutex" | "RwLock" => has_lock = true,
                                "HashMap" | "HashSet" => has_hash = true,
                                _ => {}
                            },
                            _ => {}
                        }
                        j += 1;
                    }
                    let kind = match (has_lock, has_hash) {
                        (true, true) => Some(FieldKind::LockAndHash),
                        (true, false) => Some(FieldKind::Lock),
                        (false, true) => Some(FieldKind::Hash),
                        (false, false) => None,
                    };
                    if let Some(kind) = kind {
                        out.push((name.to_string(), kind));
                    }
                    i = j;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// File summarization (sub-pass 1b)
// ---------------------------------------------------------------------------

/// Summarize one file against the workspace-wide field map.
pub fn summarize_file(ctx: &FileCtx, fields: &FieldMap) -> FileSummary {
    let krate = ctx.crate_name.clone().unwrap_or_default();
    let toks = &ctx.lexed.tokens;
    let mut out = FileSummary {
        file: ctx.rel_path.clone(),
        crate_name: krate.clone(),
        fns: Vec::new(),
        metric_literals: Vec::new(),
        registry_consts: Vec::new(),
    };

    // impl blocks: (struct name, body token range)
    let impls = impl_blocks(toks);

    let mut i = 0usize;
    while i < toks.len() {
        match ident_at(toks, i) {
            Some("fn") if !ctx.in_test_code(i) => {
                if let Some((name, body)) = fn_body(toks, i) {
                    let self_struct = impls
                        .iter()
                        .filter(|(_, (a, b))| i > *a && i < *b)
                        .map(|(n, _)| n.as_str())
                        .next_back();
                    out.fns.push(summarize_fn(ctx, fields, &krate, &name, self_struct, i, body));
                    // do not skip the body: nested fns get their own summary
                }
                i += 1;
            }
            Some("const") => {
                // `const NAME: &str = "value";`
                if let (Some(name), Some(val)) = (
                    ident_at(toks, i + 1),
                    toks.iter()
                        .skip(i + 2)
                        .take(8)
                        .take_while(|t| !t.is_punct(';'))
                        .find(|t| t.is_str()),
                ) {
                    if toks[i + 1..].iter().take(8).any(|t| t.is_ident("str")) {
                        out.registry_consts.push((
                            name.to_string(),
                            val.text.clone(),
                            toks[i].line,
                        ));
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    // Metric-name literals anywhere in non-test code:
    // `.incr("x"` / `.add("x"` / `.record("x"` / `.observe("x"` plus the
    // telemetry record sites `.sample("x"` / `.sample_for("x"` /
    // `.set_gauge("x"` / `.gauge("x"`.
    for j in 0..toks.len() {
        if let Some(m) = ident_at(toks, j) {
            if matches!(
                m,
                "incr"
                    | "add"
                    | "record"
                    | "observe"
                    | "sample"
                    | "sample_for"
                    | "set_gauge"
                    | "gauge"
            ) && j > 0
                && toks[j - 1].is_punct('.')
                && is_punct(toks, j + 1, '(')
                && toks.get(j + 2).is_some_and(|t| t.is_str())
                && !ctx.in_test_code(j)
            {
                out.metric_literals.push((m.to_string(), toks[j + 2].text.clone(), toks[j].line));
            }
        }
    }

    out
}

/// Every `impl X { ... }` / `impl Trait for X { ... }` block.
fn impl_blocks(toks: &[Tok]) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) == Some("impl") {
            let mut angle = 0i32;
            let mut j = i + 1;
            let mut after_for: Option<usize> = None;
            let mut open = None;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') if !is_punct(toks, j - 1, '-') => angle -= 1,
                    TokKind::Ident if toks[j].text == "for" && angle == 0 => after_for = Some(j),
                    TokKind::Punct('{') if angle == 0 => {
                        open = Some(j);
                        break;
                    }
                    TokKind::Punct(';') if angle == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let name_from = after_for.map(|f| f + 1).unwrap_or(i + 1);
                let name =
                    (name_from..open).find_map(|k| ident_at(toks, k)).unwrap_or("").to_string();
                if let Some(close) = match_brace(toks, open) {
                    out.push((name, (open, close)));
                    // walk into the body anyway: nothing nests impls
                }
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// From the `fn` keyword, the function name and body token range
/// (exclusive of the braces). Trait-declaration signatures (ending `;`)
/// yield none.
fn fn_body(toks: &[Tok], kw: usize) -> Option<(String, (usize, usize))> {
    let name = ident_at(toks, kw + 1)?.to_string();
    let mut j = kw + 2;
    let (mut paren, mut angle) = (0i32, 0i32);
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !is_punct(toks, j - 1, '-') => angle -= 1,
            TokKind::Punct('{') if paren == 0 && angle <= 0 => {
                let close = match_brace(toks, j)?;
                return Some((name, (j + 1, close)));
            }
            TokKind::Punct(';') if paren == 0 && angle <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Function body analysis
// ---------------------------------------------------------------------------

/// Methods whose zero-arg call on a lock field is an acquisition.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Iterator-producing methods on unordered containers.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "par_iter"];

/// Order-insensitive reductions: consuming an unordered iterator this way
/// cannot leak iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "product",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "unzip_sum",
];

/// Sorting calls that restore determinism after an unordered iteration.
const SORTS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
];

/// Idents marking a digest/hashing sink.
const SINKS: &[&str] = &["digest", "DefaultHasher", "mix64", "fnv1a", "trace_digest"];

/// Method names too generic to resolve through the call graph — resolving
/// `x.get(...)` to every function named `get` in the workspace would wire
/// unrelated code together.
const CALL_STOPLIST: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "take",
    "len",
    "is_empty",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "push",
    "pop",
    "contains",
    "contains_key",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "new",
    "default",
    "next",
    "cmp",
    "eq",
    "ne",
    "fmt",
    "drop",
    "clear",
    "to_string",
    "into",
    "from",
    "try_from",
    "as_ref",
    "as_str",
    "as_bytes",
    "as_slice",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "filter",
    "filter_map",
    "fold",
    "sum",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "collect",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "rev",
    "zip",
    "enumerate",
    "take_while",
    "skip",
    "skip_while",
    "chain",
    "flat_map",
    "flatten",
    "any",
    "all",
    "position",
    "find",
    "find_map",
    "last",
    "first",
    "split",
    "join",
    "trim",
    "starts_with",
    "ends_with",
    "push_str",
    "lock",
    "read",
    "write",
    "try_lock",
    "format",
    "abs",
    "powi",
    "powf",
    "sqrt",
    "floor",
    "ceil",
    "round",
    "to_vec",
    "to_owned",
    "cloned",
    "copied",
    "as_mut",
    "as_deref",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "min_element",
    "max_element",
    "send",
    "try_send",
    "blocking_send",
    "recv",
    "try_recv",
    "await",
    "clamp",
    "swap",
    "replace",
    "truncate",
    "resize",
    "retain",
    "dedup",
    "windows",
    "chunks",
    "binary_search",
    "binary_search_by",
    "partition_point",
    "iter_sorted",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_opt",
    "with_capacity",
    "reserve",
    "shrink_to_fit",
    "get_or_insert_with",
    "hash",
    "finish",
    "build",
    "value",
    "snapshot",
    "incr",
    "record",
    "observe",
    "add",
];

struct LiveGuard {
    lock: String,
    line: u32,
    /// Token-index range (inclusive) during which the guard is live.
    start: usize,
    end: usize,
}

#[allow(clippy::too_many_arguments)]
fn summarize_fn(
    ctx: &FileCtx,
    fields: &FieldMap,
    krate: &str,
    name: &str,
    self_struct: Option<&str>,
    kw: usize,
    body: (usize, usize),
) -> FnSummary {
    let toks = &ctx.lexed.tokens;
    let (bs, be) = body;
    let decl_line = toks[kw].line;
    let qual = match self_struct {
        Some(s) => format!("{krate}::{s}::{name}"),
        None => format!("{krate}::{name}"),
    };
    let mut summary = FnSummary {
        name: name.to_string(),
        qual,
        file: ctx.rel_path.clone(),
        line: decl_line,
        crate_name: krate.to_string(),
        acquires: Vec::new(),
        lock_edges: Vec::new(),
        calls: Vec::new(),
        awaits_under_guard: Vec::new(),
        sends_under_guard: Vec::new(),
        iter_sites: Vec::new(),
        has_sink: false,
    };

    // --- guards: find acquisitions and their live ranges -------------------
    let mut guards: Vec<LiveGuard> = Vec::new();
    for i in bs..be {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = ident_at(toks, i + 1) else { continue };
        if !ACQUIRE_METHODS.contains(&m)
            || !is_punct(toks, i + 2, '(')
            || !is_punct(toks, i + 3, ')')
        {
            continue;
        }
        let Some(lock) = resolve_lock(toks, i, fields, krate, self_struct) else { continue };
        let line = toks[i + 1].line;
        let stmt_start = statement_start(toks, bs, i);
        let end = if let Some(bound) = let_binding(toks, stmt_start) {
            guard_block_end(toks, i + 3, be, &bound)
        } else {
            guard_stmt_end(toks, i + 3, be)
        };
        summary.acquires.push(Acq { lock: lock.clone(), line });
        guards.push(LiveGuard { lock, line, start: i, end });
    }

    // intra-function order edges: b acquired while a live
    for a in &guards {
        for b in &guards {
            if b.start > a.start && b.start <= a.end && a.lock != b.lock {
                summary.lock_edges.push(LockEdge {
                    held: a.lock.clone(),
                    held_line: a.line,
                    inner: b.lock.clone(),
                    inner_line: toks[b.start].line,
                });
            }
        }
    }

    let holds_at = |i: usize| -> Vec<Acq> {
        guards
            .iter()
            .filter(|g| i > g.start && i <= g.end)
            .map(|g| Acq { lock: g.lock.clone(), line: g.line })
            .collect()
    };

    // --- calls, awaits, sends, sinks, hash locals --------------------------
    let hash_locals = hash_locals(toks, kw, be);
    for i in bs..be {
        let Some(id) = ident_at(toks, i) else { continue };
        if SINKS.contains(&id) {
            summary.has_sink = true;
        }
        if id == "await" && i > 0 && toks[i - 1].is_punct('.') {
            for h in holds_at(i) {
                summary.awaits_under_guard.push((h.lock, toks[i].line));
            }
            continue;
        }
        if matches!(id, "send" | "try_send" | "blocking_send")
            && i > 0
            && toks[i - 1].is_punct('.')
            && is_punct(toks, i + 1, '(')
        {
            for h in holds_at(i) {
                summary.sends_under_guard.push((h.lock, toks[i].line));
            }
        }
        // call site: `name(` that is not a declaration, macro, or stoplisted
        if is_punct(toks, i + 1, '(')
            && !CALL_STOPLIST.contains(&id)
            && ident_at(toks, i.wrapping_sub(1)) != Some("fn")
        {
            summary.calls.push(Call {
                callee: id.to_string(),
                line: toks[i].line,
                holds: holds_at(i),
            });
        }
    }

    // --- unordered-iteration sites ----------------------------------------
    collect_iter_sites(toks, bs, be, fields, krate, self_struct, &hash_locals, &mut summary);

    summary
}

/// Resolve the receiver of `.lock()`/`.read()`/`.write()` at dot index `i`
/// to a canonical `Struct::field` identity, or None when ambiguous.
fn resolve_lock(
    toks: &[Tok],
    i: usize,
    fields: &FieldMap,
    krate: &str,
    self_struct: Option<&str>,
) -> Option<String> {
    let f = ident_at(toks, i.wrapping_sub(1))?;
    let via_self =
        is_punct(toks, i.wrapping_sub(2), '.') && ident_at(toks, i.wrapping_sub(3)) == Some("self");
    if via_self {
        if let Some(s) = self_struct {
            if fields
                .get(krate)
                .and_then(|c| c.get(s))
                .and_then(|fs| fs.get(f))
                .is_some_and(|k| k.is_lock())
            {
                return Some(format!("{s}::{f}"));
            }
        }
    }
    // unique lock field named `f` in this crate, else workspace-wide
    unique_field(fields, Some(krate), f, FieldKind::is_lock)
        .or_else(|| unique_field(fields, None, f, FieldKind::is_lock))
}

/// The unique `Struct::field` with the given field name satisfying `pred`,
/// searching one crate or (with `krate: None`) the whole workspace.
fn unique_field(
    fields: &FieldMap,
    krate: Option<&str>,
    field: &str,
    pred: fn(FieldKind) -> bool,
) -> Option<String> {
    let mut found: Option<String> = None;
    for (c, structs) in fields {
        if krate.is_some_and(|k| k != c) {
            continue;
        }
        for (s, fs) in structs {
            if fs.get(field).copied().is_some_and(pred) {
                let id = format!("{s}::{field}");
                match &found {
                    None => found = Some(id),
                    Some(prev) if *prev != id => return None, // ambiguous
                    _ => {}
                }
            }
        }
    }
    found
}

/// Token index where the statement containing `i` starts (just after the
/// nearest `;`, `{` or `}` at or before `i`, clamped to the body start).
fn statement_start(toks: &[Tok], body_start: usize, i: usize) -> usize {
    let mut j = i;
    while j > body_start {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return j;
        }
        j -= 1;
    }
    body_start
}

/// If the statement at `start` is a simple `let [mut] name = ...` binding,
/// the bound name.
fn let_binding(toks: &[Tok], start: usize) -> Option<String> {
    if ident_at(toks, start)? != "let" {
        return None;
    }
    let mut j = start + 1;
    if ident_at(toks, j) == Some("mut") {
        j += 1;
    }
    let name = ident_at(toks, j)?;
    // `let Ok(g) = ...` / `let (a, b) = ...` are not simple bindings
    let next = toks.get(j + 1)?;
    if next.is_punct('=') || next.is_punct(':') {
        Some(name.to_string())
    } else {
        None
    }
}

/// Live range end for a `let`-bound guard: the enclosing block's close, an
/// explicit `drop(name)`, or a shadowing `let name =`, whichever is first.
fn guard_block_end(toks: &[Tok], from: usize, body_end: usize, name: &str) -> usize {
    let mut brace = 0i32;
    let mut i = from;
    while i < body_end {
        match &toks[i].kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => {
                brace -= 1;
                if brace < 0 {
                    return i.saturating_sub(1);
                }
            }
            TokKind::Ident if brace >= 0 => {
                // `drop(name)` ends the guard early
                if toks[i].is_ident("drop")
                    && is_punct(toks, i + 1, '(')
                    && ident_at(toks, i + 2) == Some(name)
                    && is_punct(toks, i + 3, ')')
                {
                    return i;
                }
                // shadowing `let [mut] name =`
                if toks[i].is_ident("let") {
                    let mut j = i + 1;
                    if ident_at(toks, j) == Some("mut") {
                        j += 1;
                    }
                    if ident_at(toks, j) == Some(name)
                        && toks.get(j + 1).is_some_and(|t| t.is_punct('=') || t.is_punct(':'))
                    {
                        return i.saturating_sub(1);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    body_end.saturating_sub(1)
}

/// Live range end for a temporary guard (`match x.lock() {...}`,
/// `*x.lock() = v;`): the end of the statement, including any block the
/// statement opens.
fn guard_stmt_end(toks: &[Tok], from: usize, body_end: usize) -> usize {
    let mut paren = 0i32; // may go negative: we start mid-expression
    let mut brace = 0i32;
    let mut opened_block = false;
    let mut i = from;
    while i < body_end {
        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct('{') => {
                brace += 1;
                if brace == 1 {
                    opened_block = true;
                }
            }
            TokKind::Punct('}') => {
                brace -= 1;
                if brace < 0 {
                    return i.saturating_sub(1);
                }
                if brace == 0 && opened_block {
                    match toks.get(i + 1) {
                        Some(n) if n.is_ident("else") => {}
                        Some(n) if n.is_punct(';') => return i + 1,
                        Some(n) if n.is_punct('.') => {}
                        _ => return i,
                    }
                }
            }
            TokKind::Punct(';') if brace == 0 && paren <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body_end.saturating_sub(1)
}

/// Names that are `HashMap`/`HashSet`-typed locals or parameters
/// (`x: HashMap<...>`, `let x = HashMap::new()`), scanning from the `fn`
/// keyword (so the signature's params are covered) to the body end.
fn hash_locals(toks: &[Tok], kw: usize, be: usize) -> Vec<String> {
    let mut out = Vec::new();
    for i in kw..be {
        let Some(id) = ident_at(toks, i) else { continue };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // `name: [&][mut] HashMap<...>`
        let mut j = i;
        while j > 0 && (toks[j - 1].is_punct('&') || ident_at(toks, j - 1) == Some("mut")) {
            j -= 1;
        }
        if j > 1 && toks[j - 1].is_punct(':') {
            if let Some(n) = ident_at(toks, j - 2) {
                out.push(n.to_string());
                continue;
            }
        }
        // `name = HashMap::new(...)` / `name = HashMap::with_capacity(...)`
        if j > 1 && toks[j - 1].is_punct('=') {
            if let Some(n) = ident_at(toks, j - 2) {
                out.push(n.to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Find unordered-iteration sites in the body and classify escapes.
#[allow(clippy::too_many_arguments)]
fn collect_iter_sites(
    toks: &[Tok],
    bs: usize,
    be: usize,
    fields: &FieldMap,
    krate: &str,
    self_struct: Option<&str>,
    hash_locals: &[String],
    summary: &mut FnSummary,
) {
    // does a sort intervene between `from` and the end of the function?
    let sort_after = |from: usize| -> bool {
        (from..be).any(|j| {
            ident_at(toks, j).is_some_and(|m| SORTS.contains(&m))
                && j > 0
                && toks[j - 1].is_punct('.')
        })
    };
    // is the statement containing `i` escaped (order-insensitive reduction
    // or ordered collection in the same statement)?
    let stmt_escape = |i: usize| -> bool {
        let end = guard_stmt_end(toks, i, be);
        (i..=end.min(be.saturating_sub(1))).any(|j| {
            ident_at(toks, j).is_some_and(|m| {
                (ORDER_INSENSITIVE.contains(&m) && is_punct(toks, j.wrapping_sub(1), '.'))
                    || m == "BTreeMap"
                    || m == "BTreeSet"
            })
        })
    };
    // resolve a receiver chain ending just before the `.m(` dot at `dot`
    let resolve_container = |dot: usize| -> Option<String> {
        let f = ident_at(toks, dot.wrapping_sub(1))?;
        if is_punct(toks, dot.wrapping_sub(2), '.') {
            if ident_at(toks, dot.wrapping_sub(3)) == Some("self") {
                let s = self_struct?;
                return fields
                    .get(krate)
                    .and_then(|c| c.get(s))
                    .and_then(|fs| fs.get(f))
                    .is_some_and(|k| k.is_hash())
                    .then(|| format!("{s}::{f}"));
            }
            // `expr.field.iter()`: unique hash field named `f` in this crate
            return unique_field(fields, Some(krate), f, FieldKind::is_hash);
        }
        // bare local
        hash_locals.contains(&f.to_string()).then(|| f.to_string())
    };

    for i in bs..be {
        let Some(id) = ident_at(toks, i) else { continue };
        // `container.iter()` and friends
        if ITER_METHODS.contains(&id)
            && i > 0
            && toks[i - 1].is_punct('.')
            && is_punct(toks, i + 1, '(')
        {
            if let Some(container) = resolve_container(i - 1) {
                let escaped = stmt_escape(i) || sort_after(i);
                summary.iter_sites.push(IterSite { container, line: toks[i].line, escaped });
            }
        }
        // `for x in [&][mut] chain { ... }`
        if id == "in" {
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.is_punct('&')) || ident_at(toks, j) == Some("mut") {
                j += 1;
            }
            // chain: ident (. ident)* directly followed by `{`
            let first = j;
            let mut last_ident = None;
            while let Some(_n) = ident_at(toks, j) {
                last_ident = Some(j);
                if is_punct(toks, j + 1, '.') && ident_at(toks, j + 2).is_some() {
                    j += 2;
                } else {
                    j += 1;
                    break;
                }
            }
            if !is_punct(toks, j, '{') {
                continue;
            }
            let Some(li) = last_ident else { continue };
            let f = ident_at(toks, li).unwrap_or("");
            let container = if li == first {
                hash_locals.contains(&f.to_string()).then(|| f.to_string())
            } else if ident_at(toks, first) == Some("self") && li == first + 2 {
                self_struct.and_then(|s| {
                    fields
                        .get(krate)
                        .and_then(|c| c.get(s))
                        .and_then(|fs| fs.get(f))
                        .is_some_and(|k| k.is_hash())
                        .then(|| format!("{s}::{f}"))
                })
            } else {
                unique_field(fields, Some(krate), f, FieldKind::is_hash)
            };
            if let Some(container) = container {
                // the loop body is the escape window for reductions
                let escaped = stmt_escape(i) || sort_after(i);
                summary.iter_sites.push(IterSite { container, line: toks[i].line, escaped });
            }
        }
    }
}
