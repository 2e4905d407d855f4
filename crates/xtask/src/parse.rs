//! Item parser and per-function fact extraction for `cargo xtask
//! analyze`.
//!
//! Walks the token stream of one file and produces:
//!
//! * the list of function items (free functions and impl methods, with
//!   the impl's self type attached) and their body token ranges;
//! * per function: call expressions, panic sinks, allocation sites,
//!   lock acquisitions + lexical lock-order edges, `SeqCst` uses —
//!   each tagged with whether it sits inside a rayon parallel closure
//!   or a loop body;
//! * per file: `unsafe` site lines (for the inventory ratchet) and the
//!   set of identifiers bound to `Mutex`/`RwLock` values.
//!
//! The parser is deliberately syntactic: no type inference, no trait
//! resolution. What that buys and what it cannot prove is documented in
//! DESIGN.md ("Static analysis architecture").

use crate::lex::{TokKind, Token};
use crate::source::SourceFile;

/// How a call names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `foo(..)` — a free function.
    Free,
    /// `expr.foo(..)` — a method on an unknown receiver type.
    Method,
    /// `self.foo(..)` — a method on the caller's own impl type.
    SelfMethod,
    /// `Type::foo(..)` — a method qualified with a (capitalized) type.
    Qualified(String),
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// Receiver shape, used for resolution.
    pub recv: Receiver,
    /// 1-based call-site line.
    pub line: usize,
    /// Token index of the callee name (for call-site argument parsing).
    pub at: usize,
    /// Inside a rayon parallel closure.
    pub in_par: bool,
    /// Inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
    /// Inside a closure passed to `spawn` (thread pool / scoped thread).
    pub in_spawn: bool,
}

/// What kind of panic a sink is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `unwrap` / `expect` / panicking macro.
    Call,
    /// Slice/array indexing or range slicing with a non-literal index.
    Index,
}

/// One potential panic site.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Classification (selects which allow-markers apply).
    pub kind: SinkKind,
    /// 1-based line.
    pub line: usize,
    /// Human rendering, e.g. `` `.unwrap()` `` or `` `offsets[e + 1]` ``.
    pub what: String,
}

/// One allocation site.
#[derive(Debug, Clone)]
pub struct Alloc {
    /// 1-based line.
    pub line: usize,
    /// Human rendering, e.g. `` `Vec::push` `` or `` `format!` ``.
    pub what: String,
    /// Inside a rayon parallel closure.
    pub in_par: bool,
    /// Inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
}

/// One lock acquisition (`.lock()` / `.read()` / `.write()` on a known
/// `Mutex`/`RwLock` binding).
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// The lock's binding name.
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Inside a rayon parallel closure.
    pub in_par: bool,
}

/// A lexical lock-order edge: `held` was still held when `then` was
/// acquired.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The already-held lock.
    pub held: String,
    /// The newly-acquired lock.
    pub then: String,
    /// Acquisition line of `then`.
    pub line: usize,
}

/// What an atomic operation does to its field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AtomicKind {
    /// `.load(..)`.
    Load,
    /// `.store(..)`.
    Store,
    /// Read-modify-write: `swap`, `fetch_*`, `compare_exchange*`.
    Rmw,
    /// A standalone `fence(..)`.
    Fence,
}

/// One atomic operation that names an `Ordering` variant. A
/// `compare_exchange` contributes two ops: the success ordering with
/// its RMW kind, the failure ordering as a `Load`.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    /// Receiver binding/field name (`generation`); `"<fence>"` for fences.
    pub field: String,
    /// Operation class.
    pub kind: AtomicKind,
    /// The `Ordering` variant named in the call (`Relaxed`, `Acquire`, …).
    pub ordering: String,
    /// 1-based line of the ordering argument.
    pub line: usize,
    /// Inside a `#[test]`/`#[cfg(test)]` region. Atomic facts are the
    /// one class recorded in test code too: a test's unsound ordering
    /// can mask the race it exists to catch.
    pub in_test: bool,
}

/// One write to shared mutable state, or to a binding captured by a
/// parallel closure.
#[derive(Debug, Clone)]
pub struct SharedWrite {
    /// 1-based line.
    pub line: usize,
    /// Human rendering, e.g. `` write to `static mut TOTAL` ``.
    pub what: String,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name (`build`).
    pub name: String,
    /// Impl self type, when the function is a method (`CoReport`).
    pub self_ty: Option<String>,
    /// 1-based declaration line (the `fn` token's line).
    pub decl_line: usize,
    /// Annotated `// analyze: no_panic` (a panic-freedom root).
    pub no_panic: bool,
    /// Declared inside a `#[cfg(test)]` region or `#[test]` item.
    pub is_test: bool,
    /// Signature declares a `Result<..>` return type.
    pub returns_result: bool,
    /// Body token range (absolute indices into the file's token stream).
    pub body: std::ops::Range<usize>,
    /// Calls made by the body.
    pub calls: Vec<Call>,
    /// Panic sinks in the body.
    pub sinks: Vec<Sink>,
    /// Allocation sites in the body.
    pub allocs: Vec<Alloc>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockAcq>,
    /// Lexical lock-order edges in the body.
    pub lock_edges: Vec<LockEdge>,
    /// Parameter names in declaration order (`self` excluded).
    pub params: Vec<String>,
    /// Atomic operations naming an explicit `Ordering`.
    pub atomics: Vec<AtomicOp>,
    /// Writes to shared state: `static mut` assignment, write methods
    /// on non-thread-local `Cell`/`RefCell` bindings.
    pub shared_writes: Vec<SharedWrite>,
    /// Mutations of captured (outer) bindings inside a parallel closure
    /// or spawned-thread closure.
    pub par_writes: Vec<SharedWrite>,
}

impl Function {
    /// Display name: `CoReport::build` or `for_each_event_in`.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Parse result for one file.
#[derive(Debug, Default, Clone)]
pub struct ParsedFile {
    /// All function items, in source order.
    pub functions: Vec<Function>,
    /// Lines carrying an `unsafe` site (block, fn, impl).
    pub unsafe_lines: Vec<usize>,
    /// Identifiers bound to `Mutex`/`RwLock` values in this file.
    pub lock_names: Vec<String>,
    /// Identifiers bound to `Cell`/`RefCell` values, excluding
    /// `thread_local!` declarations (each thread owns its copy).
    pub cell_names: Vec<String>,
    /// `static mut` binding names.
    pub static_muts: Vec<String>,
}

/// File-level name pools consulted during fact extraction.
struct NamePools<'a> {
    locks: &'a [String],
    cells: &'a [String],
    statics: &'a [String],
}

/// Rust keywords that look like call heads but are not.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "fn", "let",
    "mut", "ref", "box", "dyn", "use", "pub", "mod", "struct", "enum", "trait", "type", "const",
    "static", "impl", "where", "unsafe", "break", "continue", "crate", "super", "await",
];

/// Rayon entry points that open a parallel region.
const PAR_MARKERS: &[&str] =
    &["par_iter", "into_par_iter", "par_iter_mut", "par_chunks", "par_chunks_mut", "par_bridge"];

/// Per-worker init combinators: their first (init) closure runs once
/// per worker, so allocations inside it are not per-element.
const INIT_COMBINATORS: &[&str] = &["map_init", "for_each_init", "fold"];

/// Atomic read-modify-write method names.
const ATOMIC_RMW: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// The five `Ordering` variants.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Write methods on `Cell`/`RefCell` bindings.
const CELL_WRITE_METHODS: &[&str] = &["set", "replace", "replace_with", "borrow_mut", "take"];

/// Container-mutating methods that, applied to a binding captured by a
/// parallel closure, write state shared across workers.
const CAPTURE_MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "remove",
    "clear",
    "extend",
    "extend_from_slice",
    "pop",
    "truncate",
    "resize",
];

/// Macros that panic unconditionally or on a failed condition.
/// `debug_assert*` is deliberately absent: it is compiled out of release
/// builds, which are the binaries the paper's scans run as.
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Allocating methods (`.name(`).
const ALLOC_METHODS: &[&str] =
    &["push", "collect", "to_string", "to_vec", "to_owned", "extend", "extend_from_slice"];

/// Allocating `Type::func` constructors.
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("Box", "new"),
];

/// Parse one file's token stream into items + facts.
pub fn parse_file(file: &SourceFile, tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    find_items(file, tokens, &mut out);
    collect_lock_names(tokens, &mut out.lock_names);
    collect_cell_statics(tokens, &mut out.cell_names, &mut out.static_muts);
    collect_unsafe_sites(tokens, &mut out.unsafe_lines);

    // Child body ranges must not contribute facts to the parent (nested
    // `fn` items — rare, but cheap to get right).
    let ranges: Vec<std::ops::Range<usize>> =
        out.functions.iter().map(|f| f.body.clone()).collect();
    let pools =
        NamePools { locks: &out.lock_names, cells: &out.cell_names, statics: &out.static_muts };
    for (i, f) in out.functions.iter_mut().enumerate() {
        let children: Vec<std::ops::Range<usize>> = ranges
            .iter()
            .enumerate()
            .filter(|(j, r)| *j != i && r.start >= f.body.start && r.end <= f.body.end)
            .map(|(_, r)| r.clone())
            .collect();
        extract_facts(file, tokens, f, &children, &pools);
        collect_atomics(file, tokens, f, &children);
    }
    out
}

/// Locate impl scopes and function items with their body token ranges.
fn find_items(file: &SourceFile, tokens: &[Token], out: &mut ParsedFile) {
    let mut depth: i32 = 0; // brace depth
    let mut paren: i32 = 0;
    // Open impl scopes: (self_ty, brace depth inside the impl body).
    let mut impls: Vec<(String, i32)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    // A `fn` header seen; waiting for its body `{` or a `;`. The third
    // field is the `fn` token index, so the signature can be re-scanned
    // (return type) when the body opens.
    let mut pending_fn: Option<(String, usize, usize)> = None;
    // Open fn bodies: (function index, brace depth inside the body).
    let mut open_fns: Vec<(usize, i32)> = Vec::new();

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokKind::LParen => paren += 1,
            TokKind::RParen => paren -= 1,
            TokKind::LBrace => {
                depth += 1;
                if let Some((name, line, fn_tok)) = pending_fn.take() {
                    let idx = out.functions.len();
                    out.functions.push(Function {
                        name,
                        self_ty: impls.last().map(|(t, _)| t.clone()),
                        decl_line: line,
                        no_panic: has_no_panic_annotation(file, line),
                        is_test: *file.in_test.get(line - 1).unwrap_or(&false),
                        returns_result: signature_returns_result(tokens, fn_tok, i),
                        body: i + 1..i + 1, // end patched on close
                        calls: Vec::new(),
                        sinks: Vec::new(),
                        allocs: Vec::new(),
                        locks: Vec::new(),
                        lock_edges: Vec::new(),
                        params: param_names(tokens, fn_tok, i),
                        atomics: Vec::new(),
                        shared_writes: Vec::new(),
                        par_writes: Vec::new(),
                    });
                    open_fns.push((idx, depth));
                } else if let Some(ty) = pending_impl.take() {
                    impls.push((ty, depth));
                }
            }
            TokKind::RBrace => {
                depth -= 1;
                if open_fns.last().is_some_and(|&(_, d)| depth < d) {
                    let (idx, _) = open_fns.pop().unwrap_or((0, 0));
                    if let Some(f) = out.functions.get_mut(idx) {
                        f.body.end = i;
                    }
                }
                if impls.last().is_some_and(|&(_, d)| depth < d) {
                    impls.pop();
                }
            }
            TokKind::Ident if t.text == "impl" && pending_fn.is_none() => {
                pending_impl = parse_impl_self_ty(tokens, i);
            }
            TokKind::Ident if t.text == "fn" => {
                // `fn(..)` pointer types have no name token.
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokKind::Ident {
                        pending_fn = Some((next.text.clone(), next.line, i));
                    }
                }
            }
            TokKind::Punct if t.text == ";" && paren == 0 => {
                // Bodiless signature (trait method, extern) — discard.
                pending_fn = None;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Does the signature spanning tokens `[fn_tok, body_open)` declare a
/// `Result` return type? Scans from the `->` arrow to the body brace
/// (covering `Result<..>`, `io::Result<..>`, `anyhow::Result`).
fn signature_returns_result(tokens: &[Token], fn_tok: usize, body_open: usize) -> bool {
    let Some(arrow) =
        (fn_tok..body_open).find(|&j| tokens[j].kind == TokKind::Punct && tokens[j].text == "->")
    else {
        return false;
    };
    tokens[arrow..body_open].iter().any(|t| t.is("Result"))
}

/// Extract the self type of an `impl` header starting at token `at`.
fn parse_impl_self_ty(tokens: &[Token], at: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    for t in tokens.iter().skip(at + 1).take(64) {
        match t.kind {
            TokKind::LBrace | TokKind::RBrace => break,
            TokKind::Punct if t.text == "<" => angle += 1,
            TokKind::Punct if t.text == ">" => angle -= 1,
            TokKind::Punct if t.text == ";" => break,
            TokKind::Ident if angle == 0 => {
                if t.text == "for" {
                    saw_for = true;
                } else if !matches!(t.text.as_str(), "mut" | "dyn" | "const" | "unsafe") {
                    if saw_for {
                        if after_for.is_none() {
                            after_for = Some(t.text.clone());
                        }
                    } else if first.is_none() {
                        first = Some(t.text.clone());
                    }
                }
            }
            _ => {}
        }
    }
    after_for.or(first)
}

/// Does the function declared at `decl_line` carry an
/// `// analyze: no_panic` annotation (same line, or in the contiguous
/// run of comment/attribute lines directly above)?
fn has_no_panic_annotation(file: &SourceFile, decl_line: usize) -> bool {
    // The marker must be the comment's leading content (`// analyze:
    // no_panic`) — prose *mentioning* the marker (doc comments, this
    // function included) must not create a kernel root.
    let marked = |idx: usize| {
        file.lines.get(idx).is_some_and(|l| {
            l.comment.trim_start_matches(['/', '!']).trim_start().starts_with("analyze: no_panic")
        })
    };
    let idx = decl_line - 1;
    if marked(idx) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &file.lines[j];
        let code = l.code.trim();
        let is_annotation = code.is_empty() || code.starts_with("#[");
        if marked(j) {
            return true;
        }
        if !is_annotation {
            return false;
        }
    }
    false
}

/// Collect identifiers bound to `Mutex`/`RwLock` values anywhere in the
/// file: `name: Mutex<..>` field/param declarations and
/// `let name = .. Mutex::new(..)` bindings.
fn collect_lock_names(tokens: &[Token], out: &mut Vec<String>) {
    let mut last_let_ident: Option<String> = None;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            if t.text == ";" {
                last_let_ident = None;
            }
            continue;
        }
        if t.is("let") {
            // `let [mut] name`
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is("mut")) {
                j += 1;
            }
            if let Some(n) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) {
                last_let_ident = Some(n.text.clone());
            }
        } else if t.text == "Mutex" || t.text == "RwLock" {
            let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
            let prev2 = i.checked_sub(2).and_then(|j| tokens.get(j));
            if prev.is_some_and(|p| p.text == ":") {
                // `name: Mutex<..>` — field or parameter.
                if let Some(n) = prev2.filter(|t| t.kind == TokKind::Ident) {
                    push_unique(out, &n.text);
                }
            } else if tokens.get(i + 1).is_some_and(|t| t.text == "::")
                && tokens.get(i + 2).is_some_and(|t| t.is("new"))
            {
                if let Some(n) = &last_let_ident {
                    push_unique(out, n);
                }
            }
        }
    }
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Collect interior-mutability binding names (`name: Cell<..>` /
/// `RefCell<..>` fields, `let name = Cell::new(..)`) and `static mut`
/// names. Declarations inside `thread_local!` blocks are skipped: each
/// thread owns its copy, so writes through them cannot race.
fn collect_cell_statics(tokens: &[Token], cells: &mut Vec<String>, statics: &mut Vec<String>) {
    let mut last_let_ident: Option<String> = None;
    let mut depth = 0i32;
    // Brace depth of an open `thread_local! { .. }` body, if any.
    let mut tl_depth: Option<i32> = None;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::LBrace => depth += 1,
            TokKind::RBrace => {
                depth -= 1;
                if tl_depth.is_some_and(|d| depth < d) {
                    tl_depth = None;
                }
            }
            TokKind::Punct if t.text == ";" => last_let_ident = None,
            TokKind::Ident => {
                if t.is("thread_local") && tokens.get(i + 1).is_some_and(|n| n.text == "!") {
                    tl_depth = Some(depth + 1);
                } else if t.is("let") {
                    let mut j = i + 1;
                    if tokens.get(j).is_some_and(|t| t.is("mut")) {
                        j += 1;
                    }
                    if let Some(n) = tokens.get(j).filter(|t| t.kind == TokKind::Ident) {
                        last_let_ident = Some(n.text.clone());
                    }
                } else if t.is("static")
                    && tl_depth.is_none()
                    && tokens.get(i + 1).is_some_and(|n| n.is("mut"))
                {
                    if let Some(n) = tokens.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                        push_unique(statics, &n.text);
                    }
                } else if (t.text == "Cell" || t.text == "RefCell") && tl_depth.is_none() {
                    let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
                    let prev2 = i.checked_sub(2).and_then(|j| tokens.get(j));
                    if prev.is_some_and(|p| p.text == ":") {
                        // `name: Cell<..>` — field or parameter.
                        if let Some(n) = prev2.filter(|t| t.kind == TokKind::Ident) {
                            push_unique(cells, &n.text);
                        }
                    } else if tokens.get(i + 1).is_some_and(|t| t.text == "::")
                        && tokens.get(i + 2).is_some_and(|t| t.is("new"))
                    {
                        if let Some(n) = &last_let_ident {
                            push_unique(cells, n);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Parameter names declared by the signature spanning
/// `[fn_tok, body_open)`, in order. `self` receivers and destructuring
/// patterns are skipped — only simple `name: Ty` bindings lift.
fn param_names(tokens: &[Token], fn_tok: usize, body_open: usize) -> Vec<String> {
    let mut out = Vec::new();
    // Skip generics (`fn f<F: Fn(u32)>(..)`) to the parameter `(`.
    let mut angle = 0i32;
    let mut i = fn_tok + 1;
    while i < body_open {
        match tokens[i].text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            _ => {}
        }
        if angle == 0 && tokens[i].kind == TokKind::LParen {
            break;
        }
        i += 1;
    }
    let mut depth = 0i32;
    // At a position where a binding pattern may start.
    let mut expect = true;
    while i < body_open {
        let t = &tokens[i];
        match t.kind {
            TokKind::LParen => depth += 1,
            TokKind::RParen => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if depth == 1 && t.kind != TokKind::LParen {
            if t.text == "," {
                expect = true;
            } else if expect {
                if t.is("mut") || t.is("ref") || t.text == "&" {
                    // Still expecting the binding name.
                } else if t.kind == TokKind::Ident
                    && !KEYWORDS.contains(&t.text.as_str())
                    && tokens.get(i + 1).is_some_and(|n| n.text == ":")
                {
                    out.push(t.text.clone());
                    expect = false;
                } else {
                    expect = false;
                }
            }
        }
        i += 1;
    }
    out
}

/// Record `unsafe` site lines (block / fn / impl / trait / extern forms).
fn collect_unsafe_sites(tokens: &[Token], out: &mut Vec<usize>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is("unsafe") {
            continue;
        }
        let site = match tokens.get(i + 1) {
            Some(n) => {
                n.kind == TokKind::LBrace
                    || n.is("fn")
                    || n.is("impl")
                    || n.is("trait")
                    || n.is("extern")
                    || n.line > t.line // `unsafe` alone, `{` on the next line
            }
            None => true,
        };
        if site {
            out.push(t.line);
        }
    }
}

/// Walk one function body and record calls, sinks, allocations, locks,
/// shared-state writes and captured-binding mutations.
fn extract_facts(
    file: &SourceFile,
    tokens: &[Token],
    f: &mut Function,
    children: &[std::ops::Range<usize>],
    pools: &NamePools<'_>,
) {
    // Combined paren+brace+bracket nesting, relative to the body start.
    let mut nest: i32 = 0;
    // Parallel regions: nesting depth at each open marker.
    let mut par_stack: Vec<i32> = Vec::new();
    // Spawned-thread closures: nesting depth at each `spawn(`.
    let mut spawn_stack: Vec<i32> = Vec::new();
    // Nest level of an open `map_init`/`for_each_init` argument list;
    // cleared at its first top-level comma (end of the init closure).
    let mut init_zone: Option<i32> = None;
    // After that comma, the next closure's first parameter is the
    // per-worker scratch binding — growth on it is amortized.
    let mut pending_scratch = false;
    let mut scratch_names: Vec<String> = Vec::new();
    // Bindings introduced inside the current parallel/spawn region
    // (closure params, `let`s, `for` patterns) — mutating these is
    // worker-local, not a capture.
    let mut par_local: Vec<String> = Vec::new();
    // Between the `|`s of a closure parameter list.
    let mut collecting_params = false;
    // Loop bodies: brace depth at open. `pending_loop` waits for the `{`.
    let mut brace: i32 = 0;
    let mut loop_stack: Vec<i32> = Vec::new();
    let mut pending_loop = false;
    // Held locks: (name, brace depth at acquisition, let-bound).
    let mut held: Vec<(String, i32, bool)> = Vec::new();
    let mut stmt_has_let = false;

    let mut i = f.body.start;
    while i < f.body.end {
        if let Some(r) = children.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let t = &tokens[i];
        let in_test_line = *file.in_test.get(t.line - 1).unwrap_or(&false);
        let in_par = par_stack.last().is_some_and(|&d| nest > d);
        let in_spawn = spawn_stack.last().is_some_and(|&d| nest > d);
        // Allocations inside an init closure run once per worker.
        let alloc_par = in_par && init_zone.is_none();

        match t.kind {
            TokKind::LParen | TokKind::LBracket => nest += 1,
            TokKind::RParen | TokKind::RBracket => {
                nest -= 1;
                while par_stack.last().is_some_and(|&d| nest < d) {
                    par_stack.pop();
                }
                while spawn_stack.last().is_some_and(|&d| nest < d) {
                    spawn_stack.pop();
                }
                if init_zone.is_some_and(|d| nest < d) {
                    init_zone = None;
                }
                if par_stack.is_empty() && spawn_stack.is_empty() {
                    par_local.clear();
                    scratch_names.clear();
                    pending_scratch = false;
                    collecting_params = false;
                }
            }
            TokKind::LBrace => {
                nest += 1;
                brace += 1;
                if pending_loop {
                    loop_stack.push(brace);
                    pending_loop = false;
                }
            }
            TokKind::RBrace => {
                nest -= 1;
                while par_stack.last().is_some_and(|&d| nest < d) {
                    par_stack.pop();
                }
                while spawn_stack.last().is_some_and(|&d| nest < d) {
                    spawn_stack.pop();
                }
                while loop_stack.last().is_some_and(|&d| brace <= d) {
                    loop_stack.pop();
                }
                brace -= 1;
                held.retain(|&(_, d, _)| d <= brace);
                if par_stack.is_empty() && spawn_stack.is_empty() {
                    par_local.clear();
                    scratch_names.clear();
                    pending_scratch = false;
                    collecting_params = false;
                }
            }
            TokKind::Punct if t.text == "|" => {
                if collecting_params {
                    collecting_params = false;
                } else if (in_par || in_spawn)
                    && i.checked_sub(1).and_then(|j| tokens.get(j)).is_some_and(|p| {
                        p.kind == TokKind::LParen || p.text == "," || p.text == "=" || p.is("move")
                    })
                {
                    collecting_params = true;
                }
            }
            TokKind::Punct if t.text == "," && init_zone.is_some_and(|d| nest == d) => {
                // End of an init combinator's first (init) argument: the
                // operator closure comes next, leading with its scratch.
                init_zone = None;
                pending_scratch = true;
            }
            TokKind::Punct if t.text == "=" && !in_test_line => {
                // Assignment / compound assignment: find the written
                // binding. Skips `==`, `!=`, `<=`, `>=`, `..=` (and the
                // second `=` of `==`); `=>` is fused by the lexer.
                let next_eq = tokens.get(i + 1).is_some_and(|n| n.text == "=");
                let prev_txt = i
                    .checked_sub(1)
                    .and_then(|j| tokens.get(j))
                    .map(|p| p.text.clone())
                    .unwrap_or_default();
                if !next_eq && !matches!(prev_txt.as_str(), "=" | "!" | "<" | ">" | "..") {
                    let compound =
                        matches!(prev_txt.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^");
                    let start = if compound { i.saturating_sub(2) } else { i.saturating_sub(1) };
                    if let Some(base) = assign_base(tokens, start, f.body.start) {
                        if pools.statics.contains(&base) {
                            f.shared_writes.push(SharedWrite {
                                line: t.line,
                                what: format!("write to `static mut {base}`"),
                            });
                        } else if (in_par || in_spawn) && base != "_" && !par_local.contains(&base)
                        {
                            f.par_writes.push(SharedWrite {
                                line: t.line,
                                what: format!("mutation of captured `{base}`"),
                            });
                        }
                    }
                }
            }
            TokKind::Punct if t.text == ";" => {
                if par_stack.last().is_some_and(|&d| nest <= d) {
                    par_stack.pop();
                }
                if spawn_stack.last().is_some_and(|&d| nest <= d) {
                    spawn_stack.pop();
                }
                if par_stack.is_empty() && spawn_stack.is_empty() {
                    par_local.clear();
                    scratch_names.clear();
                    collecting_params = false;
                }
                pending_scratch = false;
                stmt_has_let = false;
                held.retain(|&(_, _, let_bound)| let_bound);
            }
            TokKind::Ident if !in_test_line => {
                let text = t.text.as_str();
                let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
                let prev_dot = prev.is_some_and(|p| p.text == ".");
                let prev_colons = prev.is_some_and(|p| p.text == "::");
                let next = tokens.get(i + 1);
                let next_bang = next.is_some_and(|n| n.text == "!");
                let next_paren = next.is_some_and(|n| n.kind == TokKind::LParen);

                if collecting_params && !KEYWORDS.contains(&text) {
                    par_local.push(text.to_string());
                    if pending_scratch {
                        scratch_names.push(text.to_string());
                        pending_scratch = false;
                    }
                }
                if text == "spawn" && next_paren {
                    spawn_stack.push(nest);
                }
                // Only a combinator chained directly onto a parallel
                // iterator (same nest level as its marker) opens an
                // init zone; a sequential `.fold(..)` nested inside a
                // par closure still allocates per element.
                if INIT_COMBINATORS.contains(&text)
                    && next_paren
                    && prev_dot
                    && par_stack.last() == Some(&nest)
                {
                    init_zone = Some(nest + 1);
                }

                if text == "let" {
                    stmt_has_let = true;
                    if in_par || in_spawn {
                        // Pattern idents up to `:`/`=`/`;` are region-local.
                        for n in tokens.iter().skip(i + 1).take(8) {
                            if matches!(n.text.as_str(), ":" | "=" | ";") {
                                break;
                            }
                            if n.kind == TokKind::Ident && !KEYWORDS.contains(&n.text.as_str()) {
                                par_local.push(n.text.clone());
                            }
                        }
                    }
                } else if matches!(text, "for" | "while" | "loop") {
                    pending_loop = true;
                    if text == "for" && (in_par || in_spawn) {
                        for n in tokens.iter().skip(i + 1).take(8) {
                            if n.is("in") {
                                break;
                            }
                            if n.kind == TokKind::Ident && !KEYWORDS.contains(&n.text.as_str()) {
                                par_local.push(n.text.clone());
                            }
                        }
                    }
                } else if next_bang {
                    // Macro invocation.
                    if PANIC_MACROS.contains(&text) {
                        f.sinks.push(Sink {
                            kind: SinkKind::Call,
                            line: t.line,
                            what: format!("`{text}!`"),
                        });
                    } else if ALLOC_MACROS.contains(&text) {
                        f.allocs.push(Alloc {
                            line: t.line,
                            what: format!("`{text}!`"),
                            in_par: alloc_par,
                            in_loop: !loop_stack.is_empty(),
                        });
                    }
                } else if next_paren && prev_dot {
                    method_facts(
                        tokens,
                        i,
                        f,
                        pools,
                        ParCtx {
                            in_par,
                            in_spawn,
                            alloc_par,
                            par_local: &par_local,
                            scratch: &scratch_names,
                        },
                        &loop_stack,
                        &mut held,
                        brace,
                        stmt_has_let,
                        &mut par_stack,
                        nest,
                    );
                } else if next_paren && !KEYWORDS.contains(&text) {
                    // Free or qualified call.
                    let recv = if prev_colons {
                        let qual = i
                            .checked_sub(2)
                            .and_then(|j| tokens.get(j))
                            .filter(|q| q.kind == TokKind::Ident)
                            .map(|q| q.text.clone());
                        match qual {
                            Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                                if let Some(&(_, ctor)) =
                                    ALLOC_CTORS.iter().find(|(ty, c)| *ty == q && *c == text)
                                {
                                    f.allocs.push(Alloc {
                                        line: t.line,
                                        what: format!("`{q}::{ctor}`"),
                                        in_par: alloc_par,
                                        in_loop: !loop_stack.is_empty(),
                                    });
                                }
                                Receiver::Qualified(q)
                            }
                            _ => Receiver::Free,
                        }
                    } else {
                        Receiver::Free
                    };
                    f.calls.push(Call {
                        name: text.to_string(),
                        recv,
                        line: t.line,
                        at: i,
                        in_par,
                        in_loop: !loop_stack.is_empty(),
                        in_spawn,
                    });
                }
            }
            _ => {}
        }

        // Indexing sinks: `expr[non-literal]` — checked on the bracket.
        if t.kind == TokKind::LBracket && !in_test_line {
            if let Some(s) = index_sink(tokens, i, f.body.end) {
                f.sinks.push(s);
            }
        }
        i += 1;
    }
}

/// Parallel-region context threaded into [`method_facts`].
struct ParCtx<'a> {
    in_par: bool,
    in_spawn: bool,
    alloc_par: bool,
    par_local: &'a [String],
    scratch: &'a [String],
}

/// Handle `.name(` method positions: calls, sinks, allocations, rayon
/// markers, lock acquisitions, interior-mutability writes and captured
/// container mutations.
#[allow(clippy::too_many_arguments)]
fn method_facts(
    tokens: &[Token],
    i: usize,
    f: &mut Function,
    pools: &NamePools<'_>,
    par: ParCtx<'_>,
    loop_stack: &[i32],
    held: &mut Vec<(String, i32, bool)>,
    brace: i32,
    stmt_has_let: bool,
    par_stack: &mut Vec<i32>,
    nest: i32,
) {
    let t = &tokens[i];
    let text = t.text.as_str();
    let empty_args = tokens.get(i + 2).is_some_and(|n| n.kind == TokKind::RParen);

    if PAR_MARKERS.contains(&text) {
        par_stack.push(nest);
        return;
    }
    if text == "unwrap" && empty_args {
        f.sinks.push(Sink { kind: SinkKind::Call, line: t.line, what: "`.unwrap()`".into() });
        return;
    }
    if text == "expect" {
        f.sinks.push(Sink { kind: SinkKind::Call, line: t.line, what: "`.expect(..)`".into() });
        return;
    }
    if ALLOC_METHODS.contains(&text) {
        // Growth of an init-combinator scratch binding amortizes over
        // the worker's whole chunk (the capacity survives between
        // elements) — not a per-element allocation.
        let on_scratch =
            method_recv_base(tokens, i).is_some_and(|(base, _)| par.scratch.contains(&base));
        if !on_scratch {
            f.allocs.push(Alloc {
                line: t.line,
                what: format!("`.{text}(..)`"),
                in_par: par.alloc_par,
                in_loop: !loop_stack.is_empty(),
            });
        }
        // `collect` and friends are still calls (resolution finds
        // workspace impls if any) — fall through.
    }
    if matches!(text, "lock" | "read" | "write") {
        // Receiver ident: token before the `.`.
        let recv = i
            .checked_sub(2)
            .and_then(|j| tokens.get(j))
            .filter(|r| r.kind == TokKind::Ident)
            .map(|r| r.text.clone());
        if let Some(name) = recv.filter(|n| pools.locks.iter().any(|l| l == n)) {
            for (h, _, _) in held.iter() {
                if *h != name {
                    f.lock_edges.push(LockEdge {
                        held: h.clone(),
                        then: name.clone(),
                        line: t.line,
                    });
                }
            }
            f.locks.push(LockAcq { name: name.clone(), line: t.line, in_par: par.in_par });
            held.push((name, brace, stmt_has_let));
            return;
        }
    }
    // Interior-mutability writes: `cell.set(..)` / `cell.borrow_mut()`
    // on a known (non-thread-local) `Cell`/`RefCell` binding is a
    // shared-state write wherever it happens — a caller running it
    // from a parallel closure races even if this function is serial.
    let cell_write = CELL_WRITE_METHODS.contains(&text);
    let recv_base = method_recv_base(tokens, i);
    if cell_write {
        if let Some((base, _)) = &recv_base {
            if pools.cells.iter().any(|c| c == base) {
                f.shared_writes.push(SharedWrite {
                    line: t.line,
                    what: format!("`{base}.{text}(..)` on interior-mutable `{base}`"),
                });
            }
        }
    }
    // Captured-container mutation inside a parallel/spawn closure:
    // `.push(..)` etc. on a binding from outside the region, unless the
    // receiver chain goes through a lock guard.
    if (par.in_par || par.in_spawn) && (cell_write || CAPTURE_MUT_METHODS.contains(&text)) {
        if let Some((base, synced)) = &recv_base {
            if !synced
                && !par.par_local.iter().any(|l| l == base)
                && !pools.locks.iter().any(|l| l == base)
            {
                f.par_writes.push(SharedWrite {
                    line: t.line,
                    what: format!("`.{text}(..)` on captured `{base}`"),
                });
            }
        }
    }

    // Receiver shape: `self.name(` is resolvable to the caller's impl.
    let recv = if i.checked_sub(2).and_then(|j| tokens.get(j)).is_some_and(|r| r.is("self")) {
        Receiver::SelfMethod
    } else {
        Receiver::Method
    };
    f.calls.push(Call {
        name: text.to_string(),
        recv,
        line: t.line,
        at: i,
        in_par: par.in_par,
        in_loop: !loop_stack.is_empty(),
        in_spawn: par.in_spawn,
    });
}

/// Leading binding name of the receiver chain ending just before the
/// `.` at `method_at - 1`, plus whether the chain passes through a
/// lock-guard acquisition (`.lock()` / `.read()` / `.write()`).
fn method_recv_base(tokens: &[Token], method_at: usize) -> Option<(String, bool)> {
    let mut j = method_at.checked_sub(2)?;
    let mut synced = false;
    let mut base: Option<String> = None;
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > 64 {
            break;
        }
        let t = &tokens[j];
        match t.kind {
            TokKind::RParen | TokKind::RBracket => {
                let (open, close) = if t.kind == TokKind::RParen {
                    (TokKind::LParen, TokKind::RParen)
                } else {
                    (TokKind::LBracket, TokKind::RBracket)
                };
                let mut depth = 1i32;
                let mut k = j;
                while depth > 0 {
                    if k == 0 {
                        return base.map(|b| (b, synced));
                    }
                    k -= 1;
                    if tokens[k].kind == close {
                        depth += 1;
                    } else if tokens[k].kind == open {
                        depth -= 1;
                    }
                }
                // A call group: note synchronizing method names.
                if close == TokKind::RParen
                    && k > 0
                    && tokens[k - 1].kind == TokKind::Ident
                    && !KEYWORDS.contains(&tokens[k - 1].text.as_str())
                {
                    if matches!(tokens[k - 1].text.as_str(), "lock" | "read" | "write") {
                        synced = true;
                    }
                    base = Some(tokens[k - 1].text.clone());
                    if k < 2 {
                        break;
                    }
                    j = k - 2;
                    continue;
                }
                if k == 0 {
                    break;
                }
                j = k - 1;
            }
            TokKind::Ident if t.is("self") => {
                base = Some("self".into());
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            TokKind::Ident if !KEYWORDS.contains(&t.text.as_str()) => {
                base = Some(t.text.clone());
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            TokKind::Punct if t.text == "." => {
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            _ => break,
        }
    }
    base.map(|b| (b, synced))
}

/// Walk back from `at` over an lvalue expression (`a.b[k].c`, `*p`) and
/// return its leading binding name.
fn assign_base(tokens: &[Token], at: usize, floor: usize) -> Option<String> {
    let mut j = at;
    let mut base: Option<String> = None;
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > 64 || j < floor {
            break;
        }
        let t = &tokens[j];
        match t.kind {
            TokKind::RBracket => {
                let mut depth = 1i32;
                while depth > 0 {
                    if j <= floor {
                        return base;
                    }
                    j -= 1;
                    match tokens[j].kind {
                        TokKind::RBracket => depth += 1,
                        TokKind::LBracket => depth -= 1,
                        _ => {}
                    }
                }
                if j <= floor {
                    break;
                }
                j -= 1;
            }
            TokKind::Ident if t.is("self") => {
                base = Some("self".into());
                if j <= floor {
                    break;
                }
                j -= 1;
            }
            TokKind::Ident if !KEYWORDS.contains(&t.text.as_str()) => {
                base = Some(t.text.clone());
                if j <= floor {
                    break;
                }
                j -= 1;
            }
            TokKind::Punct if t.text == "." || t.text == "*" => {
                if j <= floor {
                    break;
                }
                j -= 1;
            }
            _ => break,
        }
    }
    base
}

/// Record atomic operations that name an explicit `Ordering`, test code
/// included. Nested atomic calls inside another's argument list are
/// skipped here (they are visited at their own position).
fn collect_atomics(
    file: &SourceFile,
    tokens: &[Token],
    f: &mut Function,
    children: &[std::ops::Range<usize>],
) {
    let atomic_head = |j: usize| -> Option<AtomicKind> {
        let t = tokens.get(j)?;
        if t.kind != TokKind::Ident || tokens.get(j + 1).map(|n| n.kind) != Some(TokKind::LParen) {
            return None;
        }
        let prev_dot = j.checked_sub(1).and_then(|k| tokens.get(k)).is_some_and(|p| p.text == ".");
        match t.text.as_str() {
            "load" if prev_dot => Some(AtomicKind::Load),
            "store" if prev_dot => Some(AtomicKind::Store),
            "fence" if !prev_dot => Some(AtomicKind::Fence),
            m if prev_dot && ATOMIC_RMW.contains(&m) => Some(AtomicKind::Rmw),
            _ => None,
        }
    };
    let mut i = f.body.start;
    while i < f.body.end {
        if let Some(r) = children.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let Some(kind) = atomic_head(i) else {
            i += 1;
            continue;
        };
        // Collect `Ordering` variant idents inside the call's parens,
        // skipping nested atomic calls (they record themselves).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut ords: Vec<(String, usize)> = Vec::new();
        while j < f.body.end {
            if j > i + 1 && atomic_head(j).is_some() {
                let mut d = 0i32;
                j += 1; // at the `(`
                while j < f.body.end {
                    match tokens[j].kind {
                        TokKind::LParen => d += 1,
                        TokKind::RParen => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
                continue;
            }
            match tokens[j].kind {
                TokKind::LParen => depth += 1,
                TokKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if ORDERINGS.contains(&tokens[j].text.as_str()) => {
                    ords.push((tokens[j].text.clone(), tokens[j].line));
                }
                _ => {}
            }
            j += 1;
        }
        if !ords.is_empty() {
            let field = if kind == AtomicKind::Fence {
                Some("<fence>".to_string())
            } else {
                i.checked_sub(2)
                    .and_then(|k| tokens.get(k))
                    .filter(|r| r.kind == TokKind::Ident && !KEYWORDS.contains(&r.text.as_str()))
                    .map(|r| r.text.clone())
            };
            if let Some(field) = field {
                let in_test = *file.in_test.get(tokens[i].line - 1).unwrap_or(&false);
                for (n, (ordering, line)) in ords.into_iter().enumerate() {
                    // A CAS failure ordering (second variant named) is
                    // a load.
                    let k = if n == 0 { kind } else { AtomicKind::Load };
                    f.atomics.push(AtomicOp {
                        field: field.clone(),
                        kind: k,
                        ordering,
                        line,
                        in_test,
                    });
                }
            }
        }
        i += 1;
    }
}

/// If the `[` at token `at` indexes a value with a non-literal
/// expression, return the sink. Shared with the `index_bounds` prover
/// so both passes agree on what counts as an index site.
pub fn index_sink(tokens: &[Token], at: usize, limit: usize) -> Option<Sink> {
    let prev = at.checked_sub(1).and_then(|j| tokens.get(j))?;
    // Must follow an indexable expression ending: ident, `)`, or `]` —
    // and not be an attribute (`#[..]`).
    let indexable = matches!(prev.kind, TokKind::Ident | TokKind::RParen | TokKind::RBracket)
        && !KEYWORDS.contains(&prev.text.as_str());
    if !indexable || prev.text == "#" {
        return None;
    }
    if at.checked_sub(2).and_then(|j| tokens.get(j)).is_some_and(|p| p.text == "#") {
        return None;
    }
    // Scan the bracket body.
    let mut depth = 1;
    let mut has_ident = false;
    let mut body = String::new();
    for t in tokens.iter().take(limit).skip(at + 1) {
        match t.kind {
            TokKind::LBracket => depth += 1,
            TokKind::RBracket => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident => {
                // Type-suffix-free identifiers make the index dynamic.
                has_ident = true;
            }
            _ => {}
        }
        if !body.is_empty() && t.kind == TokKind::Ident {
            body.push(' ');
        }
        body.push_str(&t.text);
        if body.len() > 40 {
            break;
        }
    }
    if !has_ident {
        return None; // literal or literal-range index
    }
    let recv = prev.text.clone();
    Some(Sink { kind: SinkKind::Index, line: tokens[at].line, what: format!("`{recv}[{body}]`") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::tokenize;

    fn parse(src: &str) -> ParsedFile {
        let file = SourceFile::parse(src);
        let tokens = tokenize(&file);
        parse_file(&file, &tokens)
    }

    #[test]
    fn functions_and_impls_are_found() {
        let src = "\
fn free() { helper(); }
impl CoReport {
    pub fn build(&self) -> u32 {
        self.pair_count(1)
    }
}
impl Merge for Matrix<u64> {
    fn merge(&mut self) {}
}
";
        let p = parse(src);
        let names: Vec<String> = p.functions.iter().map(Function::display).collect();
        assert_eq!(names, vec!["free", "CoReport::build", "Matrix::merge"]);
        assert_eq!(p.functions[1].calls.len(), 1);
        assert_eq!(p.functions[1].calls[0].recv, Receiver::SelfMethod);
    }

    #[test]
    fn no_panic_annotation_detected() {
        let src = "\
// analyze: no_panic
#[inline]
pub fn kernel() {}
fn plain() {}
";
        let p = parse(src);
        assert!(p.functions[0].no_panic);
        assert!(!p.functions[1].no_panic);
    }

    #[test]
    fn sinks_are_classified() {
        let src = "\
fn f(v: &[u32], i: usize) -> u32 {
    let a = v[i];
    let b = v[0];
    let c = v.first().unwrap();
    assert!(a > 0);
    a + b + c
}
";
        let p = parse(src);
        let f = &p.functions[0];
        let kinds: Vec<(SinkKind, usize)> = f.sinks.iter().map(|s| (s.kind, s.line)).collect();
        assert!(kinds.contains(&(SinkKind::Index, 2)), "v[i] is a sink: {kinds:?}");
        assert!(!kinds.iter().any(|&(_, l)| l == 3), "v[0] is not a sink");
        assert!(kinds.contains(&(SinkKind::Call, 4)), "unwrap is a sink");
        assert!(kinds.contains(&(SinkKind::Call, 5)), "assert! is a sink");
    }

    #[test]
    fn par_region_allocs_are_tagged() {
        let src = "\
fn f(v: &[u32]) -> Vec<String> {
    v.par_iter()
        .map(|x| {
            let s = format!(\"{x}\");
            s
        })
        .collect()
}
";
        let p = parse(src);
        let f = &p.functions[0];
        let fmt = f.allocs.iter().find(|a| a.what == "`format!`").unwrap();
        assert!(fmt.in_par, "format! inside the closure is par-tagged");
        let coll = f.allocs.iter().find(|a| a.what == "`.collect(..)`").unwrap();
        assert!(!coll.in_par, "the chain terminator collect is not inside the closure");
    }

    #[test]
    fn loop_allocs_are_tagged() {
        let src = "\
fn f(n: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(Vec::with_capacity(4));
    }
    out
}
";
        let p = parse(src);
        let f = &p.functions[0];
        let top = f.allocs.iter().find(|a| a.line == 2).unwrap();
        assert!(!top.in_loop);
        assert!(f.allocs.iter().filter(|a| a.line == 4).all(|a| a.in_loop));
    }

    #[test]
    fn locks_and_order_edges() {
        let src = "\
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
fn f(s: &S) {
    let ga = s.a.lock().unwrap();
    let gb = s.b.lock().unwrap();
    drop(gb);
    drop(ga);
}
";
        let p = parse(src);
        assert_eq!(p.lock_names, vec!["a", "b"]);
        let f = &p.functions[0];
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.lock_edges.len(), 1);
        assert_eq!((f.lock_edges[0].held.as_str(), f.lock_edges[0].then.as_str()), ("a", "b"));
    }

    #[test]
    fn atomic_ops_and_unsafe_sites() {
        let src = "\
fn f(c: &std::sync::atomic::AtomicU32) {
    c.fetch_add(1, Ordering::SeqCst);
    // SAFETY: test
    unsafe { std::hint::unreachable_unchecked() }
}
";
        let p = parse(src);
        let a = &p.functions[0].atomics;
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].field, "c");
        assert_eq!(a[0].kind, AtomicKind::Rmw);
        assert_eq!(a[0].ordering, "SeqCst");
        assert_eq!(a[0].line, 2);
        assert!(!a[0].in_test);
        assert_eq!(p.unsafe_lines, vec![4]);
    }

    #[test]
    fn atomic_protocol_facts() {
        let src = "\
fn publish(g: &AtomicU64, v: u64) {
    g.store(g.load(Ordering::Relaxed) + v, Ordering::Release);
}
fn consume(g: &AtomicU64) -> u64 {
    g.load(Ordering::Acquire)
}
fn cas(g: &AtomicU64) {
    g.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).ok();
}
";
        let p = parse(src);
        let pub_ops = &p.functions[0].atomics;
        // Nested load records itself; store records only Release.
        assert_eq!(pub_ops.len(), 2, "{pub_ops:?}");
        let store = pub_ops.iter().find(|o| o.kind == AtomicKind::Store).unwrap();
        assert_eq!(store.ordering, "Release");
        let load = pub_ops.iter().find(|o| o.kind == AtomicKind::Load).unwrap();
        assert_eq!(load.ordering, "Relaxed");
        assert_eq!(p.functions[1].atomics[0].ordering, "Acquire");
        let cas_ops = &p.functions[2].atomics;
        assert_eq!(cas_ops.len(), 2, "{cas_ops:?}");
        assert_eq!(cas_ops[0].kind, AtomicKind::Rmw);
        assert_eq!(cas_ops[0].ordering, "AcqRel");
        assert_eq!(cas_ops[1].kind, AtomicKind::Load, "CAS failure ordering is a load");
        assert_eq!(cas_ops[1].ordering, "Acquire");
    }

    #[test]
    fn par_capture_and_cell_write_facts() {
        let src = "\
fn f(xs: &[u32], out: &mut Vec<u32>, cache: &RefCell<u32>) {
    let cache = RefCell::new(0u32);
    xs.par_iter().for_each(|x| {
        out.push(*x);
        cache.replace(*x);
        let mut local = Vec::new();
        local.push(*x);
    });
}
";
        let p = parse(src);
        assert_eq!(p.cell_names, vec!["cache"]);
        let f = &p.functions[0];
        assert!(
            f.par_writes.iter().any(|w| w.what.contains("`out`") && w.line == 4),
            "{:?}",
            f.par_writes
        );
        assert!(
            f.par_writes.iter().any(|w| w.what.contains("`cache`")),
            "cell write in par region: {:?}",
            f.par_writes
        );
        assert!(
            !f.par_writes.iter().any(|w| w.what.contains("`local`")),
            "closure-local binding is not a capture: {:?}",
            f.par_writes
        );
        assert!(f.shared_writes.iter().any(|w| w.what.contains("cache")), "{:?}", f.shared_writes);
    }

    #[test]
    fn thread_local_cells_and_lock_guarded_writes_are_clean() {
        let src = "\
thread_local! {
    static SCRATCH: RefCell<Vec<u32>> = RefCell::new(Vec::new());
}
fn f(xs: &[u32], shared: &Mutex<Vec<u32>>) {
    xs.par_iter().for_each(|x| {
        shared.lock().unwrap().push(*x);
    });
}
";
        let p = parse(src);
        assert!(p.cell_names.is_empty(), "thread_local cells excluded: {:?}", p.cell_names);
        let f = &p.functions[0];
        assert!(f.par_writes.is_empty(), "lock-guarded push is synchronized: {:?}", f.par_writes);
    }

    #[test]
    fn static_mut_assignment_is_a_shared_write() {
        let src = "\
static mut TOTAL: u64 = 0;
fn bump(n: u64) {
    unsafe { TOTAL += n };
}
";
        let p = parse(src);
        assert_eq!(p.static_muts, vec!["TOTAL"]);
        let f = &p.functions[0];
        assert!(
            f.shared_writes.iter().any(|w| w.what.contains("TOTAL") && w.line == 3),
            "{:?}",
            f.shared_writes
        );
    }

    #[test]
    fn init_combinator_zone_suppresses_par_alloc() {
        let src = "\
fn f(xs: &[u32]) -> Vec<u32> {
    xs.par_iter()
        .map_init(|| Vec::with_capacity(64), |scratch, x| {
            scratch.push(*x);
            *x + 1
        })
        .collect()
}
fn g(xs: &[u32]) -> Vec<Vec<u32>> {
    xs.par_iter().map(|x| vec![*x]).collect()
}
";
        let p = parse(src);
        let f = &p.functions[0];
        assert!(
            !f.allocs.iter().any(|a| a.in_par && a.what.contains("with_capacity")),
            "init-closure alloc is once-per-worker: {:?}",
            f.allocs
        );
        assert!(
            !f.allocs.iter().any(|a| a.in_par && a.what.contains("push")),
            "growth on the scratch binding amortizes per worker: {:?}",
            f.allocs
        );
        assert!(
            !f.par_writes.iter().any(|w| w.what.contains("scratch")),
            "init-closure param is region-local: {:?}",
            f.par_writes
        );
        let g = &p.functions[1];
        assert!(
            g.allocs.iter().any(|a| a.in_par),
            "per-element alloc still flagged: {:?}",
            g.allocs
        );
    }

    #[test]
    fn params_are_collected() {
        let src = "\
fn f<T: Clone>(xs: &[T], n: usize, mut acc: u64) -> u64 { acc }
impl S { fn m(&self, k: usize) {} }
";
        let p = parse(src);
        assert_eq!(p.functions[0].params, vec!["xs", "n", "acc"]);
        assert_eq!(p.functions[1].params, vec!["k"]);
    }

    #[test]
    fn spawned_closure_captures_are_tracked() {
        let src = "\
fn f(events: &Mutex<Vec<u32>>, log: &mut Vec<u32>) {
    std::thread::spawn(move || {
        log.push(1);
    });
}
";
        let p = parse(src);
        let f = &p.functions[0];
        assert!(f.par_writes.iter().any(|w| w.what.contains("`log`")), "{:?}", f.par_writes);
        assert!(f.calls.iter().any(|c| c.name == "push" && c.in_spawn));
        assert!(!f.calls.iter().any(|c| c.name == "push" && c.in_par), "spawn is not rayon-par");
    }

    #[test]
    fn test_functions_are_marked() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { None::<u32>.unwrap(); }
}
fn real() {}
";
        let p = parse(src);
        let t = p.functions.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        assert!(t.sinks.is_empty(), "facts skipped in test regions");
        assert!(!p.functions.iter().find(|f| f.name == "real").unwrap().is_test);
    }

    #[test]
    fn result_return_types_are_flagged() {
        let src = "\
fn plain() -> u32 { 0 }
fn fallible() -> Result<u32, String> { Ok(0) }
fn io_style() -> std::io::Result<()> { Ok(()) }
fn none() { fallible(); }
";
        let p = parse(src);
        let by_name = |n: &str| p.functions.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("plain").returns_result);
        assert!(by_name("fallible").returns_result);
        assert!(by_name("io_style").returns_result);
        assert!(!by_name("none").returns_result);
    }

    #[test]
    fn qualified_and_free_calls() {
        let src = "\
fn f() {
    helper(1);
    Bitmap::fill(2);
    ids::row_u32(3);
}
";
        let p = parse(src);
        let f = &p.functions[0];
        assert_eq!(f.calls.len(), 3);
        assert_eq!(f.calls[0].recv, Receiver::Free);
        assert_eq!(f.calls[1].recv, Receiver::Qualified("Bitmap".into()));
        assert_eq!(f.calls[2].recv, Receiver::Free, "lowercase qualifier resolves as free");
    }
}
