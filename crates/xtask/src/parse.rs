//! Item parser and per-function fact extraction for `cargo xtask
//! analyze`.
//!
//! Walks the token stream of one file and produces:
//!
//! * the list of function items (free functions and impl methods, with
//!   the impl's self type attached) and their body token ranges;
//! * per function: call expressions, panic sinks, atomic operations,
//!   and writes to shared state — calls and writes tagged with whether
//!   they sit inside a closure passed to `spawn` (the workspace's one
//!   fork is `scope.spawn` in `ExecContext::map_reduce`);
//! * per file: `unsafe` site lines (for the inventory ratchet) and the
//!   identifiers bound to `Mutex`/`RwLock`, `Cell`/`RefCell` and
//!   `static mut` values.
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
/// spawned-thread closure.
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
    /// Body token range (absolute indices into the file's token stream).
    pub body: std::ops::Range<usize>,
    /// Calls made by the body.
    pub calls: Vec<Call>,
    /// Panic sinks in the body.
    pub sinks: Vec<Sink>,
    /// Atomic operations naming an explicit `Ordering`.
    pub atomics: Vec<AtomicOp>,
    /// Writes to shared state: `static mut` assignment, write methods
    /// on non-thread-local `Cell`/`RefCell` bindings.
    pub shared_writes: Vec<SharedWrite>,
    /// Mutations of captured (outer) bindings inside a spawned-thread
    /// closure.
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
/// spawned-thread closure, write state shared across workers.
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
    // A `fn` header seen; waiting for its body `{` or a `;`.
    let mut pending_fn: Option<(String, usize)> = None;
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
                if let Some((name, line)) = pending_fn.take() {
                    let idx = out.functions.len();
                    out.functions.push(Function {
                        name,
                        self_ty: impls.last().map(|(t, _)| t.clone()),
                        decl_line: line,
                        no_panic: has_no_panic_annotation(file, line),
                        is_test: *file.in_test.get(line - 1).unwrap_or(&false),
                        body: i + 1..i + 1, // end patched on close
                        calls: Vec::new(),
                        sinks: Vec::new(),
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
                        pending_fn = Some((next.text.clone(), next.line));
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

/// Walk one function body and record calls, sinks, shared-state writes
/// and captured-binding mutations inside spawned-thread closures.
fn extract_facts(
    file: &SourceFile,
    tokens: &[Token],
    f: &mut Function,
    children: &[std::ops::Range<usize>],
    pools: &NamePools<'_>,
) {
    // Combined paren+brace+bracket nesting, relative to the body start.
    let mut nest: i32 = 0;
    // Spawned-thread closures: nesting depth at each `spawn(`.
    let mut spawn_stack: Vec<i32> = Vec::new();
    // Bindings introduced inside the current spawned closure (closure
    // params, `let`s, `for` patterns) — mutating these is worker-local,
    // not a capture.
    let mut spawn_local: Vec<String> = Vec::new();
    // Between the `|`s of a closure parameter list.
    let mut collecting_params = false;

    let mut i = f.body.start;
    while i < f.body.end {
        if let Some(r) = children.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let t = &tokens[i];
        let in_test_line = *file.in_test.get(t.line - 1).unwrap_or(&false);
        let in_spawn = spawn_stack.last().is_some_and(|&d| nest > d);

        match t.kind {
            TokKind::LParen | TokKind::LBracket | TokKind::LBrace => nest += 1,
            TokKind::RParen | TokKind::RBracket | TokKind::RBrace => {
                nest -= 1;
                while spawn_stack.last().is_some_and(|&d| nest < d) {
                    spawn_stack.pop();
                }
                if spawn_stack.is_empty() {
                    spawn_local.clear();
                    collecting_params = false;
                }
            }
            TokKind::Punct if t.text == "|" => {
                if collecting_params {
                    collecting_params = false;
                } else if in_spawn
                    && i.checked_sub(1).and_then(|j| tokens.get(j)).is_some_and(|p| {
                        p.kind == TokKind::LParen || p.text == "," || p.text == "=" || p.is("move")
                    })
                {
                    collecting_params = true;
                }
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
                        } else if in_spawn && base != "_" && !spawn_local.contains(&base) {
                            f.par_writes.push(SharedWrite {
                                line: t.line,
                                what: format!("mutation of captured `{base}`"),
                            });
                        }
                    }
                }
            }
            TokKind::Punct if t.text == ";" => {
                if spawn_stack.last().is_some_and(|&d| nest <= d) {
                    spawn_stack.pop();
                }
                if spawn_stack.is_empty() {
                    spawn_local.clear();
                    collecting_params = false;
                }
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
                    spawn_local.push(text.to_string());
                }
                if text == "spawn" && next_paren {
                    spawn_stack.push(nest);
                }

                if (text == "let" || text == "for") && in_spawn {
                    // Pattern idents up to `:`/`=`/`;` (`in` for a `for`)
                    // are closure-local.
                    for n in tokens.iter().skip(i + 1).take(8) {
                        if matches!(n.text.as_str(), ":" | "=" | ";") || n.is("in") {
                            break;
                        }
                        if n.kind == TokKind::Ident && !KEYWORDS.contains(&n.text.as_str()) {
                            spawn_local.push(n.text.clone());
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
                    }
                } else if next_paren && prev_dot {
                    method_facts(tokens, i, f, pools, in_spawn, &spawn_local);
                } else if next_paren && !KEYWORDS.contains(&text) {
                    // Free or qualified call.
                    let qual = i
                        .checked_sub(2)
                        .and_then(|j| tokens.get(j))
                        .filter(|q| prev_colons && q.kind == TokKind::Ident)
                        .map(|q| q.text.clone());
                    let recv = match qual {
                        Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                            Receiver::Qualified(q)
                        }
                        _ => Receiver::Free,
                    };
                    f.calls.push(Call { name: text.to_string(), recv, line: t.line, in_spawn });
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

/// Handle `.name(` method positions: calls, sinks, interior-mutability
/// writes and captured container mutations.
fn method_facts(
    tokens: &[Token],
    i: usize,
    f: &mut Function,
    pools: &NamePools<'_>,
    in_spawn: bool,
    spawn_local: &[String],
) {
    let t = &tokens[i];
    let text = t.text.as_str();
    let empty_args = tokens.get(i + 2).is_some_and(|n| n.kind == TokKind::RParen);

    if text == "unwrap" && empty_args {
        f.sinks.push(Sink { kind: SinkKind::Call, line: t.line, what: "`.unwrap()`".into() });
        return;
    }
    if text == "expect" {
        f.sinks.push(Sink { kind: SinkKind::Call, line: t.line, what: "`.expect(..)`".into() });
        return;
    }
    // `.lock()` / `.read()` / `.write()` on a known `Mutex`/`RwLock`
    // binding is std's acquisition, never a workspace call.
    if matches!(text, "lock" | "read" | "write")
        && i.checked_sub(2)
            .and_then(|j| tokens.get(j))
            .is_some_and(|r| r.kind == TokKind::Ident && pools.locks.contains(&r.text))
    {
        return;
    }
    // Interior-mutability writes: `cell.set(..)` / `cell.borrow_mut()`
    // on a known (non-thread-local) `Cell`/`RefCell` binding is a
    // shared-state write wherever it happens — a caller running it
    // from a spawned closure races even if this function is serial.
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
    // Captured-container mutation inside a spawned closure: `.push(..)`
    // etc. on a binding from outside the closure, unless the receiver
    // chain goes through a lock guard.
    if in_spawn && (cell_write || CAPTURE_MUT_METHODS.contains(&text)) {
        if let Some((base, synced)) = &recv_base {
            if !synced
                && !spawn_local.iter().any(|l| l == base)
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
    f.calls.push(Call { name: text.to_string(), recv, line: t.line, in_spawn });
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
/// expression, return the sink.
fn index_sink(tokens: &[Token], at: usize, limit: usize) -> Option<Sink> {
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
    fn lock_acquisitions_are_not_calls() {
        let src = "\
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
fn f(s: &S) {
    let ga = s.a.lock().unwrap();
    let gb = s.b.lock().unwrap();
    s.c.lock();
    drop(gb);
    drop(ga);
}
";
        let p = parse(src);
        assert_eq!(p.lock_names, vec!["a", "b"]);
        let locks: Vec<usize> =
            p.functions[0].calls.iter().filter(|c| c.name == "lock").map(|c| c.line).collect();
        assert_eq!(locks, vec![6], "only the unknown receiver `c` is a call");
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
    std::thread::scope(|scope| {
        scope.spawn(|| {
            out.push(xs[0]);
            cache.replace(xs[1]);
            let mut local = Vec::new();
            local.push(xs[2]);
        });
    });
}
";
        let p = parse(src);
        assert_eq!(p.cell_names, vec!["cache"]);
        let f = &p.functions[0];
        assert!(
            f.par_writes.iter().any(|w| w.what.contains("`out`") && w.line == 5),
            "{:?}",
            f.par_writes
        );
        assert!(
            f.par_writes.iter().any(|w| w.what.contains("`cache`")),
            "cell write in a spawned closure: {:?}",
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
    std::thread::scope(|scope| {
        for x in xs {
            scope.spawn(move || shared.lock().unwrap().push(*x));
        }
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
