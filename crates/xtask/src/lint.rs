//! The line rules `cargo xtask analyze` runs over every file.
//!
//! Three source-level rules, each encoding an invariant the workspace
//! lints cannot express:
//!
//! * `no_panic` — no `unwrap()` / `expect()` / `panic!` in non-test
//!   code of the engine, columnar and serve hot paths;
//! * `id_cast` — no bare `as` narrowing casts on row/event/mention id
//!   expressions; use the checked helpers in `gdelt_model::ids`;
//! * `par_index` — no `[i]`-style indexing with a variable inside
//!   rayon closures in `crates/engine`; prefer `get`, iterators, or a
//!   justified marker.
//!
//! Undocumented `unsafe` is clippy's job
//! (`undocumented_unsafe_blocks = "deny"` in `[workspace.lints]`).
//! Any rule can be locally suppressed with a justified marker:
//! `// analyze: allow(<rule>): <reason>` on the offending line or the
//! line above. The reason is mandatory.

use crate::diag::Diagnostic;
use crate::source::SourceFile;
use std::path::Path;

/// Crates whose `src/` trees the rules cover.
const HOT_PATH_CRATES: &[&str] = &["engine", "columnar", "serve"];
const ID_CAST_CRATES: &[&str] = &["engine", "columnar", "model"];

/// Run every rule over a parsed file living at the workspace-relative
/// `path`; the rule set applied is derived from the path, mirroring the
/// directory scopes above. Marker lookups land on the shared
/// [`SourceFile`], so the stale-marker audit sees them as used.
pub fn lint_file(path: &Path, file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let in_crate = |names: &[&str]| {
        let p = path.to_string_lossy().replace('\\', "/");
        names.iter().any(|c| p.contains(&format!("crates/{c}/src/")))
    };
    if in_crate(HOT_PATH_CRATES) {
        no_panic(path, file, &mut out);
    }
    if in_crate(ID_CAST_CRATES) {
        id_cast(path, file, &mut out);
    }
    if in_crate(&["engine"]) {
        par_index(path, file, &mut out);
    }
    out
}

/// Rule 1: panicking calls are banned in hot-path non-test code.
fn no_panic(path: &Path, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const PATTERNS: &[(&str, &str)] = &[
        (".unwrap()", "use pattern matching, `?`, or a justified marker"),
        (".expect(", "return an error or add a justified marker"),
        ("panic!", "hot paths must not panic; return an error instead"),
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        for (pat, hint) in PATTERNS {
            if line.code.contains(pat) && !file.allowed(idx + 1, "no_panic") {
                out.push(Diagnostic::new(
                    path,
                    idx + 1,
                    "no_panic",
                    format!("`{}` in hot-path code: {hint}", pat.trim_matches('.')),
                ));
                break; // one diagnostic per line
            }
        }
    }
}

/// Narrow integer targets for the cast rule.
const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier segments that mark a value as a row/event/mention id.
const ID_SEGMENTS: &[&str] = &["id", "row", "event", "mention"];

/// Rule 2: `some_row as u32`-style casts silently wrap at scale
/// (GDELT's full corpus has 325M events); flag them on id-carrying
/// names and point at the checked helpers.
fn id_cast(path: &Path, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let code = &line.code;
        let mut search = 0;
        while let Some(rel) = code[search..].find(" as ") {
            let pos = search + rel;
            search = pos + 4;
            let target: String =
                code[pos + 4..].chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
            if !NARROW.contains(&target.as_str()) {
                continue;
            }
            let Some(name) = ident_before(code, pos) else {
                continue;
            };
            let lowered = name.to_ascii_lowercase();
            let flagged =
                lowered.split('_').any(|seg| ID_SEGMENTS.contains(&seg.trim_end_matches('s')));
            if flagged && !file.allowed(idx + 1, "id_cast") {
                out.push(Diagnostic::new(
                    path,
                    idx + 1,
                    "id_cast",
                    format!(
                        "bare narrowing cast `{name} as {target}` on an id value; \
                         use gdelt_model::ids checked casts (e.g. `ids::row_u32`)"
                    ),
                ));
                break;
            }
        }
    }
}

/// Final identifier of the expression ending right before byte `pos`
/// (e.g. `self.mentions.event_row` → `event_row`). Returns `None` for
/// non-path endings like `)` or `]`.
fn ident_before(code: &str, pos: usize) -> Option<String> {
    let head = code[..pos].trim_end();
    let tail: String =
        head.chars().rev().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    let ident: String = tail.chars().rev().collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Markers that start a rayon-parallel region.
const PAR_MARKERS: &[&str] = &[".par_iter()", ".into_par_iter()", "parallel_map(", ".par_chunks"];

/// Rule 3: inside a parallel closure, `v[i]` with a variable index
/// turns a data-layout bug into a hard-to-reproduce panic on one
/// worker thread; require `get`, zipped iterators, or a marker.
fn par_index(path: &Path, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut region_depth: Option<i32> = None;
    let mut depth: i32 = 0;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let starts_here = !file.in_test[idx] && PAR_MARKERS.iter().any(|m| code.contains(m));
        if region_depth.is_none() && starts_here {
            region_depth = Some(depth);
        }
        let in_region = region_depth.is_some();
        if in_region
            && !file.in_test[idx]
            && has_variable_index(code)
            && !file.allowed(idx + 1, "par_index")
        {
            out.push(Diagnostic::new(
                path,
                idx + 1,
                "par_index",
                "variable indexing inside a parallel region; use `get`, \
                 zipped iterators, or a justified marker"
                    .into(),
            ));
        }
        for c in code.chars() {
            match c {
                '(' | '{' | '[' => depth += 1,
                ')' | '}' | ']' => {
                    depth -= 1;
                    if region_depth.is_some_and(|d| depth <= d) {
                        region_depth = None;
                    }
                }
                _ => {}
            }
        }
        // A statement end at region depth also closes the region
        // (covers one-line `let x = a.par_iter()...;`).
        if region_depth.is_some_and(|d| depth <= d) && code.trim_end().ends_with(';') {
            region_depth = None;
        }
    }
}

/// Does the line index a collection with a non-literal expression?
/// `v[i]`, `v[i + 1]`, `v[e.index()]` → yes; `v[0]`, `v[..n]`,
/// attributes `#[...]` and slicing with ranges → no.
fn has_variable_index(code: &str) -> bool {
    let bytes: Vec<char> = code.chars().collect();
    for (i, &c) in bytes.iter().enumerate() {
        if c != '[' {
            continue;
        }
        // Must follow an identifier or `)`/`]` (an indexable value);
        // skips attributes and array literals.
        let before = code[..char_len(&bytes, i)].trim_end();
        let indexable = before
            .chars()
            .last()
            .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_' || p == ')' || p == ']');
        if !indexable {
            continue;
        }
        // Grab the bracket body (same line only — multiline indexing
        // is rare and caught by the next line's scan).
        let body: String = bytes[i + 1..].iter().take_while(|&&c| c != ']').collect();
        let body = body.trim();
        if body.is_empty() || body.contains("..") {
            continue; // slicing
        }
        let literal = body.chars().all(|c| c.is_ascii_digit() || c == '_');
        if !literal {
            return true;
        }
    }
    false
}

fn char_len(chars: &[char], i: usize) -> usize {
    chars[..i].iter().map(|c| c.len_utf8()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_file(Path::new(path), &SourceFile::parse(src))
    }

    #[test]
    fn panic_in_hot_path_fires_and_marker_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let d = lint("crates/engine/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no_panic");

        let ok = "fn f(x: Option<u32>) -> u32 {\n    // analyze: allow(no_panic): checked above\n    x.unwrap()\n}\n";
        assert!(lint("crates/engine/src/x.rs", ok).is_empty());
    }

    #[test]
    fn panic_outside_hot_paths_ignored() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint("crates/analysis/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_in_tests_ignored() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn id_cast_fires_on_narrowing_id_names() {
        let d = lint("crates/engine/src/x.rs", "fn f(row: usize) -> u32 { row as u32 }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "id_cast");
        let d = lint("crates/columnar/src/x.rs", "fn f(m: &M) -> u32 { m.event_id as u32 }\n");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn id_cast_ignores_widening_and_plain_names() {
        assert!(lint("crates/engine/src/x.rs", "fn f(row: u32) -> u64 { row as u64 }\n").is_empty());
        assert!(lint("crates/engine/src/x.rs", "fn f(n: usize) -> u32 { n as u32 }\n").is_empty());
        let marked =
            "fn f(row: usize) -> u32 {\n    // analyze: allow(id_cast): row < 1000 by construction\n    row as u32\n}\n";
        assert!(lint("crates/engine/src/x.rs", marked).is_empty());
    }

    #[test]
    fn par_index_fires_inside_parallel_region() {
        let src = "fn f(v: &[u64]) -> Vec<u64> {\n    (0..v.len()).into_par_iter().map(|i| v[i + 1]).collect()\n}\n";
        let d = lint("crates/engine/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "par_index");
    }

    #[test]
    fn par_index_quiet_outside_regions_and_for_literals() {
        let src = "fn f(v: &[u64]) -> u64 { v[0] + v[1] }\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
        let seq = "fn f(v: &[u64], i: usize) -> u64 { v[i] }\n";
        assert!(lint("crates/engine/src/x.rs", seq).is_empty(), "sequential indexing is fine");
        let slice = "fn f(v: &[u64]) -> Vec<u64> { v.par_iter().map(|x| x + 1).collect() }\n";
        assert!(lint("crates/engine/src/x.rs", slice).is_empty());
    }

    #[test]
    fn par_region_ends_at_statement_boundary() {
        let src = "fn f(v: &[u64], i: usize) -> u64 {\n    let s: u64 = v.par_iter().sum();\n    s + v[i]\n}\n";
        assert!(lint("crates/engine/src/x.rs", src).is_empty());
    }
}
