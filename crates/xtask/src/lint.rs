//! The line rules `cargo xtask analyze` runs over every file.
//!
//! Two source-level rules, each encoding an invariant the workspace
//! lints cannot express:
//!
//! * `no_panic` — no `unwrap()` / `expect()` / `panic!` in non-test
//!   code of the engine, columnar and serve hot paths;
//! * `id_cast` — no bare `as` narrowing casts on row/event/mention id
//!   expressions; use the checked helpers in `gdelt_model::ids`.
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
}
