//! The diagnostic type of `cargo xtask analyze`, with its two output
//! formats and the exit-code contract:
//!
//! * human format — `path:line: [rule] message`, one line per finding,
//!   followed by indented `note:` lines (the analyzer uses notes to
//!   render call paths);
//! * `--format json` — a single JSON object on stdout:
//!   `{"tool": ..., "count": N, "diagnostics": [...]}`.
//!
//! Exit codes: **0** clean, **1** findings reported,
//! **2** usage or internal error (unreadable file, malformed baseline).

use std::path::{Path, PathBuf};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the finding is in (workspace-relative when walked).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// What is wrong and how to fix it.
    pub message: String,
    /// Supporting context, e.g. the call path from a `no_panic` kernel
    /// to the panic sink, one hop per note.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A note-free diagnostic (the common case for line rules).
    pub fn new(path: &Path, line: usize, rule: &'static str, message: String) -> Self {
        Diagnostic { path: path.to_path_buf(), line, rule, message, notes: Vec::new() }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)?;
        for n in &self.notes {
            write!(f, "\n    note: {n}")?;
        }
        Ok(())
    }
}

/// Output format selector, parsed from `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// `path:line: [rule] message` lines.
    #[default]
    Human,
    /// One JSON object with every diagnostic.
    Json,
}

impl Format {
    /// Parse the `--format` argument value.
    pub fn parse(value: &str) -> Result<Format, String> {
        match value {
            "human" => Ok(Format::Human),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown --format {other:?} (expected human|json)")),
        }
    }
}

/// Render a batch of diagnostics to stdout in the requested format.
pub fn emit(tool: &str, diagnostics: &[Diagnostic], format: Format) {
    match format {
        Format::Human => {
            for d in diagnostics {
                println!("{d}");
            }
        }
        Format::Json => println!("{}", to_json(tool, diagnostics)),
    }
}

/// The JSON document for a batch of diagnostics.
pub fn to_json(tool: &str, diagnostics: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(256 + diagnostics.len() * 128);
    out.push_str("{\"tool\":");
    json_string(tool, &mut out);
    out.push_str(&format!(",\"count\":{},\"diagnostics\":[", diagnostics.len()));
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        json_string(&d.path.display().to_string(), &mut out);
        out.push_str(&format!(",\"line\":{},\"rule\":", d.line));
        json_string(d.rule, &mut out);
        out.push_str(",\"message\":");
        json_string(&d.message, &mut out);
        out.push_str(",\"notes\":[");
        for (j, n) in d.notes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_string(n, &mut out);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Append `s` as a JSON string literal (quotes + escapes).
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            path: PathBuf::from("crates/engine/src/x.rs"),
            line: 7,
            rule: "panic_path",
            message: "reachable `unwrap()`".into(),
            notes: vec!["kernel `build` (x.rs:3)".into()],
        }
    }

    #[test]
    fn human_format_includes_notes() {
        let s = diag().to_string();
        assert!(s.starts_with("crates/engine/src/x.rs:7: [panic_path] "));
        assert!(s.contains("note: kernel `build`"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut d = diag();
        d.message = "quote \" backslash \\ newline \n".into();
        let j = to_json("analyze", &[d]);
        assert!(j.starts_with("{\"tool\":\"analyze\",\"count\":1,"));
        assert!(j.contains("\\\""));
        assert!(j.contains("\\\\"));
        assert!(j.contains("\\n"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("json").unwrap(), Format::Json);
        assert_eq!(Format::parse("human").unwrap(), Format::Human);
        assert!(Format::parse("xml").is_err());
    }
}
