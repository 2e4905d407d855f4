//! A deliberately small model of a Rust source file for the analyzer.
//!
//! The line rules are *source-level*: they do not need types or name
//! resolution, only a reliable separation of code from comments and
//! string literals so that a `panic!` inside a doc example or an
//! `unsafe` in a string does not trip a rule. This module provides
//! that separation plus the two bits of shared context every rule
//! needs: which lines are test-only code, and which lines carry a
//! `// analyze: allow(rule): reason` suppression marker.

use std::cell::RefCell;
use std::collections::BTreeSet;

/// One physical line, split into its code and comment parts.
///
/// String and char literal *contents* in `code` are blanked with
/// spaces (the quotes remain), so rules can pattern-match code text
/// without being fooled by literals.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code text with comments removed and literal contents blanked.
    pub code: String,
    /// Concatenated text of every comment on the line.
    pub comment: String,
}

/// A parsed file: lines plus derived per-line context.
#[derive(Debug)]
pub struct SourceFile {
    /// Split lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// True for lines inside `#[cfg(test)]` modules or `#[test]` fns.
    pub in_test: Vec<bool>,
    /// Markers consulted *and matched* by [`SourceFile::allowed`],
    /// keyed `(marker line, rule)`. The stale-marker audit diffs this
    /// set against [`SourceFile::markers`] after every rule has run.
    used: RefCell<BTreeSet<(usize, String)>>,
}

/// Lexer state carried across lines.
enum Mode {
    Code,
    /// Inside `/* ... */`; Rust block comments nest.
    Block(u32),
    /// Inside a `"..."` string literal.
    Str,
    /// Inside a raw string; the payload is the number of `#`s.
    RawStr(u32),
}

impl SourceFile {
    /// Lex `src` into lines and compute test regions.
    pub fn parse(src: &str) -> SourceFile {
        let lines = split_lines(src);
        let in_test = test_regions(&lines);
        SourceFile { lines, in_test, used: RefCell::new(BTreeSet::new()) }
    }

    /// Does `line_no` (1-based) carry or immediately follow a
    /// `// analyze: allow(rule): reason` marker for `rule`?
    ///
    /// A marker on its own line suppresses the next non-marker line
    /// below it (so several markers for different rules stack above one
    /// line); a trailing marker suppresses its own line. The reason
    /// text is mandatory — a bare `allow(rule)` does not suppress, so
    /// every exemption is forced to say why.
    pub fn allowed(&self, line_no: usize, rule: &str) -> bool {
        let idx = line_no - 1;
        let here = self.lines.get(idx).map(|l| l.comment.as_str()).unwrap_or("");
        if has_marker(here, rule) {
            self.used.borrow_mut().insert((line_no, rule.to_string()));
            return true;
        }
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let l = &self.lines[j];
            if has_marker(&l.comment, rule) {
                self.used.borrow_mut().insert((j + 1, rule.to_string()));
                return true;
            }
            // Keep climbing only through stacked marker-only lines.
            if !(l.code.trim().is_empty() && is_marker_line(&l.comment)) {
                return false;
            }
        }
        false
    }

    /// Every `(line, rule)` marker that matched an [`SourceFile::allowed`]
    /// query so far. A marker absent from this set after all rules have
    /// run suppresses nothing — it is stale.
    pub fn used_markers(&self) -> BTreeSet<(usize, String)> {
        self.used.borrow().clone()
    }

    /// Every well-formed `(line, rule)` suppression marker in the file
    /// (prefix + rule + mandatory reason). Reasonless markers never
    /// suppress anything and are not enumerated.
    pub fn markers(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            if let Some(rule) = marker_rule(&line.comment) {
                out.push((idx + 1, rule));
            }
        }
        out
    }
}

/// The one suppression-marker prefix.
pub const MARKER_PREFIX: &str = "analyze: allow(";

/// Does the comment carry any suppression marker (for any rule)?
fn is_marker_line(comment: &str) -> bool {
    comment.contains(MARKER_PREFIX)
}

/// Check one comment string for a well-formed suppression marker.
fn has_marker(comment: &str, rule: &str) -> bool {
    let Some(pos) = comment.find(MARKER_PREFIX) else {
        return false;
    };
    let rest = &comment[pos + MARKER_PREFIX.len()..];
    let Some((name, after)) = rest.split_once(')') else {
        return false;
    };
    if name.trim() != rule {
        return false;
    }
    // Require `: reason` with non-empty reason.
    matches!(after.trim_start().strip_prefix(':'), Some(r) if !r.trim().is_empty())
}

/// Extract the rule name of a well-formed *leading* marker in one
/// comment: only comment punctuation (`/`, `!`, `*`) and whitespace
/// may precede the prefix. Doc prose that merely mentions the marker
/// syntax (`` a `// analyze: allow(rule): reason` marker ``) is thereby
/// never enumerated, so the stale audit cannot flag documentation.
fn marker_rule(comment: &str) -> Option<String> {
    let lead = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
    let (name, after) = lead.strip_prefix(MARKER_PREFIX)?.split_once(')')?;
    matches!(after.trim_start().strip_prefix(':'), Some(r) if !r.trim().is_empty())
        .then(|| name.trim().to_string())
}

/// Split source into per-line code/comment parts.
fn split_lines(src: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in src.lines() {
        let mut line = Line::default();
        let b: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < b.len() {
            match mode {
                Mode::Code => {
                    let c = b[i];
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        line.comment.push_str(&raw[char_offset(&b, i)..]);
                        i = b.len();
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        // Raw strings look back for r/br prefixes.
                        let hashes = raw_prefix(&b, i);
                        line.code.push('"');
                        mode = match hashes {
                            Some(h) => Mode::RawStr(h),
                            None => Mode::Str,
                        };
                        i += 1;
                    } else if c == 'r' || c == 'b' {
                        // Possible start of r#"..."# / br"..." — consume
                        // the prefix chars; the quote branch above fires
                        // when the `"` is reached.
                        line.code.push(c);
                        i += 1;
                    } else if c == '\'' {
                        // Char literal vs lifetime: a literal closes with
                        // a `'` within a few chars; a lifetime does not.
                        if let Some(end) = char_literal_end(&b, i) {
                            line.code.push('\'');
                            for _ in i + 1..end {
                                line.code.push(' ');
                            }
                            line.code.push('\'');
                            i = end + 1;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
                Mode::Block(depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(b[i]);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if b[i] == '\\' {
                        line.code.push(' ');
                        if i + 1 < b.len() {
                            line.code.push(' ');
                        }
                        i += 2;
                    } else if b[i] == '"' {
                        line.code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if b[i] == '"' && closes_raw(&b, i, hashes) {
                        // Emit the closing hashes too, so columns after
                        // the literal stay aligned with the source.
                        line.code.push('"');
                        for _ in 0..hashes {
                            line.code.push('#');
                        }
                        i += 1 + hashes as usize;
                        mode = Mode::Code;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        out.push(line);
    }
    out
}

/// Byte offset of char index `i` in the original line.
fn char_offset(chars: &[char], i: usize) -> usize {
    chars[..i].iter().map(|c| c.len_utf8()).sum()
}

/// If the `"` at `i` is preceded by `r`/`br` (+ hashes), return the
/// hash count of the raw string it opens.
fn raw_prefix(b: &[char], quote: usize) -> Option<u32> {
    let mut j = quote;
    let mut hashes = 0u32;
    while j > 0 && b[j - 1] == '#' {
        hashes += 1;
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let c = b[j - 1];
    let prev = if j >= 2 { Some(b[j - 2]) } else { None };
    if c == 'r' || (c == 'b' && hashes == 0) || (c == 'b' && prev == Some('r')) {
        // `r"`, `r#"`, `b"`, `br"` — all open a literal we must skip;
        // plain `b"..."` has no hashes but behaves like Str with
        // escapes; treating it as raw only misses `\"`, acceptable for
        // a lint lexer operating on this codebase (no b"\"" present).
        Some(hashes)
    } else {
        None
    }
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(b: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| b.get(i + k) == Some(&'#'))
}

/// Find the closing quote of a char literal starting at `open`, or
/// `None` if this is a lifetime.
fn char_literal_end(b: &[char], open: usize) -> Option<usize> {
    match b.get(open + 1) {
        Some('\\') => {
            // Escaped char: scan forward (covers \n, \u{...}). Start
            // past the escaped character itself so `'\''` finds the
            // real closing quote, not the escaped one.
            (open + 3..b.len().min(open + 12)).find(|&j| b[j] == '\'')
        }
        Some(_) => (b.get(open + 2) == Some(&'\'')).then_some(open + 2),
        None => None,
    }
}

/// Mark lines belonging to `#[cfg(test)]` items or `#[test]` fns.
///
/// Strategy: when a test attribute appears, the next item's brace
/// block (everything until its `{` closes) is a test region, the
/// attribute line included.
fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth: i32 = 0;
    // When inside a test item: the depth *outside* its block.
    let mut test_exit_depth: Option<i32> = None;
    // A test attribute was seen; waiting for the item's opening brace.
    let mut pending_attr = false;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if test_exit_depth.is_none() && (code.contains("#[cfg(test)]") || code.contains("#[test]"))
        {
            pending_attr = true;
        }
        if pending_attr || test_exit_depth.is_some() {
            in_test[idx] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_attr {
                        test_exit_depth = Some(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_exit_depth == Some(depth) {
                        test_exit_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_split_out() {
        let f = SourceFile::parse("let x = 1; // SAFETY: fine\n/* block */ let y;\n");
        assert_eq!(f.lines[0].code.trim(), "let x = 1;");
        assert!(f.lines[0].comment.contains("SAFETY"));
        assert_eq!(f.lines[1].code.trim(), "let y;");
        assert_eq!(f.lines[1].comment.trim(), "block");
    }

    #[test]
    fn string_contents_are_blanked() {
        let f = SourceFile::parse("let s = \"unsafe panic!()\";\n");
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains('"'));
    }

    #[test]
    fn raw_strings_and_chars() {
        let f =
            SourceFile::parse("let s = r#\"a \" b\"#; let c = '\\n'; let l: &'static str = s;\n");
        let code = &f.lines[0].code;
        assert!(code.contains("let c ="));
        assert!(code.contains("'static"));
    }

    #[test]
    fn multiline_block_comment() {
        let f = SourceFile::parse("a /* x\ny */ b\n");
        assert_eq!(f.lines[0].code.trim(), "a");
        assert_eq!(f.lines[1].code.trim(), "b");
        assert!(f.lines[0].comment.contains('x'));
        assert!(f.lines[1].comment.contains('y'));
    }

    #[test]
    fn test_region_detection() {
        let src = "\
fn real() {
    body();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { body(); }
}
fn real2() {}
";
        let f = SourceFile::parse(src);
        assert!(!f.in_test[0]);
        assert!(!f.in_test[1]);
        assert!(f.in_test[3]);
        assert!(f.in_test[6]);
        assert!(!f.in_test[8]);
    }

    #[test]
    fn marker_requires_reason() {
        let f = SourceFile::parse(
            "x(); // analyze: allow(no_panic): startup only\ny();\nz(); // analyze: allow(no_panic)\n",
        );
        assert!(f.allowed(1, "no_panic"));
        assert!(f.allowed(2, "no_panic"), "marker above suppresses next line");
        assert!(!f.allowed(3, "no_panic"), "missing reason must not suppress");
        assert!(!f.allowed(1, "id_cast"), "rule name must match");
    }

    #[test]
    fn stacked_markers_all_reach_the_code_line() {
        let f = SourceFile::parse(
            "// analyze: allow(no_panic): pool bytes are UTF-8-validated at build\n\
             // analyze: allow(panic_path): lo <= hi by prefix sum\n\
             let b = std::str::from_utf8(&g[lo..hi]).expect(\"utf-8\");\n",
        );
        assert!(f.allowed(3, "no_panic"), "marker above a marker still applies");
        assert!(f.allowed(3, "panic_path"));
        assert!(!f.allowed(3, "par_race"), "unrelated rule not suppressed");
    }

    #[test]
    fn markers_do_not_leak_past_code_lines() {
        let f = SourceFile::parse(
            "// analyze: allow(id_cast): dense domain\nlet a = row as u32;\nlet b = row as u32;\n",
        );
        assert!(f.allowed(2, "id_cast"));
        assert!(!f.allowed(3, "id_cast"), "marker stops at the first code line");
    }

    #[test]
    fn escaped_quote_char_literal_does_not_desync() {
        // `'\''` once terminated at the escaped quote, leaving the real
        // closing quote to open a phantom literal that swallowed code.
        let f = SourceFile::parse("let q = '\\''; let next = 1;\n");
        assert!(f.lines[0].code.contains("let next = 1;"), "{:?}", f.lines[0].code);
    }

    #[test]
    fn raw_string_close_keeps_columns_aligned() {
        let src = "let s = r##\"x\"##; let y = 2;\n";
        let f = SourceFile::parse(src);
        let code = &f.lines[0].code;
        assert!(code.contains("let y = 2;"), "{code:?}");
        // The blanked line has the same char length as the source line,
        // so token columns derived from it stay truthful.
        assert_eq!(code.chars().count(), src.trim_end().chars().count(), "{code:?}");
    }

    #[test]
    fn nested_block_comments_unwind_fully() {
        let f = SourceFile::parse("a /* outer /* inner */ still */ b\n");
        assert_eq!(f.lines[0].code.trim(), "a  b");
        assert!(f.lines[0].comment.contains("inner"));
    }

    #[test]
    fn allowed_records_marker_usage() {
        let f = SourceFile::parse(
            "// analyze: allow(panic_path): sized above\nlet a = v[i];\nx(); // analyze: allow(no_panic): boot\n",
        );
        assert!(f.allowed(2, "panic_path"));
        assert!(f.allowed(3, "no_panic"));
        assert!(!f.allowed(3, "id_cast"));
        let used = f.used_markers();
        assert!(used.contains(&(1, "panic_path".to_string())), "{used:?}");
        assert!(used.contains(&(3, "no_panic".to_string())), "{used:?}");
        assert_eq!(used.len(), 2, "{used:?}");
    }

    #[test]
    fn markers_enumerates_well_formed_only() {
        let f = SourceFile::parse(
            "// analyze: allow(panic_path): contract\n\
             code(); // analyze: allow(no_panic)\n\
             more(); // analyze: allow(id_cast): dense domain\n",
        );
        let m = f.markers();
        assert_eq!(
            m,
            vec![(1, "panic_path".to_string()), (3, "id_cast".to_string())],
            "reasonless marker on line 2 never suppresses, so it is not enumerated"
        );
    }

    #[test]
    fn doc_prose_mentioning_marker_syntax_is_not_enumerated() {
        let f = SourceFile::parse(
            "//! Suppress with a `// analyze: allow(rule): reason` marker.\n\
             /// or `// analyze: allow(panic_path): why` on the line.\n\
             code(); // analyze: allow(no_panic): boot only\n",
        );
        assert_eq!(f.markers(), vec![(3, "no_panic".to_string())], "{:?}", f.markers());
    }

    #[test]
    fn analyze_marker_prefix_is_accepted() {
        let f = SourceFile::parse(
            "x(); // analyze: allow(par_race): the scope joins first\n\ny(); // analyze: allow(par_race)\n",
        );
        assert!(f.allowed(1, "par_race"));
        assert!(!f.allowed(3, "par_race"), "analyze marker also requires a reason");
        let retired = SourceFile::parse("x(); // lint: allow(no_panic): old prefix\n");
        assert!(!retired.allowed(1, "no_panic"), "the `lint:` prefix no longer suppresses");
        assert!(retired.markers().is_empty());
    }
}
