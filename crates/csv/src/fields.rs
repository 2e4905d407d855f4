//! Byte-level tab-separated field handling.
//!
//! GDELT lines are plain `\t`-separated with no quoting or escaping, and
//! the store keeps 17 of the 61 event columns and 7 of the 16 mention
//! columns. So the text is never split into strings: a word-at-a-time
//! scan records where every tab and newline of a cache-sized block sits
//! ([`for_each_line`]), a [`Line`] hands out the byte range of column `k`
//! from that index, and the primitive parsers below decode the few
//! columns a table keeps. Bytes of the other columns are looked at once,
//! by the delimiter scan, and never again — in particular they are never
//! UTF-8-checked, so a stray Latin-1 byte in an actor name cannot cost a
//! line, let alone the file.
//!
//! The integer parsers accept exactly what `str::parse` accepts for the
//! unsigned types (an optional leading `+`, then one or more ASCII
//! digits, value within the type's range). Floats are std's: plain short
//! decimals take a path proven to round as `str::parse::<f32>` does
//! ([`decimal_f32`]), everything else goes to `str::parse` on the field
//! alone.

use crate::error::{CsvError, CsvResult};
use gdelt_model::time::{Date, DateTime};

/// Bytes indexed at a time: the block and its delimiter index (at most
/// one `u32` per byte, in practice a quarter of that) stay within a
/// 1 MiB L2 while the decoder walks them.
const BLOCK_BYTES: usize = 64 * 1024;

const LANE_LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// `0x80` in every byte lane of `w` that equals `b`, zero elsewhere.
/// Exact per lane: the add cannot carry across lanes because bit 7 of
/// every lane is masked off first.
#[inline]
fn lanes_eq(w: u64, b: u8) -> u64 {
    let x = w ^ (u64::from(b) * 0x0101_0101_0101_0101);
    !(((x & LANE_LOW7) + LANE_LOW7) | x | LANE_LOW7)
}

/// `0x80` in every byte lane of `w` that holds a byte `<= 0x20` — every
/// ASCII whitespace byte and the other control bytes. Exact per lane:
/// `0xa0 - x` cannot borrow for a 7-bit `x`.
#[inline]
fn lanes_le_space(w: u64) -> u64 {
    (0xa0a0_a0a0_a0a0_a0a0 - (w & LANE_LOW7)) & !w & 0x8080_8080_8080_8080
}

/// What separates the fields of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Separator {
    /// Exactly one `\t`: the Events and Mentions exports.
    Tab,
    /// One ASCII whitespace byte (`str::split_ascii_whitespace`'s set);
    /// a run of them yields empty fields. The master file list.
    Whitespace,
}

/// Whether `b` ends a field (`Some(false)`), a line (`Some(true)`) or
/// neither. With `newlines` off the text is a single line, and a `\n` in
/// it is whatever any other byte of its kind is.
#[inline]
fn classify<const WHITESPACE: bool>(b: u8, newlines: bool) -> Option<bool> {
    if b == b'\n' && newlines {
        return Some(true);
    }
    let field = if WHITESPACE { b.is_ascii_whitespace() } else { b == b'\t' };
    field.then_some(false)
}

/// Where the fields and lines of one block of text end.
#[derive(Debug, Default)]
struct DelimiterIndex {
    /// Offset of every separator and `\n` of the block, ascending, in
    /// `ends[..len]`. The vector itself only ever grows, to one slot per
    /// byte of the largest block seen (plus one for the end of a last
    /// line without a terminator), so the scan stores without growing.
    ends: Vec<u32>,
    len: usize,
    /// For every `\n`, its position in `ends`.
    newlines: Vec<u32>,
}

impl DelimiterIndex {
    /// Index `block`, which must be shorter than 4 GiB. With `newlines`
    /// off the block is one line (a line given as a string may carry a
    /// `\n` inside a field).
    fn fill(&mut self, block: &[u8], separator: Separator, newlines: bool) {
        match separator {
            Separator::Tab => self.fill_with::<false>(block, newlines),
            Separator::Whitespace => self.fill_with::<true>(block, newlines),
        }
    }

    // analyze: no_panic
    fn fill_with<const WHITESPACE: bool>(&mut self, block: &[u8], newlines: bool) {
        self.newlines.clear();
        if self.ends.len() <= block.len() {
            self.ends.resize(block.len() + 1, 0);
        }
        let mut len = 0usize;
        let mut note = |at: u32, line_end: bool| {
            if line_end {
                self.newlines.push(len as u32);
            }
            if let Some(slot) = self.ends.get_mut(len) {
                *slot = at;
            }
            len += 1;
        };
        let (words, tail) = block.as_chunks::<8>();
        let mut at = 0u32;
        for word in words {
            let w = u64::from_le_bytes(*word);
            // `0x80` in the lanes that end a field or a line, and in
            // those that end a line.
            let (mut hits, lines) = if !WHITESPACE {
                let lines = if newlines { lanes_eq(w, b'\n') } else { 0 };
                (lanes_eq(w, b'\t') | lines, lines)
            } else if lanes_le_space(w) == 0 {
                (0, 0) // most words of a master list hold no byte <= 0x20
            } else {
                let lf = lanes_eq(w, b'\n');
                let other = lanes_eq(w, b' ')
                    | lanes_eq(w, b'\t')
                    | lanes_eq(w, b'\x0c')
                    | lanes_eq(w, b'\r');
                (other | lf, if newlines { lf } else { 0 })
            };
            while hits != 0 {
                let bit = hits.trailing_zeros();
                note(at + bit / 8, (lines >> bit) & 1 != 0);
                hits &= hits - 1;
            }
            at += 8;
        }
        for &b in tail {
            if let Some(line_end) = classify::<WHITESPACE>(b, newlines) {
                note(at, line_end);
            }
            at += 1;
        }
        self.len = len;
    }
}

/// One line of a tab-separated file: its text and where each field ends.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a, 'i> {
    /// Text the offsets below point into.
    text: &'a [u8],
    /// Offset of the line's first byte.
    start: usize,
    /// Exclusive end offset of every field; the last is the line's end.
    ends: &'i [u32],
}

impl<'a, 'i> Line<'a, 'i> {
    /// View `text` as a single line (what `parse_*_line` are given).
    /// `scratch` holds the field offsets.
    pub fn split(text: &'a [u8], separator: Separator, scratch: &'i mut LineScratch) -> Self {
        let len = u32::try_from(text.len()).unwrap_or(u32::MAX);
        let text = text.get(..len as usize).unwrap_or(text);
        let index = &mut scratch.0;
        index.fill(text, separator, false);
        if let Some(slot) = index.ends.get_mut(index.len) {
            *slot = len;
            index.len += 1;
        }
        Line { text, start: 0, ends: index.ends.get(..index.len).unwrap_or(&[]) }
    }

    /// Number of tab-separated fields (at least one).
    #[inline]
    pub fn width(&self) -> usize {
        self.ends.len()
    }

    /// The whole line, without its terminator.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        let end = self.ends.last().map_or(self.start, |&e| e as usize);
        self.text.get(self.start..end).unwrap_or(&[])
    }

    /// Field `k`; empty when the line has no such field.
    // analyze: no_panic
    #[inline]
    pub fn field(&self, k: usize) -> &'a [u8] {
        let lo = match k.checked_sub(1) {
            None => Some(self.start),
            Some(prev) => self.ends.get(prev).map(|&e| e as usize + 1),
        };
        let hi = self.ends.get(k).map(|&e| e as usize);
        match (lo, hi) {
            (Some(lo), Some(hi)) => self.text.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// Reusable field-offset storage for [`Line::split`].
#[derive(Debug, Default)]
pub struct LineScratch(DelimiterIndex);

/// Offset just past the first `\n` at or after `at`, or `text.len()`:
/// where [`for_each_line`] ends a block.
fn line_aligned(text: &[u8], at: usize) -> usize {
    let from = at.min(text.len());
    let rest = text.get(from..).unwrap_or(&[]);
    rest.iter().position(|&b| b == b'\n').map_or(text.len(), |i| from + i + 1)
}

/// The first line start at or after `at`: `at` itself if it is 0 or
/// follows a `\n`, else the offset just past the next `\n`, else
/// `text.len()`. Text cut at such offsets is walked piece by piece by
/// [`for_each_line`] as it is walked whole.
pub fn line_start(text: &[u8], at: usize) -> usize {
    at.checked_sub(1).map_or(0, |before| line_aligned(text, before))
}

/// Call `on_line(number, line)` for every non-empty line of `text`, in
/// order, its fields split at `separator`. Lines are what `str::lines`
/// yields: terminated by `\n` or `\r\n` (the terminator is not part of
/// the line), and a last line without a terminator keeps a trailing
/// `\r`. `number` counts from 1 and includes the empty lines that are
/// skipped.
// analyze: no_panic
pub fn for_each_line<'a>(
    text: &'a [u8],
    separator: Separator,
    mut on_line: impl FnMut(usize, Line<'a, '_>),
) {
    let mut index = DelimiterIndex::default();
    let mut number = 0usize;
    let mut pos = 0usize;
    while pos < text.len() {
        // Whole lines only, so no line straddles two blocks; a line
        // longer than u32 offsets can address is cut there.
        let end = line_aligned(text, pos + BLOCK_BYTES).min(pos.saturating_add(u32::MAX as usize));
        let block = text.get(pos..end).unwrap_or(&[]);
        pos = end;
        index.fill(block, separator, true);
        let DelimiterIndex { ends, len, newlines } = &mut index;
        let mut start = 0usize;
        let mut first = 0usize;
        for &nl in newlines.iter() {
            let nl = nl as usize;
            let Some(end) = ends.get_mut(nl) else { break };
            let next_start = *end as usize + 1;
            // `\r\n`: the `\r` belongs to the terminator.
            if *end as usize > start && block.get(*end as usize - 1) == Some(&b'\r') {
                *end -= 1;
            }
            let empty = *end as usize == start;
            number += 1;
            if !empty {
                let fields = ends.get(first..=nl).unwrap_or(&[]);
                on_line(number, Line { text: block, start, ends: fields });
            }
            start = next_start;
            first = nl + 1;
        }
        if start < block.len() {
            // The text's last line has no terminator.
            if let Some(slot) = ends.get_mut(*len) {
                *slot = block.len() as u32;
                *len += 1;
            }
            number += 1;
            on_line(
                number,
                Line { text: block, start, ends: ends.get(first..*len).unwrap_or(&[]) },
            );
        }
    }
}

/// The error for a line of the wrong width.
#[cold]
pub fn wrong_width(table: &'static str, expected: usize, line: &Line<'_, '_>) -> CsvError {
    CsvError::WrongColumnCount { table, expected, got: line.width() }
}

/// Decimal value of `raw` if it is what `str::parse` accepts for an
/// unsigned type holding at most `max`: an optional `+`, one or more
/// ASCII digits, no overflow.
// analyze: no_panic
#[inline]
fn parse_unsigned(raw: &[u8], max: u64) -> Option<u64> {
    let digits = match raw {
        [b'+', rest @ ..] => rest,
        _ => raw,
    };
    if digits.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for (i, &b) in digits.iter().enumerate() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        // 19 digits cannot overflow a u64; only longer fields (leading
        // zeros, or out of range) pay for the checks.
        v = match i < 19 {
            true => v * 10 + u64::from(d),
            false => v.checked_mul(10)?.checked_add(u64::from(d))?,
        };
    }
    (v <= max).then_some(v)
}

/// Parse a mandatory unsigned integer field.
#[inline]
pub fn parse_u64(raw: &[u8], column: &'static str) -> CsvResult<u64> {
    parse_unsigned(raw, u64::MAX)
        .ok_or_else(|| CsvError::field(column, raw, "expected unsigned integer"))
}

/// Parse a mandatory `u32` field.
#[inline]
pub fn parse_u32(raw: &[u8], column: &'static str) -> CsvResult<u32> {
    parse_unsigned(raw, u64::from(u32::MAX))
        .map(|v| v as u32)
        .ok_or_else(|| CsvError::field(column, raw, "expected unsigned integer"))
}

/// The four two-digit numbers eight ASCII digits spell, if every byte
/// of `word` is a digit: one 64-bit word, no loop.
// analyze: no_panic
#[inline]
fn digit_pairs(word: [u8; 8]) -> Option<[u8; 4]> {
    const HIGH: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    const ZEROS: u64 = 0x3030_3030_3030_3030;
    let w = u64::from_le_bytes(word);
    // Every byte `0x30..=0x3f`, and none past `0x39` (adding 6 cannot
    // carry out of a byte below `0x40`).
    if w & HIGH != ZEROS || (w + 0x0606_0606_0606_0606) & HIGH != ZEROS {
        return None;
    }
    let d = w & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte `2k`: ten times digit `2k` plus digit `2k + 1` (at most 99).
    let pairs = (d * 10 + (d >> 8)).to_le_bytes();
    Some([pairs[0], pairs[2], pairs[4], pairs[6]])
}

/// The calendar date of `YYYYMMDD` pairs, if there is one.
#[inline]
fn date_of([century, year, month, day]: [u8; 4]) -> Option<Date> {
    Date::new(i32::from(century) * 100 + i32::from(year), month, day).ok()
}

/// Parse a `YYYYMMDD` field: exactly eight digits naming a date.
#[inline]
pub fn parse_date(raw: &[u8], column: &'static str) -> CsvResult<Date> {
    let pairs = <[u8; 8]>::try_from(raw)
        .ok()
        .and_then(digit_pairs)
        .ok_or_else(|| CsvError::field(column, raw, "expected 8 digits (YYYYMMDD)"))?;
    date_of(pairs).ok_or_else(|| {
        let num = pairs.iter().fold(0, |v, &p| v * 100 + u32::from(p));
        Date::from_yyyymmdd(num)
            .err()
            .map_or(CsvError::field(column, raw, "no date"), CsvError::Model)
    })
}

/// Parse a `YYYYMMDDHHMMSS` field: exactly fourteen digits naming a
/// date and a time of day.
#[inline]
pub fn parse_datetime(raw: &[u8], column: &'static str) -> CsvResult<DateTime> {
    let word = |at: usize| raw.get(at..at + 8).and_then(|w| <[u8; 8]>::try_from(w).ok());
    let (Some(date), Some([_, hour, minute, second])) = (
        (raw.len() == 14).then(|| word(0).and_then(digit_pairs)).flatten(),
        word(6).and_then(digit_pairs),
    ) else {
        return Err(CsvError::field(column, raw, "expected 14 digits (YYYYMMDDHHMMSS)"));
    };
    match date_of(date).map(|d| DateTime::new(d, hour, minute, second)) {
        Some(Ok(dt)) => Ok(dt),
        _ => {
            let num =
                date.iter().chain(&[hour, minute, second]).fold(0, |v, &p| v * 100 + u64::from(p));
            let err = DateTime::from_yyyymmddhhmmss(num).err();
            Err(err.map_or(CsvError::field(column, raw, "no date"), CsvError::Model))
        }
    }
}

/// Parse a mandatory `u8` field.
#[inline]
pub fn parse_u8(raw: &[u8], column: &'static str) -> CsvResult<u8> {
    parse_unsigned(raw, u64::from(u8::MAX))
        .map(|v| v as u8)
        .ok_or_else(|| CsvError::field(column, raw, "expected small unsigned integer"))
}

/// Powers of ten an `f64` holds exactly, as far as [`decimal_f32`] needs.
const POW10: [f64; 16] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// `str::parse::<f32>` for the plain decimals GDELT writes — an optional
/// sign, at most 15 digits, at most one `.` — and `None` for everything
/// else (exponents, `inf`, `NaN`, longer digit strings, junk), which the
/// caller hands to std.
///
/// The result is std's bit for bit, because both are *the* correctly
/// rounded `f32` of the decimal. With at most 15 digits the digits are
/// an integer `w < 2^53` and the scale a power of ten `<= 10^15`, both
/// exact in `f64`, so `d = w / 10^k` is the correctly rounded `f64` of
/// the value `x`. No `f64` lies strictly between `x` and `d`, and every
/// `f32` rounding boundary (the midpoint of two neighbouring `f32`s) is
/// an `f64`; so unless `d` *is* such a midpoint, `x` and `d` sit on the
/// same side of every boundary and round to the same `f32`. A `d` on a
/// midpoint (the 29 bits an `f32` drops read `1000…0`) says nothing
/// about which side `x` is on: that case goes to std. `|d|` is zero or
/// within `[1e-15, 1e15]`, far inside the range where `f32` is normal.
// analyze: no_panic
#[inline]
fn decimal_f32(raw: &[u8]) -> Option<f32> {
    let (negative, body) = match raw {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, raw),
    };
    if body.len() > 16 {
        return None;
    }
    let mut w = 0u64;
    let mut digits = 0usize;
    let mut fraction_at = None;
    for &b in body {
        let d = b.wrapping_sub(b'0');
        if d <= 9 {
            w = w * 10 + u64::from(d);
            digits += 1;
        } else if b == b'.' && fraction_at.is_none() {
            fraction_at = Some(digits);
        } else {
            return None;
        }
    }
    if digits == 0 || digits > 15 {
        return None;
    }
    let scale = POW10.get(fraction_at.map_or(0, |at| digits - at))?;
    let d = w as f64 / scale;
    if d.to_bits() & 0x1fff_ffff == 0x1000_0000 {
        return None;
    }
    let v = d as f32;
    Some(if negative { -v } else { v })
}

/// Parse a mandatory float field. GDELT writes plain decimal notation;
/// whatever else `str::parse::<f32>` accepts (exponents, `inf`, `NaN`)
/// is accepted too, and the value is always the one std parses.
#[inline]
pub fn parse_f32(raw: &[u8], column: &'static str) -> CsvResult<f32> {
    decimal_f32(raw)
        .or_else(|| std::str::from_utf8(raw).ok().and_then(|s| s.parse().ok()))
        .ok_or_else(|| CsvError::field(column, raw, "expected decimal number"))
}

/// Parse an optional float: the empty string means "missing", which GDELT
/// uses for unresolved coordinates.
#[inline]
pub fn parse_opt_f32(raw: &[u8], column: &'static str) -> CsvResult<Option<f32>> {
    if raw.is_empty() {
        Ok(None)
    } else {
        parse_f32(raw, column).map(Some)
    }
}

/// Parse an optional small integer with empty-as-zero semantics, which
/// GDELT uses for geo type columns on untagged rows.
#[inline]
pub fn parse_u8_or_zero(raw: &[u8], column: &'static str) -> CsvResult<u8> {
    if raw.is_empty() {
        Ok(0)
    } else {
        parse_u8(raw, column)
    }
}

/// A kept string column: must be UTF-8, as the store's string pools are.
#[inline]
pub fn parse_str<'a>(raw: &'a [u8], column: &'static str) -> CsvResult<&'a str> {
    std::str::from_utf8(raw).map_err(|_| CsvError::field(column, raw, "expected UTF-8 text"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(text: &str) -> Vec<(usize, Vec<String>)> {
        let mut out = Vec::new();
        for_each_line(text.as_bytes(), Separator::Tab, |n, line| {
            let fields = (0..line.width())
                .map(|k| String::from_utf8_lossy(line.field(k)).into_owned())
                .collect::<Vec<_>>();
            assert_eq!(line.bytes(), fields.join("\t").as_bytes());
            out.push((n, fields));
        });
        out
    }

    /// The same through `str::lines` + `split('\t')`.
    fn reference(text: &str) -> Vec<(usize, Vec<String>)> {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, l)| (i + 1, l.split('\t').map(str::to_owned).collect()))
            .collect()
    }

    #[test]
    fn lanes_eq_is_exact_per_lane() {
        let w = u64::from_le_bytes([9, 8, 10, 9, 0x89, 0x0a, 0xff, 9]);
        assert_eq!(lanes_eq(w, 9), 0x8000_0000_8000_0080);
        assert_eq!(lanes_eq(w, 10), 0x0000_8000_0080_0000);
        // A lane one above the needle next to a hit must not light up.
        assert_eq!(
            lanes_eq(u64::from_le_bytes([9, 10, 9, 10, 9, 10, 9, 10]), 9),
            0x0080_0080_0080_0080
        );
    }

    #[test]
    fn splits_like_str_lines() {
        for text in [
            "",
            "\n",
            "a",
            "a\n",
            "a\tb\tc",
            "a\t\t\td\n",
            "a\tb\r\nc\td\r\n",
            "\r\n\r\n",
            "a\n\n\nb",
            "a\r",
            "a\tb\r",
            "\r",
            "x\ty\n\r",
            "\t\t\n\t",
            "tab at end\t\nlast\t",
            "0123456\t89\n01234567\n012345678\t\n",
        ] {
            assert_eq!(lines_of(text), reference(text), "{text:?}");
        }
    }

    #[test]
    fn lines_longer_than_a_block_stay_whole() {
        let long = "x".repeat(BLOCK_BYTES + 17);
        let text = format!("a\tb\n{long}\t{long}\nc\n{long}");
        assert_eq!(lines_of(&text), reference(&text));
        // Many short lines: several blocks, numbering continues.
        let text = "k\tv\n".repeat(BLOCK_BYTES / 2);
        assert_eq!(lines_of(&text), reference(&text));
    }

    #[test]
    fn single_line_split_ignores_newlines() {
        let mut scratch = LineScratch::default();
        let line = Line::split(b"a\tb\nc\t", Separator::Tab, &mut scratch);
        assert_eq!(line.width(), 3);
        assert_eq!(line.field(0), b"a");
        assert_eq!(line.field(1), b"b\nc");
        assert_eq!(line.field(2), b"");
        assert_eq!(line.field(3), b"");
        assert_eq!(line.bytes(), b"a\tb\nc\t");
        let line = Line::split(b"", Separator::Tab, &mut scratch);
        assert_eq!((line.width(), line.field(0)), (1, &b""[..]));
    }

    #[test]
    fn whitespace_fields_are_split_ascii_whitespace_tokens() {
        let tokens = |text: &str| {
            let mut out = Vec::new();
            for_each_line(text.as_bytes(), Separator::Whitespace, |n, line| {
                let fields = (0..line.width()).map(|k| line.field(k)).filter(|f| !f.is_empty());
                out.push((n, fields.map(|f| String::from_utf8_lossy(f).into_owned()).collect()));
            });
            out
        };
        for text in [
            "1 abc http://x\n",
            "  1\t\tabc \x0c http://x  \r\n\n 2 def\r x\ry",
            "a\x0bb\x00c\x1fd e\n",
            "no-terminator-and-nothing-else",
            " \n\t\n",
            "ünï çødé ü\n",
        ] {
            let want: Vec<(usize, Vec<String>)> = text
                .lines()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .map(|(i, l)| (i + 1, l.split_ascii_whitespace().map(str::to_owned).collect()))
                .collect();
            assert_eq!(tokens(text), want, "{text:?}");
        }
        let mut scratch = LineScratch::default();
        let line = Line::split(b"a\nb c", Separator::Whitespace, &mut scratch);
        assert_eq!((line.width(), line.field(1)), (3, &b"b"[..]));
    }

    #[test]
    fn line_aligned_cuts_after_a_newline() {
        let text = b"ab\ncd\n\nef";
        assert_eq!(line_aligned(text, 0), 3);
        assert_eq!(line_aligned(text, 2), 3);
        assert_eq!(line_aligned(text, 3), 6);
        assert_eq!(line_aligned(text, 6), 7);
        assert_eq!(line_aligned(text, 7), text.len());
        assert_eq!(line_aligned(text, 99), text.len());
    }

    #[test]
    fn integers_accept_what_std_accepts() {
        let cases = [
            "0",
            "7",
            "+7",
            "007",
            "+007",
            "255",
            "256",
            "0255",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "00000000000000000000000255",
            "99999999999999999999",
            "+",
            "-",
            "",
            "-1",
            "+-1",
            "++1",
            "1+",
            " 1",
            "1 ",
            "1.0",
            "1e3",
            "0x10",
            "١",
            "12a",
        ];
        for s in cases {
            let b = s.as_bytes();
            assert_eq!(parse_u64(b, "c").ok(), s.parse::<u64>().ok(), "u64 {s:?}");
            assert_eq!(parse_u32(b, "c").ok(), s.parse::<u32>().ok(), "u32 {s:?}");
            assert_eq!(parse_u8(b, "c").ok(), s.parse::<u8>().ok(), "u8 {s:?}");
        }
    }

    #[test]
    fn floats_are_std_floats() {
        for s in [
            "-4.25",
            "1e3",
            "+.5",
            "5.",
            "-0",
            "-0.0",
            "+0",
            "000.500",
            "inf",
            "-inf",
            "NaN",
            "1e-50",
            "3.4e39",
            "0x1p3",
            "",
            ".",
            "-",
            "+",
            "-.",
            "1,5",
            "1..2",
            "1.2.3",
            "--1",
            "+-1",
            "1_0",
            " 1",
            "1 ",
            "123456789012345",
            "1234567890123456",
            ".123456789012345",
            "0.1234567890123456",
        ] {
            assert_std_f32(s);
        }
        assert!(parse_f32(&[b'1', 0xff], "c").is_err());
    }

    /// SplitMix64: a fixed stream of test values.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assert_std_f32(s: &str) {
        let ours = parse_f32(s.as_bytes(), "c").ok().map(f32::to_bits);
        assert_eq!(ours, s.parse::<f32>().ok().map(f32::to_bits), "{s:?}");
    }

    #[test]
    fn decimal_fast_path_rounds_like_std() {
        let mut state = 20;
        for _ in 0..200_000 {
            // Every f32 as `{}` prints it (what the writer emits), and
            // the decimals just below, at and above the midpoint to its
            // neighbour — where a double rounding would show.
            let v = f32::from_bits(mix(&mut state) as u32);
            if !v.is_finite() || v.abs() < 1e-4 || v.abs() > 1e8 {
                continue;
            }
            assert_std_f32(&format!("{v}"));
            let mid = (f64::from(v) + f64::from(f32::from_bits(v.to_bits() + 1))) / 2.0;
            for digits in [5, 9, 12, 14] {
                assert_std_f32(&format!("{mid:.digits$}"));
            }
        }
        for _ in 0..200_000 {
            // Arbitrary digit strings with a point anywhere.
            let r = mix(&mut state);
            let len = 1 + (r % 17) as usize;
            let mut s: String = format!("{:017}", mix(&mut state) % 100_000_000_000_000_000)
                .chars()
                .take(len)
                .collect();
            if !(r >> 8).is_multiple_of(4) {
                s.insert((r >> 16) as usize % (len + 1), '.');
            }
            if (r >> 32).is_multiple_of(3) {
                s.insert(0, if (r >> 40).is_multiple_of(2) { '-' } else { '+' });
            }
            assert_std_f32(&s);
        }
        // Exact midpoints of neighbouring f32s: ties go to even, by std.
        for s in [
            "16777217",
            "16777219",
            "1.00000005960464477539",
            "0.50000002980232238769",
            "8388608.5",
            "8388609.5",
            "4194304.25",
            "4194304.75",
        ] {
            assert_std_f32(s);
        }
    }

    #[test]
    fn optional_parsers() {
        assert_eq!(parse_opt_f32(b"", "c").unwrap(), None);
        assert_eq!(parse_opt_f32(b"1.5", "c").unwrap(), Some(1.5));
        assert!(parse_opt_f32(b"x", "c").is_err());
        assert_eq!(parse_u8_or_zero(b"", "c").unwrap(), 0);
        assert_eq!(parse_u8_or_zero(b"3", "c").unwrap(), 3);
        assert!(parse_u8_or_zero(b"q", "c").is_err());
    }

    #[test]
    fn kept_strings_must_be_utf8() {
        assert_eq!(parse_str("ünï".as_bytes(), "c").unwrap(), "ünï");
        let err = parse_str(&[b'a', 0xe9, b'b'], "SOURCEURL").unwrap_err();
        assert!(matches!(err, CsvError::Field { column: "SOURCEURL", .. }));
    }

    /// A date field's reading by the calendar: exactly its digits, as
    /// one number.
    fn stamp_by_number(raw: &[u8]) -> Option<DateTime> {
        let digits = raw.len() == 14 && raw.iter().all(u8::is_ascii_digit);
        let num = std::str::from_utf8(raw).ok().filter(|_| digits)?.parse().ok()?;
        DateTime::from_yyyymmddhhmmss(num).ok()
    }

    fn date_by_number(raw: &[u8]) -> Option<Date> {
        let digits = raw.len() == 8 && raw.iter().all(u8::is_ascii_digit);
        let num = std::str::from_utf8(raw).ok().filter(|_| digits)?.parse().ok()?;
        Date::from_yyyymmdd(num).ok()
    }

    #[test]
    fn date_fields_read_as_their_digits_do() {
        let check = |raw: &[u8]| {
            assert_eq!(parse_datetime(raw, "t").ok(), stamp_by_number(raw), "{raw:?}");
            let date = raw.get(..8).unwrap_or(raw);
            assert_eq!(parse_date(date, "d").ok(), date_by_number(date), "{date:?}");
        };
        // Every byte in every position of a stamp, and one too short or long.
        for base in [&b"20160229235959"[..], b"20150218000000", b"99991231235959"] {
            for at in 0..base.len() {
                for b in 0..=255u8 {
                    let mut raw = base.to_vec();
                    raw[at] = b;
                    check(&raw);
                }
            }
            check(&base[..13]);
            check(&[base, b"0"].concat());
        }
        // Random digit strings: most are no date, some are.
        let mut state = 7;
        for _ in 0..100_000 {
            let r = mix(&mut state);
            let raw: Vec<u8> = (0..14).map(|k| b'0' + ((r >> (4 * k)) % 10) as u8).collect();
            check(&raw);
            let mut near = *b"20170000000000";
            near[4..].copy_from_slice(&raw[4..]);
            check(&near);
        }
    }
}
