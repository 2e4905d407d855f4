//! The GDELT master file list.
//!
//! GDELT publishes a `masterfilelist.txt` with one line per archive file:
//! `<size> <md5> <url>`. The URL encodes the capture timestamp, e.g.
//! `http://data.gdeltproject.org/gdeltv2/20150218230000.export.CSV.zip`.
//! The paper's preprocessing tool walks this list to fetch every archive
//! and found 53 malformed entries and 8 missing archives (Table II); this
//! module reproduces that accounting: it parses the list, rejects
//! malformed lines, and detects gaps in the 15-minute sequence.

use crate::error::{CsvError, CsvResult};
use crate::fields::{for_each_line, parse_datetime, parse_u64, Line, LineScratch, Separator};
use gdelt_model::time::CaptureInterval;

/// Which table an archive belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveKind {
    /// `*.export.CSV.zip` — the events table.
    Events,
    /// `*.mentions.CSV.zip` — the mentions table.
    Mentions,
    /// `*.gkg.csv.zip` — the knowledge graph (present in the list, not
    /// used by the system).
    Gkg,
}

/// One well-formed master list line: what the gap accounting reads. The
/// MD5 and the URL are checked for shape and not kept — nothing
/// downstream fetches an archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterListEntry {
    /// Declared file size in bytes.
    pub size: u64,
    /// Table kind derived from the URL suffix.
    pub kind: ArchiveKind,
    /// Capture interval parsed from the URL timestamp.
    pub interval: CaptureInterval,
}

/// The last URL timestamp converted and its interval: the list names an
/// export, a mentions and a gkg archive for every capture, on consecutive
/// lines.
type LastStamp<'a> = Option<(&'a [u8], CaptureInterval)>;

/// Decode one master-list line: exactly three whitespace-separated
/// tokens, `<size> <md5> <url>`.
// analyze: no_panic
fn decode<'a>(line: &Line<'a, '_>, last: &mut LastStamp<'a>) -> CsvResult<MasterListEntry> {
    let mut tokens = (0..line.width()).map(|k| line.field(k)).filter(|f| !f.is_empty());
    let (size, md5, url) = match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
        (Some(a), Some(b), Some(c), None) => (a, b, c),
        _ => {
            let got = (0..line.width()).filter(|&k| !line.field(k).is_empty()).count();
            return Err(CsvError::WrongColumnCount { table: "masterlist", expected: 3, got });
        }
    };
    let size = parse_u64(size, "size")?;
    // Not `all`: without the early exit the 32 tests vectorise.
    if md5.len() != 32 || !md5.iter().fold(true, |hex, b| hex & b.is_ascii_hexdigit()) {
        return Err(CsvError::field("md5", md5, "expected 32 hex digits"));
    }

    let file = url.rsplit(|&b| b == b'/').next().unwrap_or(url);
    let kind = if file.ends_with(b".export.CSV.zip") {
        ArchiveKind::Events
    } else if file.ends_with(b".mentions.CSV.zip") {
        ArchiveKind::Mentions
    } else if file.ends_with(b".gkg.csv.zip") {
        ArchiveKind::Gkg
    } else {
        return Err(CsvError::field("url", url, "unrecognized archive suffix"));
    };

    let stamp = file.split(|&b| b == b'.').next().unwrap_or(&[]);
    let interval = match *last {
        Some((of, interval)) if of == stamp => interval,
        _ => {
            let dt = parse_datetime(stamp, "url").map_err(|e| match e {
                CsvError::Model(_) => e,
                _ => CsvError::field("url", url, "expected a YYYYMMDDHHMMSS file name"),
            })?;
            let interval = CaptureInterval::from_datetime(dt).map_err(CsvError::Model)?;
            *last = Some((stamp, interval));
            interval
        }
    };

    Ok(MasterListEntry { size, kind, interval })
}

/// Parse one master-list line.
pub fn parse_masterlist_line(line: &str) -> CsvResult<MasterListEntry> {
    let mut scratch = LineScratch::default();
    decode(&Line::split(line.as_bytes(), Separator::Whitespace, &mut scratch), &mut None)
}

/// A parsed master list with malformed-line accounting.
#[derive(Debug, Default)]
pub struct MasterList {
    /// Entries that parsed cleanly, in file order.
    pub entries: Vec<MasterListEntry>,
    /// Count of malformed lines (Table II row 1).
    pub malformed: u64,
}

impl MasterList {
    /// Parse a full master-list file.
    pub fn parse(text: &str) -> Self {
        let mut out = MasterList::default();
        let mut last = None;
        for_each_line(text.as_bytes(), Separator::Whitespace, |_, line| {
            match decode(&line, &mut last) {
                Ok(e) => out.entries.push(e),
                Err(_) => out.malformed += 1,
            }
        });
        out
    }

    /// Intervals missing from the 15-minute sequence for `kind`, between
    /// the first and last entries present (Table II row 2: the paper
    /// found 8 missing archives).
    pub fn missing_intervals(&self, kind: ArchiveKind) -> Vec<CaptureInterval> {
        let mut present: Vec<u32> =
            self.entries.iter().filter(|e| e.kind == kind).map(|e| e.interval.0).collect();
        if present.len() < 2 {
            return Vec::new();
        }
        present.sort_unstable();
        present.dedup();
        let mut missing = Vec::new();
        for w in present.windows(2) {
            for iv in w[0] + 1..w[1] {
                missing.push(CaptureInterval(iv));
            }
        }
        missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MD5: &str = "0123456789abcdef0123456789abcdef";

    fn line(stamp: &str, kind: &str) -> String {
        format!("123456 {MD5} http://data.gdeltproject.org/gdeltv2/{stamp}.{kind}")
    }

    #[test]
    fn parses_events_entry() {
        let e = parse_masterlist_line(&line("20150218230000", "export.CSV.zip")).unwrap();
        assert_eq!(e.kind, ArchiveKind::Events);
        assert_eq!(e.size, 123_456);
        // 23:00 on epoch day = interval 92.
        assert_eq!(e.interval, CaptureInterval(92));
    }

    #[test]
    fn parses_mentions_and_gkg() {
        let m = parse_masterlist_line(&line("20150219000000", "mentions.CSV.zip")).unwrap();
        assert_eq!(m.kind, ArchiveKind::Mentions);
        let g = parse_masterlist_line(&line("20150219000000", "gkg.csv.zip")).unwrap();
        assert_eq!(g.kind, ArchiveKind::Gkg);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_masterlist_line("only two fields").is_err());
        assert!(parse_masterlist_line(&format!("x {MD5} http://a/20150218230000.export.CSV.zip"))
            .is_err());
        assert!(parse_masterlist_line("1 deadbeef http://a/20150218230000.export.CSV.zip").is_err());
        assert!(
            parse_masterlist_line(&format!("1 {MD5} http://a/20150218230000.unknown.zip")).is_err()
        );
        assert!(
            parse_masterlist_line(&format!("1 {MD5} http://a/2015021823.export.CSV.zip")).is_err()
        );
        assert!(parse_masterlist_line(&format!("1 {MD5} url extra")).is_err());
    }

    #[test]
    fn master_list_counts_malformed() {
        let text = format!(
            "{}\ngarbage\n{}\n",
            line("20150218230000", "export.CSV.zip"),
            line("20150218231500", "export.CSV.zip"),
        );
        let ml = MasterList::parse(&text);
        assert_eq!(ml.entries.len(), 2);
        assert_eq!(ml.malformed, 1);
    }

    #[test]
    fn detects_gaps() {
        // Intervals 92, 93, 96 present → 94, 95 missing.
        let text = [
            line("20150218230000", "export.CSV.zip"),
            line("20150218231500", "export.CSV.zip"),
            line("20150219000000", "export.CSV.zip"),
        ]
        .join("\n");
        let ml = MasterList::parse(&text);
        let missing = ml.missing_intervals(ArchiveKind::Events);
        assert_eq!(missing, vec![CaptureInterval(94), CaptureInterval(95)]);
        // No mentions entries → no detectable gaps.
        assert!(ml.missing_intervals(ArchiveKind::Mentions).is_empty());
    }

    #[test]
    fn no_gap_when_contiguous() {
        let text = [
            line("20150218230000", "mentions.CSV.zip"),
            line("20150218231500", "mentions.CSV.zip"),
        ]
        .join("\n");
        let ml = MasterList::parse(&text);
        assert!(ml.missing_intervals(ArchiveKind::Mentions).is_empty());
    }
}
