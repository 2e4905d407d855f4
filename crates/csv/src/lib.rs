//! # gdelt-csv
//!
//! Ingest substrate for the raw GDELT 2.0 export format.
//!
//! GDELT publishes, every 15 minutes, a pair of tab-separated files — the
//! 61-column *Events* table and the 16-column *Mentions* table — plus a
//! master file list enumerating every archive. The paper's system reads
//! these once, validates and cleans them (reporting the Table II problem
//! classes), and converts them into the indexed binary format handled by
//! `gdelt-columnar`.
//!
//! This crate provides:
//!
//! * byte-level tab-separated field handling: the delimiter index, the
//!   line walker and the primitive field parsers ([`fields`]);
//! * one projecting decoder per table — [`events::EventRow`] and
//!   [`mentions::MentionRow`] borrow the kept columns of a line, and the
//!   record parsers are their owned form ([`events`], [`mentions`]);
//! * the master-file-list parser with gap detection ([`masterlist`]);
//! * the cleaning/validation pass and its problem report ([`clean`]);
//! * a TSV writer for round-trips and for the synthetic generator
//!   ([`writer`]).

#![warn(missing_docs)]

pub mod clean;
pub mod error;
pub mod events;
pub mod fields;
pub mod masterlist;
pub mod mentions;
pub mod writer;

pub use clean::{CleanReport, Cleaner};
pub use error::{CsvError, CsvResult};
pub use events::{parse_event_line, EventRow};
pub use masterlist::{MasterList, MasterListEntry};
pub use mentions::{parse_mention_line, MentionRow};
pub use writer::{write_event_line, write_mention_line};
