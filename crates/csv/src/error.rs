//! Parse-error types with enough context to drive the cleaning report.

use gdelt_model::ModelError;
use std::fmt;

/// Result alias for parsing operations.
pub type CsvResult<T> = std::result::Result<T, CsvError>;

/// An error raised while parsing a raw GDELT line.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// The line did not have the expected number of tab-separated columns.
    WrongColumnCount {
        /// Table name (`"events"`, `"mentions"`, `"masterlist"`).
        table: &'static str,
        /// Columns the format mandates.
        expected: usize,
        /// Columns actually present.
        got: usize,
    },
    /// A single field failed to parse.
    Field {
        /// GDELT codebook name of the column.
        column: &'static str,
        /// The raw field content (truncated).
        raw: String,
        /// Why it failed.
        reason: &'static str,
    },
    /// A model-level validation failed (date ranges etc.).
    Model(ModelError),
}

impl CsvError {
    /// Helper to build a field error with a truncated raw excerpt (bytes
    /// that are not UTF-8 show as U+FFFD).
    #[cold]
    pub fn field(column: &'static str, raw: impl AsRef<[u8]>, reason: &'static str) -> Self {
        let raw = String::from_utf8_lossy(raw.as_ref()).chars().take(48).collect();
        CsvError::Field { column, raw, reason }
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::WrongColumnCount { table, expected, got } => {
                write!(f, "{table} line has {got} columns, expected {expected}")
            }
            CsvError::Field { column, raw, reason } => {
                write!(f, "column {column}: {reason} (got {raw:?})")
            }
            CsvError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<ModelError> for CsvError {
    fn from(e: ModelError) -> Self {
        CsvError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_excerpt_is_truncated() {
        let long = "x".repeat(500);
        let e = CsvError::field("SOURCEURL", &long, "too long");
        if let CsvError::Field { raw, .. } = &e {
            assert_eq!(raw.len(), 48);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn display_mentions_table_and_counts() {
        let e = CsvError::WrongColumnCount { table: "events", expected: 61, got: 3 };
        let s = e.to_string();
        assert!(s.contains("61") && s.contains("3") && s.contains("events"));
    }

    #[test]
    fn model_error_converts() {
        let m = ModelError::OutOfRange { field: "QuadClass", value: "7".into() };
        let e: CsvError = m.clone().into();
        assert_eq!(e, CsvError::Model(m));
    }
}
