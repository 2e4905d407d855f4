//! Table V — common reporting between world regions.
//!
//! Jaccard co-reporting between the Top-10 publishing countries. The
//! paper's qualitative findings: a strong UK–USA–Australia cluster
//! (≈ 0.09–0.11), India weakly attached (≈ 0.02–0.03), the rest far
//! lower (≤ 0.01).

use crate::render::{fmt_cell, TextTable};
use gdelt_engine::coreport::CoReport;
use gdelt_engine::Matrix;
use gdelt_model::country::CountryRegistry;
use gdelt_model::ids::CountryId;

/// Table V result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// Country ids in row/column order.
    pub countries: Vec<CountryId>,
    /// Display names.
    pub names: Vec<String>,
    /// Jaccard matrix (diagonal zeroed, as the paper leaves it blank).
    pub jaccard: Matrix<f64>,
}

/// Compute Table V from a country co-report for the paper's Top-10
/// publishing countries.
pub fn compute(cc: &CoReport, registry: &CountryRegistry) -> Table5 {
    let countries: Vec<CountryId> = registry.paper_top10_publishing().to_vec();
    let names = countries
        .iter()
        .map(|&c| registry.get(c).map(|c| c.name.to_owned()).unwrap_or_default())
        .collect();
    let k = countries.len();
    let mut jaccard = Matrix::zeros(k, k);
    for (i, &a) in countries.iter().enumerate() {
        for (j, &b) in countries.iter().enumerate() {
            if i != j {
                jaccard.set(i, j, cc.jaccard(a.index(), b.index()));
            }
        }
    }
    Table5 { countries, names, jaccard }
}

/// Render in the paper's layout.
pub fn render(t5: &Table5) -> String {
    let mut header = vec!["".to_string()];
    header.extend(t5.names.iter().cloned());
    let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, name) in t5.names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for j in 0..t5.names.len() {
            row.push(if i == j { String::new() } else { fmt_cell(t5.jaccard.get(i, j)) });
        }
        t.row(row);
    }
    format!("Table V: common reporting between world regions (Jaccard)\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdelt_engine::ExecContext;

    fn table5() -> Table5 {
        let d = gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(36)).0;
        let reg = CountryRegistry::new();
        let cc = CoReport::countries(&ExecContext::builder().threads(2).build(), &d, reg.len());
        compute(&cc, &reg)
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let t5 = table5();
        let k = t5.countries.len();
        assert_eq!(k, 10);
        for i in 0..k {
            assert_eq!(t5.jaccard.get(i, i), 0.0);
            for j in 0..k {
                assert!((t5.jaccard.get(i, j) - t5.jaccard.get(j, i)).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&t5.jaccard.get(i, j)));
            }
        }
    }

    #[test]
    fn anglosphere_cluster_dominates() {
        let t5 = table5();
        // Row/col order: UK, USA, Australia, India, Italy, ...
        let uk_usa = t5.jaccard.get(0, 1);
        assert!(uk_usa > 0.0, "UK-USA co-reporting must exist");
        // UK-USA tops UK-Philippines (the weakest paper cell).
        let uk_ph = t5.jaccard.get(0, 9);
        assert!(uk_usa > uk_ph, "cluster structure missing: {uk_usa} vs {uk_ph}");
    }

    #[test]
    fn render_shows_names() {
        let t5 = table5();
        let text = render(&t5);
        assert!(text.contains("UK"));
        assert!(text.contains("Philippines"));
        assert!(text.contains("Table V"));
    }
}
