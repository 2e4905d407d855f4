//! Tone and event-type analyses — extensions over the columns the
//! paper's exhibits leave dormant.
//!
//! GDELT attaches an average tone to every event and article and a
//! CAMEO/QuadClass type to every event; the paper notes these "advanced
//! features … have so far not found wide adoption" (§III) and focuses
//! on monitoring itself. With the columns already resident, the
//! analyses are one scan each:
//!
//! * mean event tone by event country — which countries' news is
//!   gloomiest;
//! * mean article tone by publishing country — which press writes most
//!   negatively;
//! * QuadClass mix (verbal/material × cooperation/conflict) per quarter
//!   — the conflict share of the news over time.

use crate::render::{fmt_f, TextTable};
use gdelt_columnar::Dataset;
use gdelt_engine::aggregate::{count_by, mean_f32_by};
use gdelt_engine::ExecContext;
use gdelt_model::cameo::QuadClass;
use gdelt_model::country::CountryRegistry;
use gdelt_model::ids::CountryId;
use gdelt_model::time::Quarter;

/// Mean tone and volume for one country.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountryTone {
    /// The country.
    pub country: CountryId,
    /// Mean tone.
    pub mean_tone: f64,
    /// Rows contributing.
    pub count: u64,
}

/// Mean *event* tone by event country, most-covered countries first.
pub fn event_tone_by_country(
    ctx: &ExecContext,
    d: &Dataset,
    registry: &CountryRegistry,
    k: usize,
) -> Vec<CountryTone> {
    let sums = mean_f32_by(ctx, &d.events.country, &d.events.avg_tone, registry.len());
    rank_by_count(sums, k)
}

/// Mean *article* tone by publishing country (via the source country of
/// each mention), most-publishing countries first.
pub fn article_tone_by_publisher(
    ctx: &ExecContext,
    d: &Dataset,
    registry: &CountryRegistry,
    k: usize,
) -> Vec<CountryTone> {
    // Project each mention to its publisher's country once.
    let keys: Vec<u16> = d.mentions.source.iter().map(|&s| d.sources.country[s as usize]).collect();
    let sums = mean_f32_by(ctx, &keys, &d.mentions.doc_tone, registry.len());
    rank_by_count(sums, k)
}

fn rank_by_count(sums: Vec<(f64, u64)>, k: usize) -> Vec<CountryTone> {
    let mut idx: Vec<usize> = (0..sums.len()).filter(|&i| sums[i].1 > 0).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(sums[i].1));
    idx.truncate(k);
    idx.into_iter()
        .map(|i| CountryTone {
            country: CountryId(i as u16),
            mean_tone: sums[i].0 / sums[i].1 as f64,
            count: sums[i].1,
        })
        .collect()
}

/// QuadClass shares per quarter: `shares[q][class-1]` ∈ [0, 1].
#[derive(Debug, Clone, PartialEq)]
pub struct QuadClassMix {
    /// Quarter of the first row.
    pub base: Quarter,
    /// One row per quarter, four shares each (Verbal/Material
    /// Cooperation, Verbal/Material Conflict), summing to 1 where the
    /// quarter has events.
    pub shares: Vec<[f64; 4]>,
}

/// Compute the QuadClass mix per quarter from the events table.
pub fn quad_class_mix(ctx: &ExecContext, d: &Dataset) -> QuadClassMix {
    let Some((base, n)) = d.quarter_span() else {
        return QuadClassMix { base: Quarter { year: 2015, q: 1 }, shares: Vec::new() };
    };
    // Combined key: quarter * 4 + (quad - 1).
    let keys: Vec<u16> = d
        .events
        .quarter
        .iter()
        .zip(d.events.quad.iter())
        .map(|(&q, &c)| (q - base) * 4 + u16::from(c) - 1)
        .collect();
    let counts = count_by(ctx, &keys, n * 4);
    let shares = (0..n)
        .map(|q| {
            let slice = &counts[q * 4..q * 4 + 4];
            let total: u64 = slice.iter().sum();
            if total == 0 {
                [0.0; 4]
            } else {
                [
                    slice[0] as f64 / total as f64,
                    slice[1] as f64 / total as f64,
                    slice[2] as f64 / total as f64,
                    slice[3] as f64 / total as f64,
                ]
            }
        })
        .collect();
    QuadClassMix { base: Quarter::from_linear(i32::from(base)), shares }
}

/// Render the tone rankings and quad mix as one section.
pub fn render(
    registry: &CountryRegistry,
    event_tone: &[CountryTone],
    publisher_tone: &[CountryTone],
    mix: &QuadClassMix,
) -> String {
    let name =
        |c: CountryId| registry.get(c).map(|c| c.name.to_owned()).unwrap_or_else(|| "?".into());
    let mut out = String::from("Tone and event-type extensions\n");
    let mut t = TextTable::new(&["Event country", "Mean tone", "Events"]);
    for r in event_tone {
        t.row(vec![name(r.country), fmt_f(r.mean_tone, 2), r.count.to_string()]);
    }
    out.push_str(&t.render());
    let mut t = TextTable::new(&["Publishing country", "Mean article tone", "Articles"]);
    for r in publisher_tone {
        t.row(vec![name(r.country), fmt_f(r.mean_tone, 2), r.count.to_string()]);
    }
    out.push_str(&t.render());
    let mut t = TextTable::new(&["Quarter", "VerbCoop", "MatCoop", "VerbConf", "MatConf"]);
    for (i, s) in mix.shares.iter().enumerate() {
        let q = Quarter::from_linear(mix.base.linear() + i as i32);
        t.row(vec![q.to_string(), fmt_f(s[0], 3), fmt_f(s[1], 3), fmt_f(s[2], 3), fmt_f(s[3], 3)]);
    }
    out.push_str(&t.render());
    out
}

/// The four class labels in share order (for plots/tables).
pub const QUAD_LABELS: [(&str, QuadClass); 4] = [
    ("Verbal cooperation", QuadClass::VerbalCooperation),
    ("Material cooperation", QuadClass::MaterialCooperation),
    ("Verbal conflict", QuadClass::VerbalConflict),
    ("Material conflict", QuadClass::MaterialConflict),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        gdelt_synth::generate_dataset(&gdelt_synth::scenario::tiny(92)).0
    }

    fn ctx() -> ExecContext {
        ExecContext::builder().threads(2).build()
    }

    #[test]
    fn event_tone_ranks_by_volume() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let rows = event_tone_by_country(&ctx(), &d, &reg, 5);
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        // The US has the most tagged events in the calibrated mix.
        assert_eq!(rows[0].country, reg.by_name("USA"));
        for r in &rows {
            assert!((-20.0..=20.0).contains(&r.mean_tone));
        }
    }

    #[test]
    fn publisher_tone_covers_active_countries() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let rows = article_tone_by_publisher(&ctx(), &d, &reg, 10);
        let total: u64 = rows.iter().map(|r| r.count).sum();
        assert!(total > 0);
        assert!(total <= d.mentions.len() as u64);
    }

    #[test]
    fn quad_mix_rows_sum_to_one() {
        let d = dataset();
        let mix = quad_class_mix(&ctx(), &d);
        assert!(!mix.shares.is_empty());
        for (i, s) in mix.shares.iter().enumerate() {
            let sum: f64 = s.iter().sum();
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9, "quarter {i} shares sum to {sum}");
        }
        // The generator draws roots uniformly → material conflict
        // (7 of 20 roots) is the largest class on average.
        let avg_mc: f64 = mix.shares.iter().map(|s| s[3]).sum::<f64>() / mix.shares.len() as f64;
        assert!(avg_mc > 0.25, "material conflict share {avg_mc}");
    }

    #[test]
    fn render_includes_everything() {
        let d = dataset();
        let reg = CountryRegistry::new();
        let et = event_tone_by_country(&ctx(), &d, &reg, 3);
        let pt = article_tone_by_publisher(&ctx(), &d, &reg, 3);
        let mix = quad_class_mix(&ctx(), &d);
        let text = render(&reg, &et, &pt, &mix);
        assert!(text.contains("Mean tone"));
        assert!(text.contains("VerbConf"));
        assert!(QUAD_LABELS[3].0.contains("Material"));
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::default();
        let reg = CountryRegistry::new();
        assert!(event_tone_by_country(&ctx(), &d, &reg, 5).is_empty());
        assert!(quad_class_mix(&ctx(), &d).shares.is_empty());
    }
}
