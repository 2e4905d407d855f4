//! The seeded inputs: records from `gdelt_synth`, the held-out slices the
//! writes append, and the TSV the ingest paths read.
//!
//! `paper_calibrated(scale, seed)` fixes `n_events` and `n_sources`, so a
//! seed changes content and never size. Time spent here is reported as
//! `synth.generate_s` and kept out of `setup_s`.

use gdelt_model::event::EventRecord;
use gdelt_model::mention::MentionRecord;
use gdelt_synth::{emit::to_tsv, generate, paper_calibrated, GeneratedData};
use std::collections::VecDeque;
use std::time::Instant;

/// Events per write: one 15-minute GDELT update at this scale.
pub const SLICE_EVENTS: usize = 256;
/// Held-out slices: enough for every write of a 20 s run on a host several
/// times faster than the one this was sized on.
const MAX_SLICES: usize = 384;
/// Layer probes run on at most this many events of the workload's corpus,
/// and append this many slices that follow them.
const PROBE_EVENTS: usize = 400_000;
const PROBE_SLICES: usize = 8;

/// One held-out batch: events and the mentions that report on them.
pub type Slice = (Vec<EventRecord>, Vec<MentionRecord>);

pub struct Corpus {
    /// Everything but the held-out tail.
    pub data: GeneratedData,
    /// The latest events in id (= time) order, [`SLICE_EVENTS`] per slice.
    pub slices: VecDeque<Slice>,
    pub generate_s: f64,
}

/// The raw text of a corpus, as a real archive would deliver it.
pub struct Tsv {
    pub masterlist: String,
    pub events: String,
    pub mentions: String,
}

/// At most `want` slices, and never more than a quarter of `n_events`.
fn slice_count(n_events: usize, want: usize) -> usize {
    want.min(n_events / 4 / SLICE_EVENTS)
}

/// Cut id-ascending `events` into slices, each with the `mentions` that
/// report on its events (a mention of an unknown id goes with the event
/// before it).
fn into_slices(events: Vec<EventRecord>, mentions: Vec<MentionRecord>) -> VecDeque<Slice> {
    let mut by_slice: Vec<Vec<MentionRecord>> =
        (0..events.len().div_ceil(SLICE_EVENTS)).map(|_| Vec::new()).collect();
    for m in mentions {
        let at = events.partition_point(|e| e.id <= m.event_id).saturating_sub(1);
        by_slice[at / SLICE_EVENTS].push(m);
    }
    let mut events = events.into_iter();
    by_slice.into_iter().map(|m| (events.by_ref().take(SLICE_EVENTS).collect(), m)).collect()
}

impl Corpus {
    /// Generate the corpus for `(scale, seed)`; with `hold_out`, keep its
    /// latest events back as the slices the workload's writes append.
    pub fn generate(scale: f64, seed: u64, hold_out: bool) -> Corpus {
        let t = Instant::now();
        let mut data = generate(&paper_calibrated(scale, seed));
        let mut slices = VecDeque::new();
        let n_slices = if hold_out { slice_count(data.events.len(), MAX_SLICES) } else { 0 };
        if n_slices > 0 {
            let tail = data.events.split_off(data.events.len() - n_slices * SLICE_EVENTS);
            let cut_id = tail[0].id;
            let (base, held) =
                std::mem::take(&mut data.mentions).into_iter().partition(|m| m.event_id < cut_id);
            data.mentions = base;
            slices = into_slices(tail, held);
        }
        Corpus { data, slices, generate_s: t.elapsed().as_secs_f64() }
    }

    /// Render the base records as TSV.
    pub fn tsv(&self) -> Tsv {
        let (events, mentions) = to_tsv(&self.data);
        Tsv { masterlist: self.data.masterlist.clone(), events, mentions }
    }

    /// What the layer probes run on: the first [`PROBE_EVENTS`] events of
    /// the base records with their mentions, as TSV, and the
    /// [`PROBE_SLICES`] slices that follow them. Call it before set-up
    /// consumes the records.
    pub fn probe_inputs(&self) -> (Tsv, Vec<Slice>) {
        let all = &self.data.events;
        let held = slice_count(all.len(), PROBE_SLICES) * SLICE_EVENTS;
        let n = PROBE_EVENTS.min(all.len() - held);
        let id_at = |i: usize| all.get(i).map_or(u64::MAX, |e| e.id.0);
        let (lo, hi) = (id_at(n), id_at(n + held));
        let mut base = Vec::new();
        let mut tail = Vec::new();
        for m in &self.data.mentions {
            match m.event_id.0 {
                id if id < lo => base.push(m.clone()),
                id if id < hi => tail.push(m.clone()),
                _ => {}
            }
        }
        let capped = GeneratedData {
            population: self.data.population.clone(),
            events: all[..n].to_vec(),
            mentions: base,
            masterlist: String::new(),
        };
        let (events, mentions) = to_tsv(&capped);
        let slices = into_slices(all[n..n + held].to_vec(), tail);
        (Tsv { masterlist: self.data.masterlist.clone(), events, mentions }, slices.into())
    }
}
