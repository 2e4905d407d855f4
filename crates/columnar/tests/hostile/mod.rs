//! Hostile GDELT text: a generated line per spec, damaged the ways
//! real exports are (and a few they are not), joined with CRLF or LF
//! terminators, blank lines and four kinds of ending. Shared by the
//! text-path property tests and the builder's chunked-staging tests.

use gdelt_csv::writer::{write_event_line, write_mention_line};
use gdelt_model::cameo::{CameoRoot, Goldstein, QuadClass};
use gdelt_model::event::{ActionGeo, EventRecord, GeoType};
use gdelt_model::ids::EventId;
use gdelt_model::mention::{MentionRecord, MentionType};
use gdelt_model::time::{DateTime, GDELT_EPOCH};
use proptest::prelude::*;

/// (small id, damage, CRLF terminator, blank line before, salt).
pub type LineSpec = (u64, u8, bool, bool, u32);

const DAMAGES: u8 = 26;

pub fn line_specs(max: usize) -> impl Strategy<Value = Vec<LineSpec>> {
    // Two thirds of the lines are left whole.
    let damage = (0u8..3 * DAMAGES).prop_map(|d| if d < DAMAGES { d } else { 0 });
    prop::collection::vec(
        (0u64..24, damage, any::<bool>(), (0u8..8).prop_map(|b| b == 0), any::<u32>()),
        0..max,
    )
}

pub fn event(id: u64, salt: u32) -> EventRecord {
    let day = GDELT_EPOCH.add_days(i64::from(salt % 40));
    let tagged = !salt.is_multiple_of(3);
    EventRecord {
        id: EventId(100 + id),
        // One in eight lies after its capture: a Table II problem.
        day: if salt.is_multiple_of(8) { day.add_days(3) } else { day },
        root: CameoRoot::new((salt % 20 + 1) as u8).unwrap(),
        event_code: "0231".into(),
        actor1_country: ["USA", "GBR", "", "XYZ", "usa"][salt as usize % 5].into(),
        actor2_country: ["", "CHN", "RUS"][salt as usize % 3].into(),
        quad_class: QuadClass::from_u8((salt % 4 + 1) as u8).unwrap(),
        goldstein: Goldstein::new((salt % 21) as f32 - 10.0).unwrap(),
        num_mentions: salt % 50,
        num_sources: salt % 7,
        num_articles: salt % 40,
        avg_tone: f32::from_bits(0x4000_0000 | (salt & 0x007f_ffff)) - 3.0,
        geo: ActionGeo {
            geo_type: if tagged { GeoType::WorldCity } else { GeoType::None },
            country_fips: if tagged {
                ["US", "UK", "ZZ", "CH"][salt as usize % 4].into()
            } else {
                String::new()
            },
            lat: tagged.then_some((salt % 180) as f32 / 2.0 - 45.0),
            lon: tagged.then_some(-(salt as f32 % 360.0) / 2.0),
        },
        date_added: DateTime::new(day, (salt % 24) as u8, (salt % 4 * 15) as u8, 0).unwrap(),
        source_url: format!("https://zürich-{}.example/{salt}", salt % 5),
    }
}

pub fn mention(id: u64, salt: u32) -> MentionRecord {
    let event_time =
        DateTime::new(GDELT_EPOCH.add_days(i64::from(salt % 40)), (salt % 24) as u8, 0, 0).unwrap();
    // One in sixteen was scraped before its event: a Table II problem.
    let delay = if salt.is_multiple_of(16) { -3_600 } else { i64::from(salt % 9_000) * 900 };
    MentionRecord {
        // Ids 124 and 125 never have an event.
        event_id: EventId(100 + id + u64::from(salt.is_multiple_of(3)) * 2),
        event_time,
        mention_time: DateTime::from_unix_seconds(event_time.to_unix_seconds() + delay),
        mention_type: MentionType::from_u8((salt % 6 + 1) as u8).unwrap(),
        source_name: format!(
            "paper{}.{}",
            salt % 11,
            ["com", "co.uk", "de", "örg"][salt as usize % 4]
        ),
        url: format!("https://x/{salt}"),
        confidence: (salt % 101) as u8,
        doc_tone: (salt % 2_000) as f32 / 100.0 - 10.0,
    }
}

fn set(cols: &mut [String], k: usize, to: &str) {
    cols[k] = to.to_owned();
}

pub fn damaged_event_line(&(id, damage, _, _, salt): &LineSpec) -> String {
    let mut cols: Vec<String> =
        write_event_line(&event(id, salt)).split('\t').map(str::to_owned).collect();
    match damage {
        1 => set(&mut cols, 59, "20140101000000"), // DATEADDED before the epoch
        2 => cols[0].insert(0, '+'),
        3 => set(&mut cols, 0, "99999999999999999999"),
        4 => set(&mut cols, 34, "NaN"),
        5 => set(&mut cols, 30, "1e0"),
        6 => [51, 53, 56, 57].iter().for_each(|&k| cols[k].clear()),
        7 => drop(cols.pop()),
        8 => cols.push("extra".into()),
        9 => set(&mut cols, 31, "+7"),
        10 => set(&mut cols, 28, "007"),
        11 => set(&mut cols, 6, "Zoë Müller"), // Actor1Name: not kept
        12 => cols[60].clear(),
        13 => set(&mut cols, 33, "4294967296"),
        14 => set(&mut cols, 56, "inf"),
        15 => set(&mut cols, 1, "20159999"),
        16 => set(&mut cols, 29, "5"),
        17 => set(&mut cols, 30, "10.5"), // Goldstein out of range
        18 => set(&mut cols, 51, "6"),
        19 => set(&mut cols, 59, "+20150301120000"),
        20 => set(&mut cols, 0, ""),
        21 => set(&mut cols, 57, "-0"),
        22 => set(&mut cols, 59, "99991231235959"),
        23 => return "not an events line at all".into(),
        24 => set(&mut cols, 1, "999990101"), // a nine-digit Day
        25 => set(&mut cols, 59, "4315117514063000"), // sixteen digits
        _ => {}
    }
    cols.join("\t")
}

pub fn damaged_mention_line(&(id, damage, _, _, salt): &LineSpec) -> String {
    let mut cols: Vec<String> =
        write_mention_line(&mention(id, salt)).split('\t').map(str::to_owned).collect();
    match damage {
        1 => set(&mut cols, 2, "20140101000000"), // scraped before the epoch
        2 => set(&mut cols, 1, "20150217234500"), // event time just before it
        3 => cols[0].insert(0, '+'),
        4 => set(&mut cols, 0, "99999999999999999999"),
        5 => set(&mut cols, 13, "NaN"),
        6 => set(&mut cols, 13, "-2.5e-1"),
        7 => drop(cols.pop()),
        8 => cols.push("extra".into()),
        9 => set(&mut cols, 11, "101"),
        10 => set(&mut cols, 3, "9"),
        11 => set(&mut cols, 4, ""),
        12 => set(&mut cols, 5, "https://ünï.example/ö"),
        13 => set(&mut cols, 11, "+0100"),
        14 => set(&mut cols, 2, "20150230120000"),
        15 => set(&mut cols, 13, ""),
        16 => set(&mut cols, 1, "4315117514063000"), // sixteen digits
        17 => set(&mut cols, 2, "+20150218063000"),
        23 => return "\t".into(),
        _ => {}
    }
    cols.join("\t")
}

/// Join the lines as their specs say and end the text one of four ways.
pub fn render(specs: &[LineSpec], line_of: fn(&LineSpec) -> String, ending: u8) -> String {
    let mut text = String::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.3 {
            text.push_str(if spec.2 { "\r\n" } else { "\n" });
        }
        text.push_str(&line_of(spec));
        let last = i + 1 == specs.len();
        match (last, ending) {
            (true, 1) => {}                     // no terminator
            (true, 2) => text.push('\r'),       // a lone final `\r`
            (true, 3) => text.push_str("\n\n"), // blank lines at the end
            _ => text.push_str(if spec.2 { "\r\n" } else { "\n" }),
        }
    }
    text
}
