//! Golden-corruption corpus: a committed store image plus a table of
//! single-byte flips with their expected verdicts from both loaders.
//!
//! The image at `tests/golden/corruption_store.bin` is a tiny
//! partitioned store written once (see [`regenerate_golden_store`]) and
//! committed, so the case table's section-relative offsets stay
//! meaningful across toolchain and code changes. A digest guard pins
//! the exact bytes: if the image is ever regenerated, the guard fails
//! first, forcing the case table to be re-verified instead of silently
//! drifting.
//!
//! Each case flips one byte at `section payload + offset` and states
//! what must happen:
//!
//! * [`Verdict::Quarantine`]: the strict loader rejects the store, the
//!   degraded loader succeeds and quarantines exactly the listed
//!   partitions (damage is localizable);
//! * [`Verdict::Reject`]: both loaders reject (header, meta-section, or
//!   global-section damage cannot be localized).

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use gdelt_columnar::binfmt::{checksum64, load, save_with_partitions, scan_layout};
use gdelt_columnar::load_degraded;

/// Partition count the committed image was written with.
const PARTS: u32 = 8;

/// Synth seed the committed image was generated from.
const SEED: u64 = 4242;

/// `checksum64` digest of the committed image bytes — the guard that keeps
/// the case table honest.
const IMAGE_DIGEST: u64 = 0xd3b7_3ecb_f9fa_0f5f;

/// Expected loader behaviour for one corruption case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Strict load fails; degraded load quarantines exactly these
    /// partitions.
    Quarantine(&'static [u32]),
    /// Both loaders refuse the store.
    Reject,
}

/// One corruption case: flip `payload[offset] ^= xor` in `section`
/// (empty section name = absolute file offset, for header damage).
struct Case {
    name: &'static str,
    section: &'static str,
    offset: u64,
    xor: u8,
    verdict: Verdict,
}

/// The corpus. Offsets are relative to the section *payload* (after
/// the section header), so they survive unrelated layout shifts; the
/// partition assignments were verified against the committed image and
/// are pinned by [`IMAGE_DIGEST`].
const CASES: &[Case] = &[
    Case { name: "magic header byte", section: "", offset: 2, xor: 0xFF, verdict: Verdict::Reject },
    Case {
        name: "partitions.meta payload",
        section: "partitions.meta",
        offset: 16,
        xor: 0x01,
        verdict: Verdict::Reject,
    },
    Case {
        name: "global section (source directory)",
        section: "sources.names.bytes",
        offset: 3,
        xor: 0x20,
        verdict: Verdict::Reject,
    },
    Case {
        name: "events.day first partition",
        section: "events.day",
        offset: 0,
        xor: 0xFF,
        verdict: Verdict::Quarantine(&[0]),
    },
    Case {
        name: "events.id mid-store",
        section: "events.id",
        offset: 1000,
        xor: 0x10,
        verdict: Verdict::Quarantine(&[3]),
    },
    Case {
        name: "mentions.delay tail partition",
        section: "mentions.delay",
        offset: 2100,
        xor: 0x04,
        verdict: Verdict::Quarantine(&[7]),
    },
    Case {
        name: "shared events.urls.offsets boundary entry",
        section: "events.urls.offsets",
        offset: 304,
        xor: 0x08,
        verdict: Verdict::Quarantine(&[0, 1]),
    },
    Case {
        name: "url byte pool",
        section: "events.urls.bytes",
        offset: 64,
        xor: 0x80,
        verdict: Verdict::Quarantine(&[0]),
    },
];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corruption_store.bin")
}

fn image() -> Vec<u8> {
    std::fs::read(golden_path()).expect("committed golden store image")
}

/// Copy the image to a temp file with one byte flipped; returns the
/// temp path (caller's dir is cleaned by the caller).
fn flipped_copy(dir: &Path, case: &Case) -> PathBuf {
    let path = dir.join("store.bin");
    std::fs::write(&path, image()).expect("write copy");
    let pos = if case.section.is_empty() {
        case.offset
    } else {
        let layout = scan_layout(&path).expect("scan layout");
        let s = layout
            .iter()
            .find(|s| s.name == case.section)
            .unwrap_or_else(|| panic!("section {} missing from image", case.section));
        assert!(case.offset < s.payload_len, "case {} offset out of range", case.name);
        s.payload_offset + case.offset
    };
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).expect("open");
    f.seek(SeekFrom::Start(pos)).expect("seek");
    let mut b = [0u8; 1];
    f.read_exact(&mut b).expect("read");
    f.seek(SeekFrom::Start(pos)).expect("seek");
    f.write_all(&[b[0] ^ case.xor]).expect("write");
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("golden-corruption-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn image_digest_guard() {
    let bytes = image();
    assert_eq!(
        checksum64(&bytes),
        IMAGE_DIGEST,
        "golden image changed — re-verify every case in CASES and update IMAGE_DIGEST"
    );
}

#[test]
fn pristine_image_loads_clean_under_both_loaders() {
    let dir = temp_dir("pristine");
    let path = dir.join("store.bin");
    std::fs::write(&path, image()).expect("write copy");
    assert!(load(&path).is_ok(), "strict loader must accept the pristine image");
    let d = load_degraded(&path).expect("degraded loader must accept the pristine image");
    assert!(d.health.is_clean(), "{:?}", d.health);
    assert!(d.health.coverage().is_full());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_corpus_verdicts() {
    for case in CASES {
        let dir = temp_dir(&case.name.replace(' ', "-"));
        let path = flipped_copy(&dir, case);
        let strict = load(&path);
        assert!(strict.is_err(), "case `{}`: strict loader accepted corruption", case.name);
        let degraded = load_degraded(&path);
        match case.verdict {
            Verdict::Quarantine(parts) => {
                let d = degraded.unwrap_or_else(|e| {
                    panic!("case `{}`: degraded loader rejected localizable damage: {e}", case.name)
                });
                assert_eq!(
                    d.health.quarantined, parts,
                    "case `{}`: wrong quarantine set",
                    case.name
                );
                assert!(!d.health.coverage().is_full(), "case `{}`", case.name);
            }
            Verdict::Reject => {
                assert!(
                    degraded.is_err(),
                    "case `{}`: degraded loader accepted unlocalizable damage",
                    case.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The first 53 bytes of the image this suite committed before store
/// format v2: `GDHPC1` magic, 34 sections, the `partitions.meta` header
/// with its FNV-1a checksum, and the start of its payload.
const V1_HEAD: &[u8] = b"GDHPC1\0\0\x22\0\0\0\x0f\0partitions.meta\xab\x0a\0\0\0\0\0\0\
\x74\xd9\x0e\x61\x09\x88\x7f\x4c\x01\0\0\0\x08\0\0\0";

/// The first 53 bytes of the image this suite committed before store
/// format v3: `GDHPC2` magic, 34 sections, the `partitions.meta` header
/// with its `checksum64`, and the start of its payload.
const V2_HEAD: &[u8] = b"GDHPC2\0\0\x22\0\0\0\x0f\0partitions.meta\xab\x0a\0\0\0\0\0\0\
\x12\x4c\xae\xbe\x07\x46\xd4\xa1\x01\0\0\0\x08\0\0\0";

/// Every reader refuses an old store's `head`, naming its `version`
/// and how to get a current one.
fn assert_refused_with_a_reconvert_hint(head: &[u8], version: &str) {
    let dir = temp_dir(version);
    let path = dir.join("store.bin");
    std::fs::write(&path, head).expect("write old head");
    for err in [
        load(&path).expect_err("strict loader read an old store"),
        load_degraded(&path).expect_err("degraded loader read an old store"),
        scan_layout(&path).expect_err("layout scan read an old store"),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!(
                "unsupported store format {version}: re-run `gdelt-cli convert`"
            )),
            "{msg}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_store_is_refused_with_a_reconvert_hint() {
    assert_refused_with_a_reconvert_hint(V1_HEAD, "GDHPC1");
}

#[test]
fn v2_store_is_refused_with_a_reconvert_hint() {
    assert_refused_with_a_reconvert_hint(V2_HEAD, "GDHPC2");
}

/// Writes the committed image. Run once, commit the file, update
/// [`IMAGE_DIGEST`], and re-verify the case table:
/// `cargo test -p gdelt-columnar --test golden_corruption regenerate -- --ignored`
#[test]
#[ignore = "writes the committed golden image"]
fn regenerate_golden_store() {
    let cfg = gdelt_synth::scenario::tiny(SEED);
    let d = gdelt_synth::generate_dataset(&cfg).0;
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
    save_with_partitions(&path, &d, PARTS).expect("write golden store");
    let bytes = std::fs::read(&path).expect("read back");
    eprintln!("golden image: {} bytes, checksum64 = {:#018x}", bytes.len(), checksum64(&bytes));
    for s in scan_layout(&path).expect("layout") {
        eprintln!(
            "  section {:<24} payload_offset={:<8} len={}",
            s.name, s.payload_offset, s.payload_len
        );
    }
    let ext = gdelt_columnar::binfmt::read_store_extents(&path).expect("extents");
    for (p, e) in ext.extents.iter().enumerate() {
        eprintln!(
            "  partition {p}: events [{}, {}), mentions [{}, {})",
            e.ev_begin, e.ev_end, e.m_begin, e.m_end
        );
    }
}
