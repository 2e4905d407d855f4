//! Wire-protocol round-trip properties: every frame a router and its
//! workers exchange must encode→frame→decode bit-identically, and
//! truncated or corrupted frames must come back as typed
//! [`WireError`]s — never a panic, never a silently-wrong value.

use gdelt_columnar::binfmt::checksum64;
use gdelt_engine::coreport::CountryCoReport;
use gdelt_engine::crossreport::CrossReport;
use gdelt_engine::filter::Bitmap;
use gdelt_engine::followreport::FollowReport;
use gdelt_engine::partial::{ActiveSourcesPartial, DelayHist, ShardPartial, ShardQuery};
use gdelt_engine::timeseries::QuarterlySeries;
use gdelt_engine::{Matrix, SeriesKind};
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;
use gdelt_shard::wire::{
    FlightForward, Frame, Health, Hello, WireError, WireSpan, CHECKSUM_LEN, HEADER_LEN, VERSION,
};
use proptest::prelude::*;

fn series_kind() -> impl Strategy<Value = SeriesKind> {
    prop_oneof![
        Just(SeriesKind::Events),
        Just(SeriesKind::Articles),
        Just(SeriesKind::ActiveSources),
        (1u32..2000).prop_map(|threshold| SeriesKind::LateArticles { threshold }),
    ]
}

fn matrix() -> impl Strategy<Value = Matrix<u64>> {
    (0usize..5, 0usize..5, prop::collection::vec(0u64..1_000_000, 0..25)).prop_map(
        |(rows, cols, data)| {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    m.set(r, c, data.get(r * cols + c).copied().unwrap_or(7));
                }
            }
            m
        },
    )
}

fn vec_u64() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..u64::MAX / 2, 0..12)
}

fn subset() -> impl Strategy<Value = Vec<SourceId>> {
    prop::collection::vec((0u32..10_000).prop_map(SourceId), 0..10)
}

fn series() -> impl Strategy<Value = QuarterlySeries> {
    (
        (1990i16..2030, 1u8..5),
        prop::collection::vec((0u64..1_000_000).prop_map(|v| v as f64), 0..16),
    )
        .prop_map(|((year, q), values)| QuarterlySeries { base: Quarter { year, q }, values })
}

fn shard_query() -> impl Strategy<Value = ShardQuery> {
    prop_oneof![
        Just(ShardQuery::CoReport),
        subset().prop_map(|sources| ShardQuery::FollowReportWith { sources }),
        Just(ShardQuery::CrossCountry),
        Just(ShardQuery::Delay),
        series_kind().prop_map(ShardQuery::TimeSeries),
        Just(ShardQuery::PublisherCounts),
        (1u32..64).prop_map(|k| ShardQuery::TopEvents { k }),
    ]
}

fn delay_hist() -> impl Strategy<Value = DelayHist> {
    prop::collection::vec((0u32..40_000, 1u64..1_000), 0..8).prop_map(|mut runs| {
        runs.sort();
        runs.dedup_by_key(|r| r.0);
        DelayHist { runs }
    })
}

fn active_sources() -> impl Strategy<Value = ShardPartial> {
    (
        0usize..100,
        -200i32..200,
        prop::collection::vec(prop::collection::vec(any::<u16>(), 0..6), 0..4),
    )
        .prop_map(|(n_sources, base, qsets)| {
            let quarters = qsets
                .into_iter()
                .map(|bits| {
                    let mut bm = Bitmap::new(n_sources);
                    if n_sources > 0 {
                        for b in bits {
                            bm.set(b as usize % n_sources);
                        }
                    }
                    bm
                })
                .collect();
            ShardPartial::ActiveSources(ActiveSourcesPartial { base, quarters })
        })
}

fn shard_partial() -> impl Strategy<Value = ShardPartial> {
    prop_oneof![
        (matrix(), vec_u64()).prop_map(|(pairs, event_counts)| ShardPartial::CoReport(
            CountryCoReport { pairs, event_counts }
        )),
        (subset(), matrix(), vec_u64()).prop_map(|(subset, follow_counts, articles)| {
            ShardPartial::FollowReport(FollowReport { subset, follow_counts, articles })
        }),
        (matrix(), vec_u64(), vec_u64()).prop_map(
            |(counts, articles_by_publisher, events_by_country)| {
                ShardPartial::CrossCountry(CrossReport {
                    counts,
                    articles_by_publisher,
                    events_by_country,
                })
            }
        ),
        prop::collection::vec(delay_hist(), 0..6).prop_map(ShardPartial::Delay),
        active_sources(),
        series().prop_map(ShardPartial::Series),
        vec_u64().prop_map(ShardPartial::PublisherCounts),
        (1u32..64, prop::collection::vec((0u64..1_000_000, 0u64..1_000_000), 0..10))
            .prop_map(|(k, entries)| ShardPartial::TopEvents { k, entries }),
    ]
}

fn flight_forward() -> impl Strategy<Value = FlightForward> {
    (any::<u64>(), any::<u64>(), 0u8..=2, "[a-z_]{0,12}", "[a-z_]{0,12}", "[a-z0-9 ]{0,30}")
        .prop_map(|(seq, t_us, level, component, code, detail)| FlightForward {
            seq,
            t_us,
            level,
            component,
            code,
            detail,
        })
}

fn wire_span() -> impl Strategy<Value = WireSpan> {
    (
        ("[a-z_]{0,16}", "[a-z]{0,8}", any::<u64>(), any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(("[a-z]{1,8}", any::<u64>()), 0..3),
    )
        .prop_map(
            |((name, cat, start_unix_ns, dur_ns, tid), (trace_id, span_id, parent_id), args)| {
                WireSpan {
                    name,
                    cat,
                    start_unix_ns,
                    dur_ns,
                    tid,
                    trace_id,
                    span_id,
                    parent_id,
                    args,
                }
            },
        )
}

fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(shard_id, partitions, ev_row_base, events, mentions, generation)| {
                Frame::Hello(Hello {
                    shard_id,
                    partitions,
                    ev_row_base,
                    events,
                    mentions,
                    generation,
                })
            }),
        shard_query().prop_map(Frame::Request),
        (any::<u64>(), shard_partial(), prop::collection::vec(flight_forward(), 0..4))
            .prop_map(|(generation, partial, flight)| Frame::Reply { generation, partial, flight }),
        Just(Frame::HealthProbe),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(live, total, generation)| {
            Frame::Health(Health { live, total, generation })
        }),
        (any::<u16>(), "[a-z ]{0,40}").prop_map(|(code, message)| Frame::Error { code, message }),
        Just(Frame::MetricsRequest),
        ("[ -~]{0,80}", prop::collection::vec(flight_forward(), 0..4))
            .prop_map(|(snapshot_json, flight)| Frame::MetricsReply { snapshot_json, flight }),
        Just(Frame::TraceRequest),
        (any::<u32>(), prop::collection::vec(wire_span(), 0..4))
            .prop_map(|(pid, spans)| Frame::TraceReply { pid, spans }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame round-trips bit-identically, and decode consumes
    /// exactly the bytes encode produced.
    #[test]
    fn frames_round_trip(f in frame()) {
        let bytes = f.encode();
        let (back, consumed) = Frame::decode(&bytes).expect("decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, f);
    }

    /// A frame followed by trailing garbage still decodes to the same
    /// value and reports the exact frame length.
    #[test]
    fn decode_ignores_bytes_after_the_frame(f in frame(), tail in prop::collection::vec(any::<u8>(), 1..32)) {
        let mut bytes = f.encode();
        let frame_len = bytes.len();
        bytes.extend_from_slice(&tail);
        let (back, consumed) = Frame::decode(&bytes).expect("decode");
        prop_assert_eq!(consumed, frame_len);
        prop_assert_eq!(back, f);
    }

    /// Every proper prefix is rejected as `Truncated` — no partial
    /// frame ever decodes.
    #[test]
    fn truncation_is_always_detected(f in frame(), cut in 0usize..1000) {
        let bytes = f.encode();
        prop_assume!(!bytes.is_empty());
        let cut = cut % bytes.len();
        match Frame::decode(&bytes[..cut]) {
            Err(WireError::Truncated { needed, have }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(needed > cut);
            }
            other => prop_assert!(false, "prefix of {cut} bytes decoded as {other:?}"),
        }
    }

    /// Flipping any single bit is caught: a typed error, never a
    /// silently different frame. (A flip in the checksum itself yields
    /// BadChecksum; flips in the header can surface as any typed
    /// variant, but never success-with-different-value.)
    #[test]
    fn corruption_is_always_detected(f in frame(), pos in 0usize..2000, bit in 0u8..8) {
        let mut bytes = f.encode();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok((back, _)) => prop_assert!(
                false,
                "bit flip at byte {pos} decoded successfully as {back:?}"
            ),
        }
    }

    /// Corrupting the payload (past the header, before the checksum)
    /// is specifically a checksum failure.
    #[test]
    fn payload_corruption_is_a_checksum_error(f in frame(), pos in 0usize..2000, xor in 1u8..=255) {
        let mut bytes = f.encode();
        prop_assume!(bytes.len() > HEADER_LEN + CHECKSUM_LEN);
        let payload_len = bytes.len() - HEADER_LEN - CHECKSUM_LEN;
        let pos = HEADER_LEN + pos % payload_len;
        bytes[pos] ^= xor;
        prop_assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
    }

    /// Trace context rides the v2 header bit-identically and is
    /// invisible to the payload: the same frame encodes to the same
    /// payload bytes whatever ids the header carries.
    #[test]
    fn trace_context_rides_the_header(f in frame(), trace_id in any::<u64>(), parent in any::<u64>()) {
        let bytes = f.encode_traced(trace_id, parent);
        let (back, tid, pspan, consumed) = Frame::decode_traced(&bytes).expect("decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, f);
        prop_assert_eq!(tid, trace_id);
        prop_assert_eq!(pspan, parent);
        // Same payload, different header context: only header +
        // checksum bytes may differ.
        let untraced = f.encode();
        prop_assert_eq!(&untraced[HEADER_LEN..untraced.len() - CHECKSUM_LEN],
                        &bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN]);
    }

    /// Reading a frame off a stream answers what decoding its bytes
    /// does, for whatever a socket can deliver: a whole frame followed
    /// by another one (both come back, in order, and nothing is left), a
    /// frame cut inside its header, its payload or its checksum, and a
    /// frame with one damaged byte.
    #[test]
    fn stream_decode_matches_buffer_decode(
        f in frame(),
        next in frame(),
        at in any::<usize>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let bytes = f.encode();
        let payload = bytes.len() - HEADER_LEN - CHECKSUM_LEN;

        let mut two = bytes.clone();
        two.extend_from_slice(&next.encode());
        let mut stream = &two[..];
        prop_assert_eq!(read_as_decode(&mut stream), decoded(&two));
        prop_assert_eq!(read_as_decode(&mut stream), decoded(&two[bytes.len()..]));
        prop_assert!(stream.is_empty());

        let cuts = [
            at % HEADER_LEN,
            HEADER_LEN + at % payload.max(1),
            HEADER_LEN + payload + at % CHECKSUM_LEN,
        ];
        for cut in cuts {
            let cut = &bytes[..cut.min(bytes.len() - 1)];
            prop_assert!(matches!(decoded(cut), Err(WireError::Truncated { .. })));
            prop_assert_eq!(read_as_decode(&mut &cut[..]), decoded(cut));
        }

        let mut damaged = bytes.clone();
        damaged[pos % bytes.len()] ^= xor;
        prop_assert_eq!(read_as_decode(&mut &damaged[..]), decoded(&damaged));
    }
}

/// A truncation in the terms both readers can state: a stream cannot
/// know how many bytes the frame it lost would have had.
const CUT_SHORT: WireError = WireError::Truncated { needed: 0, have: 0 };

/// `Frame::decode`'s answer, truncation counts dropped.
fn decoded(bytes: &[u8]) -> Result<Frame, WireError> {
    match Frame::decode(bytes) {
        Ok((frame, _)) => Ok(frame),
        Err(WireError::Truncated { .. }) => Err(CUT_SHORT),
        Err(e) => Err(e),
    }
}

/// `Frame::read_from`'s answer in `Frame::decode`'s terms: a stream that
/// ends inside the frame is a truncation, any other failure is the
/// `WireError` its `InvalidData` error carries.
fn read_as_decode(stream: &mut &[u8]) -> Result<Frame, WireError> {
    Frame::read_from(stream).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => CUT_SHORT,
        std::io::ErrorKind::InvalidData => e
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<WireError>())
            .cloned()
            .unwrap_or(WireError::Malformed("InvalidData without a WireError")),
        _ => WireError::Malformed("an untyped stream error"),
    })
}

#[test]
fn bad_magic_version_and_kind_are_typed() {
    let good = Frame::HealthProbe.encode();

    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(Frame::decode(&bad), Err(WireError::BadMagic(_))));

    // Version and kind live inside the checksummed region, so a raw
    // flip is caught by the checksum first; reseal to reach the typed
    // checks underneath.
    let mut bad = good.clone();
    bad[4] = 0xEE;
    assert!(matches!(Frame::decode(&reseal(bad)), Err(WireError::BadVersion(_))));

    let mut bad = good.clone();
    bad[6] = 0xEE;
    assert!(matches!(Frame::decode(&reseal(bad)), Err(WireError::BadKind(0xEE))));

    // The length field sits after the two 8-byte trace ids.
    let mut bad = good;
    for b in &mut bad[HEADER_LEN - 4..HEADER_LEN] {
        *b = 0xFF;
    }
    assert!(matches!(Frame::decode(&bad), Err(WireError::Oversized(_))));
}

#[test]
fn header_layouts_match_the_documented_offsets() {
    let frame = Frame::HealthProbe.encode_traced(0x1122_3344_5566_7788, 0x99AA_BBCC_DDEE_FF00);
    assert_eq!(frame.len(), HEADER_LEN + CHECKSUM_LEN, "empty payload");
    assert_eq!(&frame[0..4], b"GDSH");
    assert_eq!(u16::from_le_bytes([frame[4], frame[5]]), VERSION);
    assert_eq!(
        u64::from_le_bytes(frame[7..15].try_into().unwrap()),
        0x1122_3344_5566_7788,
        "trace id at offset 7"
    );
    assert_eq!(
        u64::from_le_bytes(frame[15..23].try_into().unwrap()),
        0x99AA_BBCC_DDEE_FF00,
        "parent span at offset 15"
    );
    assert_eq!(u32::from_le_bytes(frame[23..27].try_into().unwrap()), 0, "length at offset 23");
    let body = frame.len() - CHECKSUM_LEN;
    assert_eq!(
        u64::from_le_bytes(frame[body..].try_into().unwrap()),
        checksum64(&frame[..body]),
        "trailer is checksum64 of header + payload"
    );

    // Any other version — the previous one included — is a typed
    // rejection on both the buffer and stream paths.
    for version in [VERSION - 1, VERSION + 1] {
        let mut other = Frame::HealthProbe.encode();
        other[4..6].copy_from_slice(&version.to_le_bytes());
        let other = reseal(other);
        assert_eq!(Frame::decode(&other), Err(WireError::BadVersion(version)));
        let err = Frame::read_from(&mut &other[..]).expect_err("stream decode must reject it");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), WireError::BadVersion(version).to_string());
        assert_eq!(read_as_decode(&mut &other[..]), Err(WireError::BadVersion(version)));
    }
}

/// Recompute the trailer of `frame` after an edit inside it.
fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
    let body = frame.len() - CHECKSUM_LEN;
    let sum = checksum64(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
    frame
}
