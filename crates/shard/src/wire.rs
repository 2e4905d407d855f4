//! Hand-rolled length-prefixed wire protocol for the shard tier.
//!
//! Zero dependencies, no serde — in the same spirit as obs's
//! hand-rolled JSON. Every message is one *frame*. Version 2 carries
//! trace context in the header so spans opened by a worker parent
//! under the router's span:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GDSH"
//! 4       2     version (LE) — 2; v1 frames still decode
//! 6       1     kind (frame discriminant)
//! 7       8     trace id (LE; 0 = untraced)
//! 15      8     parent span id (LE; 0 = no parent)
//! 23      4     payload length (LE)
//! 27      len   payload (message-specific, little-endian codecs)
//! 27+len  8     FNV-1a 64 checksum of bytes [0, 27+len) (LE)
//! ```
//!
//! A version-1 header is the same minus the two trace fields (11
//! bytes, payload length at offset 7). Decoding negotiates by the
//! version field: v1 frames yield zero trace context and a
//! [`Frame::Reply`] without the flight section — typed, never a panic.
//!
//! Integers are little-endian; `f64` travels as IEEE-754 bits
//! (`to_bits`/`from_bits`), so round-trips are bit-identical — the
//! equivalence suite depends on that. Decoding is total: every
//! malformed input maps to a typed [`WireError`], never a panic.

use gdelt_engine::coreport::CountryCoReport;
use gdelt_engine::crossreport::CrossReport;
use gdelt_engine::delay::DelayStats;
use gdelt_engine::filter::Bitmap;
use gdelt_engine::followreport::FollowReport;
use gdelt_engine::partial::{ActiveSourcesPartial, DelayHist, ShardPartial, ShardQuery};
use gdelt_engine::timeseries::QuarterlySeries;
use gdelt_engine::{Matrix, Query, QueryResult, SeriesKind, TopKKind};
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;

/// FNV-1a 64-bit, the frame checksum. Frames are small (a reply is at
/// most a few hundred KB) and every frame layout is version-pinned, so
/// the wire keeps the byte-serial hash the store format moved off.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"GDSH";
/// Protocol version written by [`Frame::encode`].
pub const VERSION: u16 = 2;
/// The pre-trace-context protocol version, still accepted on decode.
pub const VERSION_V1: u16 = 1;
/// Header bytes before the payload (version 2: includes trace id and
/// parent span id).
pub const HEADER_LEN: usize = 27;
/// Version-1 header bytes (no trace context).
pub const HEADER_LEN_V1: usize = 11;
/// The version-independent header prefix: magic + version. Decoding
/// reads this much before it knows which header layout follows.
pub const HEADER_PREFIX_LEN: usize = 6;
/// Trailing checksum bytes.
pub const CHECKSUM_LEN: usize = 8;
/// Refuse payloads larger than this (256 MiB) — a corrupt length
/// prefix must not allocate unboundedly.
pub const MAX_PAYLOAD: u32 = 256 << 20;

/// Typed decode failure. Every way a frame can be bad has a variant;
/// the proptests assert corruption maps here, never to a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the frame (or field) requires.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u16),
    /// Payload length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// FNV checksum mismatch.
    BadChecksum {
        /// Checksum computed over the received bytes.
        computed: u64,
        /// Checksum carried by the frame.
        stored: u64,
    },
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Structurally invalid payload (bad tag, bad length, bad UTF-8…).
    Malformed(&'static str),
    /// Payload decoded but left unconsumed trailing bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            WireError::BadChecksum { computed, stored } => {
                write!(f, "checksum mismatch: computed {computed:#x}, stored {stored:#x}")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Worker self-description, sent once per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Shard index in the split.
    pub shard_id: u32,
    /// Partitions this shard holds.
    pub partitions: u32,
    /// Global event row of this shard's first event.
    pub ev_row_base: u64,
    /// Event rows in the shard store.
    pub events: u64,
    /// Mention rows in the shard store.
    pub mentions: u64,
    /// Store generation (bumps invalidate router cache entries).
    pub generation: u64,
}

/// Health snapshot (reply to [`Frame::HealthProbe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// Live partitions behind this worker.
    pub live: u32,
    /// Partitions the shard store was written with.
    pub total: u32,
    /// Current store generation.
    pub generation: u64,
}

/// One flight-recorder event forwarded across a process boundary.
///
/// Workers piggyback their most recent warn/error events on replies
/// and metrics scrapes; the router re-records them (at most once per
/// `seq`, see `Router::absorb_flight`) so chaos artifacts capture
/// worker-side faults without a separate log-shipping channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightForward {
    /// The worker-local monotone flight sequence number. The router's
    /// per-shard cursor dedups on this.
    pub seq: u64,
    /// Microseconds since the worker's flight epoch.
    pub t_us: u64,
    /// Severity: 0 = info, 1 = warn, 2 = error.
    pub level: u8,
    /// Component tag (e.g. `"worker"`).
    pub component: String,
    /// Stable event code (e.g. `"fault_delay"`).
    pub code: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Opens the detail of every flight event a router re-records.
const RERECORD_TAG: &str = "[shard ";

impl FlightForward {
    /// The detail the router re-records this event under:
    /// `[shard <i> seq <seq> +<t_us>us] <detail>`.
    pub(crate) fn rerecord_detail(&self, shard: usize) -> String {
        format!("{RERECORD_TAG}{shard} seq {} +{}us] {}", self.seq, self.t_us, self.detail)
    }

    /// True for the detail of a router re-record, which a worker must
    /// not forward again.
    pub(crate) fn is_rerecord(detail: &str) -> bool {
        detail.starts_with(RERECORD_TAG)
    }
}

/// One completed span shipped from a worker to the router for trace
/// stitching. Timestamps are absolute unix nanoseconds so the router
/// can rebase all processes onto one clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Absolute start time (unix ns).
    pub start_unix_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Worker-local thread lane.
    pub tid: u32,
    /// Trace this span belongs to (0 = untraced).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Numeric span arguments.
    pub args: Vec<(String, u64)>,
}

/// One wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → router, once per connection.
    Hello(Hello),
    /// Router → worker: answer this shard query.
    Request(ShardQuery),
    /// Worker → router: the partial, stamped with the generation it
    /// was computed under.
    Reply {
        /// Store generation at compute time.
        generation: u64,
        /// The sufficient statistic.
        partial: ShardPartial,
        /// Recent worker flight events (empty on v1 frames).
        flight: Vec<FlightForward>,
    },
    /// Router → worker: health check.
    HealthProbe,
    /// Worker → router: health snapshot.
    Health(Health),
    /// Bump the worker's store generation (chaos/testing hook for
    /// cache-invalidation propagation).
    BumpGeneration,
    /// A full query (client → router framing; also exercised by the
    /// round-trip proptests).
    Query(Query),
    /// A full result (router → client framing).
    Result(QueryResult),
    /// Typed failure with a short human-readable detail.
    Error {
        /// Stable numeric code.
        code: u16,
        /// Diagnostic text.
        message: String,
    },
    /// Router → worker: snapshot your metrics registry.
    MetricsRequest,
    /// Worker → router: the registry snapshot (obs snapshot JSON) plus
    /// piggybacked flight events.
    MetricsReply {
        /// `RegistrySnapshot::to_json()` output.
        snapshot_json: String,
        /// Recent worker flight events.
        flight: Vec<FlightForward>,
    },
    /// Router → worker: drain your completed spans.
    TraceRequest,
    /// Worker → router: drained spans, stamped with the worker pid so
    /// the stitched Chrome trace gets one lane per process.
    TraceReply {
        /// Worker OS process id.
        pid: u32,
        /// Completed spans, absolute-timestamped.
        spans: Vec<WireSpan>,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_REPLY: u8 = 3;
const KIND_HEALTH_PROBE: u8 = 4;
const KIND_HEALTH: u8 = 5;
const KIND_BUMP: u8 = 6;
const KIND_QUERY: u8 = 7;
const KIND_RESULT: u8 = 8;
const KIND_ERROR: u8 = 9;
const KIND_METRICS_REQUEST: u8 = 10;
const KIND_METRICS_REPLY: u8 = 11;
const KIND_TRACE_REQUEST: u8 = 12;
const KIND_TRACE_REPLY: u8 = 13;

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => KIND_HELLO,
            Frame::Request(_) => KIND_REQUEST,
            Frame::Reply { .. } => KIND_REPLY,
            Frame::HealthProbe => KIND_HEALTH_PROBE,
            Frame::Health(_) => KIND_HEALTH,
            Frame::BumpGeneration => KIND_BUMP,
            Frame::Query(_) => KIND_QUERY,
            Frame::Result(_) => KIND_RESULT,
            Frame::Error { .. } => KIND_ERROR,
            Frame::MetricsRequest => KIND_METRICS_REQUEST,
            Frame::MetricsReply { .. } => KIND_METRICS_REPLY,
            Frame::TraceRequest => KIND_TRACE_REQUEST,
            Frame::TraceReply { .. } => KIND_TRACE_REPLY,
        }
    }

    /// Encode into a checksummed v2 frame with zero (untraced) trace
    /// context.
    // analyze: no_panic
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(VERSION, 0, 0)
    }

    /// Encode into a checksummed v2 frame carrying trace context.
    // analyze: no_panic
    pub fn encode_traced(&self, trace_id: u64, parent_span: u64) -> Vec<u8> {
        self.encode_with(VERSION, trace_id, parent_span)
    }

    /// Encode with the pre-trace-context version-1 header (11 bytes,
    /// no trace fields; `Reply` omits its flight section). Exists so
    /// the negotiation tests can manufacture genuine old-format frames
    /// without hand-packing bytes.
    // analyze: no_panic
    pub fn encode_v1(&self) -> Vec<u8> {
        self.encode_with(VERSION_V1, 0, 0)
    }

    // analyze: no_panic
    fn encode_with(&self, version: u16, trace_id: u64, parent_span: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut e = Enc(&mut payload);
        match self {
            Frame::Hello(h) => {
                e.u32(h.shard_id);
                e.u32(h.partitions);
                e.u64(h.ev_row_base);
                e.u64(h.events);
                e.u64(h.mentions);
                e.u64(h.generation);
            }
            Frame::Request(sq) => enc_shard_query(&mut e, sq),
            Frame::Reply { generation, partial, flight } => {
                e.u64(*generation);
                enc_partial(&mut e, partial);
                // The flight section joined the Reply payload in v2; a
                // v1 Reply simply does not carry it.
                if version >= VERSION {
                    enc_flight_vec(&mut e, flight);
                }
            }
            Frame::HealthProbe | Frame::BumpGeneration => {}
            Frame::Health(h) => {
                e.u32(h.live);
                e.u32(h.total);
                e.u64(h.generation);
            }
            Frame::Query(q) => enc_query(&mut e, q),
            Frame::Result(r) => enc_result(&mut e, r),
            Frame::Error { code, message } => {
                e.u16(*code);
                e.str(message);
            }
            Frame::MetricsRequest | Frame::TraceRequest => {}
            Frame::MetricsReply { snapshot_json, flight } => {
                e.str(snapshot_json);
                enc_flight_vec(&mut e, flight);
            }
            Frame::TraceReply { pid, spans } => {
                e.u32(*pid);
                e.len(spans.len());
                for s in spans {
                    enc_wire_span(&mut e, s);
                }
            }
        }
        let header_len = if version == VERSION_V1 { HEADER_LEN_V1 } else { HEADER_LEN };
        let mut out = Vec::with_capacity(header_len + payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.push(self.kind());
        if version != VERSION_V1 {
            out.extend_from_slice(&trace_id.to_le_bytes());
            out.extend_from_slice(&parent_span.to_le_bytes());
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode one frame from the start of `buf`; returns the frame and
    /// the bytes it consumed, dropping the trace context.
    // analyze: no_panic
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        Frame::decode_traced(buf).map(|(frame, _, _, total)| (frame, total))
    }

    /// Decode one frame plus its trace context `(frame, trace_id,
    /// parent_span, consumed)`. Version-1 frames decode with zero
    /// trace context.
    // analyze: no_panic
    pub fn decode_traced(buf: &[u8]) -> Result<(Frame, u64, u64, usize), WireError> {
        if buf.len() < HEADER_PREFIX_LEN {
            return Err(WireError::Truncated { needed: HEADER_PREFIX_LEN, have: buf.len() });
        }
        let magic: [u8; 4] = [buf[0], buf[1], buf[2], buf[3]];
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        let header_len = match version {
            VERSION_V1 => HEADER_LEN_V1,
            VERSION => HEADER_LEN,
            other => return Err(WireError::BadVersion(other)),
        };
        if buf.len() < header_len {
            return Err(WireError::Truncated { needed: header_len, have: buf.len() });
        }
        let kind = buf[6];
        let (trace_id, parent_span) = if version == VERSION {
            let t = buf.get(7..15).and_then(|s| s.try_into().ok()).map(u64::from_le_bytes);
            let p = buf.get(15..23).and_then(|s| s.try_into().ok()).map(u64::from_le_bytes);
            match (t, p) {
                (Some(t), Some(p)) => (t, p),
                _ => return Err(WireError::Malformed("trace header")),
            }
        } else {
            (0, 0)
        };
        let len_off = header_len - 4;
        let len_bytes = buf.get(len_off..header_len).and_then(|s| <[u8; 4]>::try_from(s).ok());
        let Some(len_bytes) = len_bytes else {
            return Err(WireError::Malformed("length field"));
        };
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized(len));
        }
        let total = header_len + len as usize + CHECKSUM_LEN;
        if buf.len() < total {
            return Err(WireError::Truncated { needed: total, have: buf.len() });
        }
        let body_end = header_len + len as usize;
        let body = buf.get(..body_end).ok_or(WireError::Malformed("frame body"))?;
        let computed = fnv1a64(body);
        let sum_bytes = buf.get(body_end..total).ok_or(WireError::Malformed("checksum"))?;
        let stored =
            u64::from_le_bytes(sum_bytes.try_into().map_err(|_| WireError::Malformed("checksum"))?);
        if computed != stored {
            return Err(WireError::BadChecksum { computed, stored });
        }
        let payload = buf.get(header_len..body_end).ok_or(WireError::Malformed("payload"))?;
        let mut d = Dec { buf: payload, pos: 0 };
        let frame = match kind {
            KIND_HELLO => Frame::Hello(Hello {
                shard_id: d.u32()?,
                partitions: d.u32()?,
                ev_row_base: d.u64()?,
                events: d.u64()?,
                mentions: d.u64()?,
                generation: d.u64()?,
            }),
            KIND_REQUEST => Frame::Request(dec_shard_query(&mut d)?),
            KIND_REPLY => {
                let generation = d.u64()?;
                let partial = dec_partial(&mut d)?;
                // v1 replies predate the flight section.
                let flight =
                    if version == VERSION_V1 { Vec::new() } else { dec_flight_vec(&mut d)? };
                Frame::Reply { generation, partial, flight }
            }
            KIND_HEALTH_PROBE => Frame::HealthProbe,
            KIND_HEALTH => {
                Frame::Health(Health { live: d.u32()?, total: d.u32()?, generation: d.u64()? })
            }
            KIND_BUMP => Frame::BumpGeneration,
            KIND_QUERY => Frame::Query(dec_query(&mut d)?),
            KIND_RESULT => Frame::Result(dec_result(&mut d)?),
            KIND_ERROR => Frame::Error { code: d.u16()?, message: d.str()? },
            KIND_METRICS_REQUEST => Frame::MetricsRequest,
            KIND_METRICS_REPLY => {
                Frame::MetricsReply { snapshot_json: d.str()?, flight: dec_flight_vec(&mut d)? }
            }
            KIND_TRACE_REQUEST => Frame::TraceRequest,
            KIND_TRACE_REPLY => {
                let pid = d.u32()?;
                let n = d.len_for(WIRE_SPAN_MIN_BYTES)?;
                let spans =
                    (0..n).map(|_| dec_wire_span(&mut d)).collect::<Result<Vec<_>, _>>()?;
                Frame::TraceReply { pid, spans }
            }
            other => return Err(WireError::BadKind(other)),
        };
        if d.pos != d.buf.len() {
            return Err(WireError::TrailingBytes(d.buf.len() - d.pos));
        }
        Ok((frame, trace_id, parent_span, total))
    }

    /// Write one frame to a stream with zero trace context.
    // analyze: no_panic
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Write one frame to a stream, stamping the header with trace
    /// context for the receiving process to adopt.
    // analyze: no_panic
    pub fn write_traced_to(
        &self,
        w: &mut impl std::io::Write,
        trace_id: u64,
        parent_span: u64,
    ) -> std::io::Result<()> {
        w.write_all(&self.encode_traced(trace_id, parent_span))?;
        w.flush()
    }

    /// Read exactly one frame from a stream, dropping trace context.
    /// A stream that ends inside the frame is `UnexpectedEof`; every
    /// other wire-level failure is `InvalidData` carrying the
    /// [`WireError`] that [`Frame::decode`] returns for the same bytes
    /// (`get_ref()` + `downcast_ref`).
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Frame> {
        Frame::read_traced_from(r).map(|(frame, _, _)| frame)
    }

    /// Read exactly one frame plus its `(trace_id, parent_span)` from
    /// a stream. Accepts both header versions; v1 frames yield zero
    /// trace context. The header is read into a stack buffer and the
    /// frame into one buffer of its exact length, which is decoded in
    /// place — the payload is copied once, by the read.
    pub fn read_traced_from(r: &mut impl std::io::Read) -> std::io::Result<(Frame, u64, u64)> {
        let mut header = [0u8; HEADER_LEN];
        let (prefix, _) = header.split_at_mut(HEADER_PREFIX_LEN);
        r.read_exact(prefix)?;
        let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
        if magic != MAGIC {
            return Err(wire_io(WireError::BadMagic(magic)));
        }
        let header_len = match u16::from_le_bytes([header[4], header[5]]) {
            VERSION_V1 => HEADER_LEN_V1,
            VERSION => HEADER_LEN,
            other => return Err(wire_io(WireError::BadVersion(other))),
        };
        let header = &mut header[..header_len];
        r.read_exact(&mut header[HEADER_PREFIX_LEN..])?;
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&header[header_len - 4..]);
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_PAYLOAD {
            return Err(wire_io(WireError::Oversized(len)));
        }
        let mut whole = vec![0u8; header_len + len as usize + CHECKSUM_LEN];
        whole[..header_len].copy_from_slice(header);
        r.read_exact(&mut whole[header_len..])?;
        let (frame, trace_id, parent_span, _) = Frame::decode_traced(&whole).map_err(wire_io)?;
        Ok((frame, trace_id, parent_span))
    }
}

fn wire_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Little-endian payload encoder.
struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i16(&mut self, v: i16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Bounds-checked payload decoder.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        let end = self.pos.saturating_add(n);
        let Some(s) = self.buf.get(self.pos..end) else {
            return Err(WireError::Truncated { needed: end, have: self.buf.len() });
        };
        self.pos = end;
        Ok(s)
    }
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Malformed("fixed-width field"))
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.fixed()?))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }
    fn i16(&mut self) -> Result<i16, WireError> {
        Ok(i16::from_le_bytes(self.fixed()?))
    }
    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.fixed()?))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len_for(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("utf-8 string"))
    }
    /// A length prefix, rejected early when even `n × elem_size` bytes
    /// cannot remain — keeps corrupt prefixes from huge allocations.
    fn len_for(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_size.max(1)) > remaining {
            return Err(WireError::Malformed("length prefix exceeds payload"));
        }
        Ok(n)
    }
}

/// Smallest possible encoded [`FlightForward`]: seq + t_us + level +
/// three empty length-prefixed strings.
const FLIGHT_FORWARD_MIN_BYTES: usize = 8 + 8 + 1 + 4 + 4 + 4;
/// Smallest possible encoded [`WireSpan`]: two empty strings, five
/// fixed ints, tid, and an empty args vec.
const WIRE_SPAN_MIN_BYTES: usize = 4 + 4 + 8 + 8 + 4 + 8 + 8 + 8 + 4;

fn enc_flight_vec(e: &mut Enc<'_>, flight: &[FlightForward]) {
    e.len(flight.len());
    for f in flight {
        e.u64(f.seq);
        e.u64(f.t_us);
        e.u8(f.level);
        e.str(&f.component);
        e.str(&f.code);
        e.str(&f.detail);
    }
}

fn dec_flight_vec(d: &mut Dec<'_>) -> Result<Vec<FlightForward>, WireError> {
    let n = d.len_for(FLIGHT_FORWARD_MIN_BYTES)?;
    (0..n)
        .map(|_| {
            let seq = d.u64()?;
            let t_us = d.u64()?;
            let level = d.u8()?;
            if level > 2 {
                return Err(WireError::Malformed("flight level"));
            }
            Ok(FlightForward {
                seq,
                t_us,
                level,
                component: d.str()?,
                code: d.str()?,
                detail: d.str()?,
            })
        })
        .collect()
}

fn enc_wire_span(e: &mut Enc<'_>, s: &WireSpan) {
    e.str(&s.name);
    e.str(&s.cat);
    e.u64(s.start_unix_ns);
    e.u64(s.dur_ns);
    e.u32(s.tid);
    e.u64(s.trace_id);
    e.u64(s.span_id);
    e.u64(s.parent_id);
    e.len(s.args.len());
    for (k, v) in &s.args {
        e.str(k);
        e.u64(*v);
    }
}

fn dec_wire_span(d: &mut Dec<'_>) -> Result<WireSpan, WireError> {
    let name = d.str()?;
    let cat = d.str()?;
    let start_unix_ns = d.u64()?;
    let dur_ns = d.u64()?;
    let tid = d.u32()?;
    let trace_id = d.u64()?;
    let span_id = d.u64()?;
    let parent_id = d.u64()?;
    let n = d.len_for(12)?;
    let args = (0..n).map(|_| Ok((d.str()?, d.u64()?))).collect::<Result<Vec<_>, WireError>>()?;
    Ok(WireSpan { name, cat, start_unix_ns, dur_ns, tid, trace_id, span_id, parent_id, args })
}

fn enc_vec_u64(e: &mut Enc<'_>, v: &[u64]) {
    e.len(v.len());
    for &x in v {
        e.u64(x);
    }
}

fn dec_vec_u64(d: &mut Dec<'_>) -> Result<Vec<u64>, WireError> {
    let n = d.len_for(8)?;
    (0..n).map(|_| d.u64()).collect()
}

fn enc_matrix(e: &mut Enc<'_>, m: &Matrix<u64>) {
    e.u32(m.rows() as u32);
    e.u32(m.cols() as u32);
    for &x in m.as_slice() {
        e.u64(x);
    }
}

fn dec_matrix(d: &mut Dec<'_>) -> Result<Matrix<u64>, WireError> {
    let rows = d.u32()? as usize;
    let cols = d.u32()? as usize;
    if rows.saturating_mul(cols).saturating_mul(8) > d.buf.len() - d.pos {
        return Err(WireError::Malformed("matrix dims exceed payload"));
    }
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            m.set(r, c, d.u64()?);
        }
    }
    Ok(m)
}

fn enc_subset(e: &mut Enc<'_>, subset: &[SourceId]) {
    e.len(subset.len());
    for s in subset {
        e.u32(s.0);
    }
}

fn dec_subset(d: &mut Dec<'_>) -> Result<Vec<SourceId>, WireError> {
    let n = d.len_for(4)?;
    (0..n).map(|_| d.u32().map(SourceId)).collect()
}

fn enc_series_kind(e: &mut Enc<'_>, k: &SeriesKind) {
    match k {
        SeriesKind::Events => e.u8(0),
        SeriesKind::Articles => e.u8(1),
        SeriesKind::ActiveSources => e.u8(2),
        SeriesKind::LateArticles { threshold } => {
            e.u8(3);
            e.u32(*threshold);
        }
    }
}

fn dec_series_kind(d: &mut Dec<'_>) -> Result<SeriesKind, WireError> {
    Ok(match d.u8()? {
        0 => SeriesKind::Events,
        1 => SeriesKind::Articles,
        2 => SeriesKind::ActiveSources,
        3 => SeriesKind::LateArticles { threshold: d.u32()? },
        _ => return Err(WireError::Malformed("series kind tag")),
    })
}

fn enc_query(e: &mut Enc<'_>, q: &Query) {
    match q {
        Query::CoReport => e.u8(0),
        Query::FollowReport { top_k } => {
            e.u8(1);
            e.u32(*top_k);
        }
        Query::CrossCountry => e.u8(2),
        Query::Delay => e.u8(3),
        Query::TimeSeries(k) => {
            e.u8(4);
            enc_series_kind(e, k);
        }
        Query::TopK { kind, k } => {
            e.u8(5);
            e.u8(match kind {
                TopKKind::Publishers => 0,
                TopKKind::Events => 1,
            });
            e.u32(*k);
        }
    }
}

fn dec_query(d: &mut Dec<'_>) -> Result<Query, WireError> {
    Ok(match d.u8()? {
        0 => Query::CoReport,
        1 => Query::FollowReport { top_k: d.u32()? },
        2 => Query::CrossCountry,
        3 => Query::Delay,
        4 => Query::TimeSeries(dec_series_kind(d)?),
        5 => {
            let kind = match d.u8()? {
                0 => TopKKind::Publishers,
                1 => TopKKind::Events,
                _ => return Err(WireError::Malformed("topk kind tag")),
            };
            Query::TopK { kind, k: d.u32()? }
        }
        _ => return Err(WireError::Malformed("query tag")),
    })
}

fn enc_series(e: &mut Enc<'_>, s: &QuarterlySeries) {
    e.i16(s.base.year);
    e.u8(s.base.q);
    e.len(s.values.len());
    for &v in &s.values {
        e.f64(v);
    }
}

fn dec_series(d: &mut Dec<'_>) -> Result<QuarterlySeries, WireError> {
    let year = d.i16()?;
    let q = d.u8()?;
    let n = d.len_for(8)?;
    let values = (0..n).map(|_| d.f64()).collect::<Result<Vec<f64>, _>>()?;
    Ok(QuarterlySeries { base: Quarter { year, q }, values })
}

fn enc_delay_stats(e: &mut Enc<'_>, s: &DelayStats) {
    e.u64(s.count);
    e.u32(s.min);
    e.u32(s.max);
    e.f64(s.mean);
    e.u32(s.median);
}

fn dec_delay_stats(d: &mut Dec<'_>) -> Result<DelayStats, WireError> {
    Ok(DelayStats {
        count: d.u64()?,
        min: d.u32()?,
        max: d.u32()?,
        mean: d.f64()?,
        median: d.u32()?,
    })
}

fn enc_result(e: &mut Enc<'_>, r: &QueryResult) {
    match r {
        QueryResult::CoReport(c) => {
            e.u8(0);
            enc_matrix(e, &c.pairs);
            enc_vec_u64(e, &c.event_counts);
        }
        QueryResult::FollowReport(fr) => {
            e.u8(1);
            enc_subset(e, &fr.subset);
            enc_matrix(e, &fr.follow_counts);
            enc_vec_u64(e, &fr.articles);
        }
        QueryResult::CrossCountry(c) => {
            e.u8(2);
            enc_matrix(e, &c.counts);
            enc_vec_u64(e, &c.articles_by_publisher);
            enc_vec_u64(e, &c.events_by_country);
        }
        QueryResult::Delay(stats) => {
            e.u8(3);
            e.len(stats.len());
            for s in stats {
                enc_delay_stats(e, s);
            }
        }
        QueryResult::TimeSeries(s) => {
            e.u8(4);
            enc_series(e, s);
        }
        QueryResult::TopPublishers(ranked) => {
            e.u8(5);
            e.len(ranked.len());
            for (s, c) in ranked {
                e.u32(s.0);
                e.u64(*c);
            }
        }
        QueryResult::TopEvents(ranked) => {
            e.u8(6);
            e.len(ranked.len());
            for (row, c) in ranked {
                e.u64(*row as u64);
                e.u64(*c);
            }
        }
    }
}

fn dec_result(d: &mut Dec<'_>) -> Result<QueryResult, WireError> {
    Ok(match d.u8()? {
        0 => QueryResult::CoReport(CountryCoReport {
            pairs: dec_matrix(d)?,
            event_counts: dec_vec_u64(d)?,
        }),
        1 => QueryResult::FollowReport(FollowReport {
            subset: dec_subset(d)?,
            follow_counts: dec_matrix(d)?,
            articles: dec_vec_u64(d)?,
        }),
        2 => QueryResult::CrossCountry(CrossReport {
            counts: dec_matrix(d)?,
            articles_by_publisher: dec_vec_u64(d)?,
            events_by_country: dec_vec_u64(d)?,
        }),
        3 => {
            let n = d.len_for(28)?;
            QueryResult::Delay((0..n).map(|_| dec_delay_stats(d)).collect::<Result<Vec<_>, _>>()?)
        }
        4 => QueryResult::TimeSeries(dec_series(d)?),
        5 => {
            let n = d.len_for(12)?;
            QueryResult::TopPublishers(
                (0..n)
                    .map(|_| Ok((SourceId(d.u32()?), d.u64()?)))
                    .collect::<Result<Vec<_>, WireError>>()?,
            )
        }
        6 => {
            let n = d.len_for(16)?;
            QueryResult::TopEvents(
                (0..n)
                    .map(|_| Ok((d.u64()? as usize, d.u64()?)))
                    .collect::<Result<Vec<_>, WireError>>()?,
            )
        }
        _ => return Err(WireError::Malformed("result tag")),
    })
}

fn enc_shard_query(e: &mut Enc<'_>, sq: &ShardQuery) {
    match sq {
        ShardQuery::CoReport => e.u8(0),
        ShardQuery::FollowReportWith { sources } => {
            e.u8(1);
            enc_subset(e, sources);
        }
        ShardQuery::CrossCountry => e.u8(2),
        ShardQuery::Delay => e.u8(3),
        ShardQuery::TimeSeries(k) => {
            e.u8(4);
            enc_series_kind(e, k);
        }
        ShardQuery::PublisherCounts => e.u8(5),
        ShardQuery::TopEvents { k } => {
            e.u8(6);
            e.u32(*k);
        }
    }
}

fn dec_shard_query(d: &mut Dec<'_>) -> Result<ShardQuery, WireError> {
    Ok(match d.u8()? {
        0 => ShardQuery::CoReport,
        1 => ShardQuery::FollowReportWith { sources: dec_subset(d)? },
        2 => ShardQuery::CrossCountry,
        3 => ShardQuery::Delay,
        4 => ShardQuery::TimeSeries(dec_series_kind(d)?),
        5 => ShardQuery::PublisherCounts,
        6 => ShardQuery::TopEvents { k: d.u32()? },
        _ => return Err(WireError::Malformed("shard query tag")),
    })
}

fn enc_partial(e: &mut Enc<'_>, p: &ShardPartial) {
    match p {
        ShardPartial::CoReport(c) => {
            e.u8(0);
            enc_matrix(e, &c.pairs);
            enc_vec_u64(e, &c.event_counts);
        }
        ShardPartial::FollowReport(fr) => {
            e.u8(1);
            enc_subset(e, &fr.subset);
            enc_matrix(e, &fr.follow_counts);
            enc_vec_u64(e, &fr.articles);
        }
        ShardPartial::CrossCountry(c) => {
            e.u8(2);
            enc_matrix(e, &c.counts);
            enc_vec_u64(e, &c.articles_by_publisher);
            enc_vec_u64(e, &c.events_by_country);
        }
        ShardPartial::Delay(hists) => {
            e.u8(3);
            e.len(hists.len());
            for h in hists {
                e.len(h.runs.len());
                for &(dl, c) in &h.runs {
                    e.u32(dl);
                    e.u64(c);
                }
            }
        }
        ShardPartial::Series(s) => {
            e.u8(4);
            enc_series(e, s);
        }
        ShardPartial::ActiveSources(a) => {
            e.u8(5);
            e.i32(a.base);
            let n_sources = a.quarters.first().map_or(0, Bitmap::len);
            e.u64(n_sources as u64);
            e.len(a.quarters.len());
            for bm in &a.quarters {
                enc_vec_u64(e, bm.words());
            }
        }
        ShardPartial::PublisherCounts(v) => {
            e.u8(6);
            enc_vec_u64(e, v);
        }
        ShardPartial::TopEvents { k, entries } => {
            e.u8(7);
            e.u32(*k);
            e.len(entries.len());
            for &(row, c) in entries {
                e.u64(row);
                e.u64(c);
            }
        }
    }
}

fn dec_partial(d: &mut Dec<'_>) -> Result<ShardPartial, WireError> {
    Ok(match d.u8()? {
        0 => ShardPartial::CoReport(CountryCoReport {
            pairs: dec_matrix(d)?,
            event_counts: dec_vec_u64(d)?,
        }),
        1 => ShardPartial::FollowReport(FollowReport {
            subset: dec_subset(d)?,
            follow_counts: dec_matrix(d)?,
            articles: dec_vec_u64(d)?,
        }),
        2 => ShardPartial::CrossCountry(CrossReport {
            counts: dec_matrix(d)?,
            articles_by_publisher: dec_vec_u64(d)?,
            events_by_country: dec_vec_u64(d)?,
        }),
        3 => {
            let n = d.len_for(4)?;
            let mut hists = Vec::with_capacity(n);
            for _ in 0..n {
                let runs = d.len_for(12)?;
                let runs = (0..runs)
                    .map(|_| Ok((d.u32()?, d.u64()?)))
                    .collect::<Result<Vec<_>, WireError>>()?;
                hists.push(DelayHist { runs });
            }
            ShardPartial::Delay(hists)
        }
        4 => ShardPartial::Series(dec_series(d)?),
        5 => {
            let base = d.i32()?;
            let n_sources = d.u64()? as usize;
            let n = d.len_for(4)?;
            let quarters = (0..n)
                .map(|_| Ok(Bitmap::from_words(dec_vec_u64(d)?, n_sources)))
                .collect::<Result<Vec<_>, WireError>>()?;
            ShardPartial::ActiveSources(ActiveSourcesPartial { base, quarters })
        }
        6 => ShardPartial::PublisherCounts(dec_vec_u64(d)?),
        7 => {
            let k = d.u32()?;
            let n = d.len_for(16)?;
            let entries =
                (0..n).map(|_| Ok((d.u64()?, d.u64()?))).collect::<Result<Vec<_>, WireError>>()?;
            ShardPartial::TopEvents { k, entries }
        }
        _ => return Err(WireError::Malformed("partial tag")),
    })
}
