//! Hand-rolled length-prefixed wire protocol between the router and
//! its shard workers.
//!
//! Zero dependencies, no serde — in the same spirit as obs's
//! hand-rolled JSON. Every message is one *frame*, and the header
//! carries trace context so spans opened by a worker parent under the
//! router's span:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GDSH"
//! 4       2     version (LE) — 4; any other is BadVersion
//! 6       1     kind (frame discriminant)
//! 7       8     trace id (LE; 0 = untraced)
//! 15      8     parent span id (LE; 0 = no parent)
//! 23      4     payload length (LE)
//! 27      len   payload (message-specific, little-endian codecs)
//! 27+len  8     checksum64 of bytes [0, 27+len) (LE)
//! ```
//!
//! The trailer is the store's own `gdelt_columnar::binfmt::checksum64`,
//! so any change confined to one word of a frame changes it.
//!
//! Integers are little-endian; `f64` travels as IEEE-754 bits
//! (`to_bits`/`from_bits`), so round-trips are bit-identical — the
//! equivalence suite depends on that. Decoding is total: every
//! malformed input maps to a typed [`WireError`], never a panic.
//!
//! A Delay partial — the largest reply of a report — travels as runs,
//! not fixed-width pairs (v4; v3 sent 12 bytes a run):
//!
//! ```text
//! u32            sources
//! per source:
//!   varint       run count r
//!   r × varint   delay deltas: the first delay, then d − prev − 1
//!   r × varint   run counts
//! ```
//!
//! Varints are LEB128 (7 bits a byte, low group first, at most 10
//! bytes). A delay delta is the gap to the previous run less one, so
//! only strictly ascending runs can be written — a list that is not
//! wraps to a delta whose delay lies past `u32::MAX` and is refused —
//! and every decoded reply meets [`DelayHist`]'s linear merge's
//! precondition.

use gdelt_columnar::binfmt::checksum64;
use gdelt_engine::coreport::CoReport;
use gdelt_engine::crossreport::CrossReport;
use gdelt_engine::filter::Bitmap;
use gdelt_engine::followreport::FollowReport;
use gdelt_engine::partial::{ActiveSourcesPartial, DelayHist, ShardPartial, ShardQuery};
use gdelt_engine::timeseries::QuarterlySeries;
use gdelt_engine::{Matrix, SeriesKind};
use gdelt_model::ids::SourceId;
use gdelt_model::time::Quarter;
use gdelt_obs::FlightLevel;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"GDSH";
/// The one protocol version, written and accepted.
pub const VERSION: u16 = 4;
/// Header bytes before the payload.
pub const HEADER_LEN: usize = 27;
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
    /// Frame checksum mismatch.
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
    /// Identity of the loaded store; a change invalidates router
    /// cache entries.
    pub generation: u64,
}

/// Health snapshot (reply to [`Frame::HealthProbe`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// Live partitions behind this worker.
    pub live: u32,
    /// Partitions the shard store was written with.
    pub total: u32,
    /// Identity of the loaded store.
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
    /// Re-record this event on the local flight recorder, with the
    /// detail `[shard <i> seq <seq> +<t_us>us] <detail>`.
    pub(crate) fn rerecord(&self, shard: usize) {
        let level = match self.level {
            0 => FlightLevel::Info,
            1 => FlightLevel::Warn,
            _ => FlightLevel::Error,
        };
        let detail =
            format!("{RERECORD_TAG}{shard} seq {} +{}us] {}", self.seq, self.t_us, self.detail);
        gdelt_obs::flight(level, self.component.clone(), self.code.clone(), detail);
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
        /// Recent worker flight events.
        flight: Vec<FlightForward>,
    },
    /// Router → worker: health check.
    HealthProbe,
    /// Worker → router: health snapshot.
    Health(Health),
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
            Frame::Error { .. } => KIND_ERROR,
            Frame::MetricsRequest => KIND_METRICS_REQUEST,
            Frame::MetricsReply { .. } => KIND_METRICS_REPLY,
            Frame::TraceRequest => KIND_TRACE_REQUEST,
            Frame::TraceReply { .. } => KIND_TRACE_REPLY,
        }
    }

    /// Short name of the frame's kind, for diagnostics (a frame's full
    /// `Debug` can embed a whole partial).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::Request(_) => "request",
            Frame::Reply { .. } => "reply",
            Frame::HealthProbe => "health_probe",
            Frame::Health(_) => "health",
            Frame::Error { .. } => "error",
            Frame::MetricsRequest => "metrics_request",
            Frame::MetricsReply { .. } => "metrics_reply",
            Frame::TraceRequest => "trace_request",
            Frame::TraceReply { .. } => "trace_reply",
        }
    }

    /// Encode into a checksummed frame with zero (untraced) trace
    /// context.
    // analyze: no_panic
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(0, 0)
    }

    /// Encode into a checksummed frame carrying trace context.
    // analyze: no_panic
    pub fn encode_traced(&self, trace_id: u64, parent_span: u64) -> Vec<u8> {
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
                enc_flight_vec(&mut e, flight);
            }
            Frame::HealthProbe => {}
            Frame::Health(h) => {
                e.u32(h.live);
                e.u32(h.total);
                e.u64(h.generation);
            }
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
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.kind());
        out.extend_from_slice(&trace_id.to_le_bytes());
        out.extend_from_slice(&parent_span.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let sum = checksum64(&out);
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
    /// parent_span, consumed)`.
    // analyze: no_panic
    pub fn decode_traced(buf: &[u8]) -> Result<(Frame, u64, u64, usize), WireError> {
        let (kind, trace_id, parent_span, len) = parse_header(buf)?;
        let body_end = HEADER_LEN + len;
        let total = body_end + CHECKSUM_LEN;
        if buf.len() < total {
            return Err(WireError::Truncated { needed: total, have: buf.len() });
        }
        let body = buf.get(..body_end).ok_or(WireError::Malformed("frame body"))?;
        let computed = checksum64(body);
        let sum_bytes = buf.get(body_end..total).ok_or(WireError::Malformed("checksum"))?;
        let stored =
            u64::from_le_bytes(sum_bytes.try_into().map_err(|_| WireError::Malformed("checksum"))?);
        if computed != stored {
            return Err(WireError::BadChecksum { computed, stored });
        }
        let payload = buf.get(HEADER_LEN..body_end).ok_or(WireError::Malformed("payload"))?;
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
            KIND_REPLY => Frame::Reply {
                generation: d.u64()?,
                partial: dec_partial(&mut d)?,
                flight: dec_flight_vec(&mut d)?,
            },
            KIND_HEALTH_PROBE => Frame::HealthProbe,
            KIND_HEALTH => {
                Frame::Health(Health { live: d.u32()?, total: d.u32()?, generation: d.u64()? })
            }
            KIND_ERROR => Frame::Error { code: d.u16()?, message: d.str()? },
            KIND_METRICS_REQUEST => Frame::MetricsRequest,
            KIND_METRICS_REPLY => {
                Frame::MetricsReply { snapshot_json: d.str()?, flight: dec_flight_vec(&mut d)? }
            }
            KIND_TRACE_REQUEST => Frame::TraceRequest,
            KIND_TRACE_REPLY => {
                let pid = d.u32()?;
                let n = d.len_for(WIRE_SPAN_MIN_BYTES)?;
                let spans = (0..n).map(|_| dec_wire_span(&mut d)).collect::<Result<Vec<_>, _>>()?;
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
    /// a stream. The header is read into a stack buffer and the frame
    /// into one buffer of its exact length, which is decoded in place —
    /// the payload is copied once, by the read.
    pub fn read_traced_from(r: &mut impl std::io::Read) -> std::io::Result<(Frame, u64, u64)> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let (_, _, _, len) = parse_header(&header).map_err(wire_io)?;
        let mut whole = vec![0u8; HEADER_LEN + len + CHECKSUM_LEN];
        whole[..HEADER_LEN].copy_from_slice(&header);
        r.read_exact(&mut whole[HEADER_LEN..])?;
        let (frame, trace_id, parent_span, _) = Frame::decode_traced(&whole).map_err(wire_io)?;
        Ok((frame, trace_id, parent_span))
    }
}

fn wire_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Check magic, version and payload bound of the header at the start
/// of `buf` and return `(kind, trace_id, parent_span, payload_len)` —
/// the one header reader of the buffer and stream paths.
// analyze: no_panic
fn parse_header(buf: &[u8]) -> Result<(u8, u64, u64, usize), WireError> {
    let Some(h) = buf.get(..HEADER_LEN) else {
        return Err(WireError::Truncated { needed: HEADER_LEN, have: buf.len() });
    };
    let mut d = Dec { buf: h, pos: 0 };
    let magic: [u8; 4] = d.fixed()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = d.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let (kind, trace_id, parent_span, len) = (d.u8()?, d.u64()?, d.u64()?, d.u32()?);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((kind, trace_id, parent_span, len as usize))
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
    /// LEB128: seven bits a byte, low group first.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
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
    /// An LEB128 varint of at most 64 bits.
    fn varint(&mut self) -> Result<u64, WireError> {
        // Most of a Delay partial's varints are one byte.
        if let Some(&byte) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(WireError::Truncated { needed: self.pos + 1, have: self.buf.len() });
            };
            self.pos += 1;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(WireError::Malformed("varint past 64 bits"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Malformed("varint past 64 bits"))
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

/// One source's delay runs: the run count, the delay deltas (the first
/// delay, then each gap less one), the counts — all varints. A list that
/// is not strictly ascending wraps to a delta the decoder refuses.
fn enc_delay_runs(e: &mut Enc<'_>, runs: &[(u32, u64)]) {
    e.varint(runs.len() as u64);
    let mut next = 0u32;
    for &(dl, _) in runs {
        e.varint(u64::from(dl.wrapping_sub(next)));
        next = dl.wrapping_add(1);
    }
    for &(_, count) in runs {
        e.varint(count);
    }
}

/// The inverse of [`enc_delay_runs`]: strictly ascending runs, or a
/// typed error for a truncated varint, a run count the payload cannot
/// hold, or a delay past `u32::MAX`.
fn dec_delay_runs(d: &mut Dec<'_>) -> Result<Vec<(u32, u64)>, WireError> {
    let n = d.varint()?;
    // A run is at least two bytes: its delta and its count.
    if n.saturating_mul(2) > (d.buf.len() - d.pos) as u64 {
        return Err(WireError::Malformed("run count exceeds payload"));
    }
    let mut runs = Vec::with_capacity(n as usize);
    let mut next = 0u64;
    for _ in 0..n {
        let dl = next.saturating_add(d.varint()?);
        let dl = u32::try_from(dl).map_err(|_| WireError::Malformed("delay run past u32::MAX"))?;
        runs.push((dl, 0));
        next = u64::from(dl) + 1;
    }
    for (_, count) in &mut runs {
        *count = d.varint()?;
    }
    Ok(runs)
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
                enc_delay_runs(e, &h.runs);
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
        0 => ShardPartial::CoReport(CoReport {
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
            let n = d.len_for(1)?;
            let hists = (0..n)
                .map(|_| Ok(DelayHist { runs: dec_delay_runs(d)? }))
                .collect::<Result<Vec<_>, WireError>>()?;
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
