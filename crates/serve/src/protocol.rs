//! The `jsn serve` wire protocol, version 2.
//!
//! A session is one *logical* replay stream; since v2 it may span many
//! connections. The client opens each connection with a **hello**:
//!
//! ```text
//! magic "JSNS" (4) | version u16 LE | config_len u16 LE | config utf-8 | resume_token u64 LE
//! ```
//!
//! where `config` is a filter preset label (`FilterPreset::parse`):
//! `baseline` or `perfect` in any case, or any
//! label accepted by `MnmConfig::parse` (`HMNM4`, `TMNM_12x1`, ...), and
//! `resume_token` is 0 for a new session or a token a previous hello
//! reply issued (the connection then *resumes* that parked session).
//!
//! The server answers with a reply whose prefix is identical in shape
//! across protocol versions — so a version mismatch in either direction
//! decodes cleanly instead of shearing:
//!
//! ```text
//! magic (4) | version u16 LE | status u8 | detail_len u16 LE | detail utf-8
//!     | (status == OK only) session_token u64 LE | last_acked_seq u64 LE
//! ```
//!
//! `last_acked_seq` is the highest `Records` sequence number the server
//! has applied for this session; a resuming client replays only frames
//! after it. A `STATUS_BUSY` reply's detail may carry a
//! `retry_after_ms=N` hint (see [`parse_retry_after_ms`]).
//!
//! After an accepted hello, both directions speak **frames**:
//!
//! ```text
//! type u8 | payload_len u32 LE | crc32 u32 LE | payload
//! ```
//!
//! The CRC-32 (IEEE, slicing-by-16, from `trace-synth`) covers the type
//! byte, the length field, and the payload, so any wire corruption —
//! flipped bits, duplicated or sheared writes — is *detected* rather
//! than mis-decoded into plausible records. A frame whose CRC fails is
//! a [`WireError::Crc`], never a decode.
//!
//! | type | direction | payload |
//! |------|-----------|---------|
//! | [`FrameType::Records`] | client → server | `seq u64 LE` then `k` × 20-byte trace records (the `trace-synth` file encoding, sans file header) |
//! | [`FrameType::Finish`]  | client → server | empty |
//! | [`FrameType::Summary`] | server → client | `seq u64 LE` then 5 × u64 LE: accesses, total latency, L1 hits, misses, bypassed probes |
//! | [`FrameType::Stats`]   | server → client | final session stats, see [`SessionStatsWire`] |
//! | [`FrameType::Error`]   | server → client | utf-8 message; the connection closes after it |
//!
//! `Records` sequence numbers start at 1 and increase by exactly 1.
//! Every `Records` frame is answered by one `Summary` echoing its `seq`;
//! a frame with `seq ≤ last_acked` is a **replay** (a reconnecting
//! client re-sending what the server already applied) and is re-acked
//! from a bounded summary buffer without touching the replay state —
//! this is what makes verdict accounting exactly-once under connection
//! loss. `Finish` is answered by one `Stats`. Payload lengths are
//! bounded ([`MAX_FRAME_BYTES`] by default, server-configurable) so a
//! hostile or corrupt length field cannot make the server allocate
//! unbounded memory.
//!
//! All decode paths return [`WireError`] — never panic — because each
//! byte may come from a torn write, a short read or a malicious peer.

use trace_synth::{crc32, decode_record, Crc32, Instr, RECORD_BYTES};

/// Connection magic: first four bytes of every hello.
pub const MAGIC: [u8; 4] = *b"JSNS";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 2;

/// The legacy protocol version (no CRC, no sequence numbers, no
/// resume). Kept for the bidirectional version-mismatch tests.
pub const VERSION_V1: u16 = 1;

/// Frame header size: type byte + u32 payload length + u32 CRC.
pub const FRAME_HEADER_BYTES: usize = 9;

/// Size of the `seq u64` prefix of `Records` and `Summary` payloads.
pub const SEQ_BYTES: usize = 8;

/// Default upper bound on a frame payload. 64 KiB holds ~3276 records,
/// far above the useful batch size for `Hierarchy::run`.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024;

/// The most records one `Records` frame carries within
/// [`MAX_FRAME_BYTES`]: 3276.
pub const MAX_FRAME_RECORDS: usize = (MAX_FRAME_BYTES as usize - SEQ_BYTES) / RECORD_BYTES;

/// Upper bound on the hello config-label length.
pub const MAX_CONFIG_BYTES: usize = 128;

/// Hello status byte: session accepted.
pub const STATUS_OK: u8 = 0;
/// Hello status byte: server at its session cap or shedding load; the
/// detail may carry a `retry_after_ms=N` hint.
pub const STATUS_BUSY: u8 = 1;
/// Hello status byte: bad config label / version / magic / token.
pub const STATUS_REJECTED: u8 = 2;

/// Frame type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: a sequence number and a batch of trace records.
    Records = 1,
    /// Client → server: end of stream, request final stats.
    Finish = 2,
    /// Server → client: batch summary for one `Records` frame.
    Summary = 3,
    /// Server → client: final session statistics.
    Stats = 4,
    /// Server → client: terminal error description.
    Error = 5,
}

impl FrameType {
    /// Decode a frame-type byte.
    pub fn from_u8(v: u8) -> Option<FrameType> {
        match v {
            1 => Some(FrameType::Records),
            2 => Some(FrameType::Finish),
            3 => Some(FrameType::Summary),
            4 => Some(FrameType::Stats),
            5 => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// Everything that can go wrong reading the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The peer closed mid-frame or mid-hello: a torn write.
    Torn {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The peer made no byte progress mid-frame for longer than the
    /// stall budget.
    Stalled,
    /// The peer sent no new frame for longer than the idle deadline.
    Idle,
    /// The server is shutting down.
    Shutdown,
    /// Underlying socket error.
    Io(String),
    /// Hello did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Hello carried an unsupported version.
    BadVersion {
        /// The version the peer requested.
        got: u16,
    },
    /// Hello config label was too long or not utf-8.
    BadConfig(String),
    /// Hello carried a resume token the server does not know (expired,
    /// never issued, or already drained).
    BadToken,
    /// Unknown frame-type byte.
    BadFrameType(u8),
    /// Declared payload length exceeds the negotiated bound.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The server's bound.
        max: u32,
    },
    /// The frame checksum did not match: wire corruption.
    Crc {
        /// CRC carried by the frame header.
        expected: u32,
        /// CRC computed over the received bytes.
        got: u32,
    },
    /// A `Records` payload was not a multiple of the record size, or a
    /// record failed to decode.
    BadRecords(String),
    /// A `Records` sequence number skipped ahead: frames were lost in a
    /// way replay cannot repair.
    SeqGap {
        /// Highest sequence number applied so far.
        acked: u64,
        /// The sequence number the frame carried.
        got: u64,
    },
    /// The peer sent a frame type that is invalid in its direction or
    /// session state.
    Unexpected(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Torn { context } => {
                write!(f, "connection closed mid-{context} (torn frame)")
            }
            WireError::Stalled => write!(f, "peer stalled past the read budget"),
            WireError::Idle => write!(f, "session idle past the frame deadline"),
            WireError::Shutdown => write!(f, "server shutting down"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}, expected \"JSNS\""),
            WireError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got}, this server speaks {VERSION}")
            }
            WireError::BadConfig(e) => write!(f, "bad hello config: {e}"),
            WireError::BadToken => {
                write!(f, "unknown or expired resume token (the parked session is gone)")
            }
            WireError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::Crc { expected, got } => {
                write!(f, "frame crc mismatch (header {expected:#010x}, wire {got:#010x}): corruption detected")
            }
            WireError::BadRecords(e) => write!(f, "bad records payload: {e}"),
            WireError::SeqGap { acked, got } => {
                write!(f, "records seq {got} skips ahead of acked {acked}: lost frames")
            }
            WireError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame type.
    pub frame_type: FrameType,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// CRC-32 over type byte, length field, and payload.
    pub crc: u32,
}

/// Parse a frame header from its [`FRAME_HEADER_BYTES`] wire bytes,
/// enforcing the payload bound. The CRC is *not* verified here — the
/// payload has not been read yet; call [`verify_frame_crc`] after.
pub fn parse_frame_header(
    bytes: &[u8; FRAME_HEADER_BYTES],
    max_payload: u32,
) -> Result<FrameHeader, WireError> {
    let frame_type = FrameType::from_u8(bytes[0]).ok_or(WireError::BadFrameType(bytes[0]))?;
    let payload_len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
    let crc = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    if payload_len > max_payload {
        return Err(WireError::Oversize { len: payload_len, max: max_payload });
    }
    Ok(FrameHeader { frame_type, payload_len, crc })
}

/// The CRC a frame of this type/length/payload must carry.
pub fn frame_crc(frame_type: FrameType, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&[frame_type as u8]);
    c.update(&(payload.len() as u32).to_le_bytes());
    c.update(payload);
    c.finish()
}

/// Check a received payload against its header's CRC.
///
/// The CRC input uses the header's *transmitted* length field, not
/// `payload.len()`: a reader that truncated or padded the payload for
/// any reason must still fail verification if the wire length was
/// damaged.
pub fn verify_frame_crc(header: &FrameHeader, payload: &[u8]) -> Result<(), WireError> {
    let mut c = Crc32::new();
    c.update(&[header.frame_type as u8]);
    c.update(&header.payload_len.to_le_bytes());
    c.update(payload);
    let got = c.finish();
    if got != header.crc {
        return Err(WireError::Crc { expected: header.crc, got });
    }
    Ok(())
}

/// Encode a frame (header + CRC + payload) into `out`.
pub fn encode_frame(frame_type: FrameType, payload: &[u8], out: &mut Vec<u8>) {
    out.push(frame_type as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(frame_type, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode the v2 client hello for `config`, resuming `token` (0 = new
/// session).
pub fn encode_hello(config: &str, token: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + config.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(config.len() as u16).to_le_bytes());
    out.extend_from_slice(config.as_bytes());
    out.extend_from_slice(&token.to_le_bytes());
    out
}

/// Encode a legacy v1 hello (no resume token) — used by the
/// version-mismatch regression tests to prove a v1 client gets a clean
/// versioned rejection.
pub fn encode_hello_v1(config: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + config.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    out.extend_from_slice(&(config.len() as u16).to_le_bytes());
    out.extend_from_slice(config.as_bytes());
    out
}

/// Encode the server's hello reply for a non-OK status. The shape of
/// this reply is version-invariant, so clients of *any* protocol
/// version decode it cleanly.
pub fn encode_hello_reply(status: u8, detail: &str) -> Vec<u8> {
    debug_assert_ne!(status, STATUS_OK, "OK replies carry a token trailer");
    let mut out = Vec::with_capacity(9 + detail.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(status);
    out.extend_from_slice(&(detail.len() as u16).to_le_bytes());
    out.extend_from_slice(detail.as_bytes());
    out
}

/// Encode the server's accepting hello reply: the version-invariant
/// prefix plus the v2 trailer (session token, last applied seq) and a
/// CRC over the whole reply. The trailer carries `last_acked` — the
/// value that tells a resuming client where to rewind — so unlike the
/// free-text rejection replies it MUST be integrity-protected: a
/// corrupted rewind point would silently skip or replay frames.
pub fn encode_hello_reply_ok(token: u64, last_acked: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(29);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(STATUS_OK);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&token.to_le_bytes());
    out.extend_from_slice(&last_acked.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Render the busy-detail retry hint clause.
pub fn retry_after_detail(reason: &str, retry_after_ms: u64) -> String {
    format!("{reason}; retry_after_ms={retry_after_ms}")
}

/// Parse a `retry_after_ms=N` hint out of a `STATUS_BUSY` reply detail.
pub fn parse_retry_after_ms(detail: &str) -> Option<u64> {
    detail
        .split([';', ' ', ','])
        .filter_map(|part| part.trim().strip_prefix("retry_after_ms="))
        .find_map(|v| v.parse().ok())
}

/// Encode a `Records` payload: the sequence number followed by the
/// records.
pub fn encode_records_payload(seq: u64, instrs: &[Instr], out: &mut Vec<u8>) {
    out.reserve(SEQ_BYTES + instrs.len() * RECORD_BYTES);
    out.extend_from_slice(&seq.to_le_bytes());
    for &i in instrs {
        trace_synth::encode_record(i, out);
    }
}

/// Decode a `Records` payload into its sequence number and
/// accesses-to-be: every record must decode, and the payload must be
/// whole records behind the seq prefix.
pub fn decode_records(payload: &[u8], out: &mut Vec<Instr>) -> Result<u64, WireError> {
    if payload.len() < SEQ_BYTES {
        return Err(WireError::BadRecords(format!(
            "payload of {} bytes is shorter than the {SEQ_BYTES}-byte seq prefix",
            payload.len()
        )));
    }
    let seq = u64::from_le_bytes(payload[..SEQ_BYTES].try_into().unwrap());
    let body = &payload[SEQ_BYTES..];
    if !body.len().is_multiple_of(RECORD_BYTES) {
        return Err(WireError::BadRecords(format!(
            "record body of {} bytes is not a multiple of the {RECORD_BYTES}-byte record size",
            body.len()
        )));
    }
    out.reserve(body.len() / RECORD_BYTES);
    for rec in body.chunks_exact(RECORD_BYTES) {
        out.push(decode_record(rec).map_err(|e| WireError::BadRecords(e.to_string()))?);
    }
    Ok(seq)
}

/// Encode a batch summary payload (`seq` + 5 × u64 LE).
pub fn encode_summary(seq: u64, counts: [u64; 5]) -> [u8; 48] {
    let mut out = [0u8; 48];
    out[..8].copy_from_slice(&seq.to_le_bytes());
    for (i, v) in counts.into_iter().enumerate() {
        out[8 + i * 8..8 + (i + 1) * 8].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a batch summary payload into `(seq, counts)`.
pub fn decode_summary(payload: &[u8]) -> Result<(u64, [u64; 5]), WireError> {
    if payload.len() != 48 {
        return Err(WireError::BadRecords(format!(
            "summary payload is {} bytes, expected 48",
            payload.len()
        )));
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let mut vals = [0u64; 5];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = u64::from_le_bytes(payload[8 + i * 8..8 + (i + 1) * 8].try_into().unwrap());
    }
    Ok((seq, vals))
}

/// Per-structure verdict counts in a final `Stats` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureVerdictsWire {
    /// Structure name ("dl1", "ul2", ...).
    pub name: String,
    /// 1-based cache level.
    pub level: u8,
    /// Probes answered by this structure.
    pub hits: u64,
    /// Probes this structure could not answer (maybe-verdicts that missed).
    pub maybe_misses: u64,
    /// Probes skipped outright on a definite-miss verdict.
    pub definite_misses: u64,
}

/// The final `Stats` frame payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionStatsWire {
    /// Cache accesses replayed.
    pub accesses: u64,
    /// Trace records received (memory and non-memory).
    pub records: u64,
    /// `Records` frames applied (replayed duplicates excluded).
    pub frames: u64,
    /// Total latency in cycles across all accesses.
    pub total_latency: u64,
    /// Filter occupancy: entries tracked at session end.
    pub occupancy_tracked: u64,
    /// Filter occupancy: total entry capacity.
    pub occupancy_capacity: u64,
    /// Per-structure verdict histogram.
    pub structures: Vec<StructureVerdictsWire>,
}

impl SessionStatsWire {
    /// Serialize to the wire payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.structures.len() * 48);
        for v in [
            self.accesses,
            self.records,
            self.frames,
            self.total_latency,
            self.occupancy_tracked,
            self.occupancy_capacity,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.structures.len() as u32).to_le_bytes());
        for s in &self.structures {
            out.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.push(s.level);
            for v in [s.hits, s.maybe_misses, s.definite_misses] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize from a wire payload.
    pub fn decode(payload: &[u8]) -> Result<SessionStatsWire, WireError> {
        let mut cur = Cursor { payload, pos: 0 };
        let accesses = cur.u64()?;
        let records = cur.u64()?;
        let frames = cur.u64()?;
        let total_latency = cur.u64()?;
        let occupancy_tracked = cur.u64()?;
        let occupancy_capacity = cur.u64()?;
        let count = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        if count > 64 {
            return Err(WireError::BadRecords(format!("{count} structures in stats frame")));
        }
        let mut structures = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name_len = u16::from_le_bytes(cur.take(2)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(cur.take(name_len)?.to_vec())
                .map_err(|_| WireError::BadRecords("structure name is not utf-8".to_string()))?;
            let level = cur.take(1)?[0];
            let hits = cur.u64()?;
            let maybe_misses = cur.u64()?;
            let definite_misses = cur.u64()?;
            structures.push(StructureVerdictsWire {
                name,
                level,
                hits,
                maybe_misses,
                definite_misses,
            });
        }
        Ok(SessionStatsWire {
            accesses,
            records,
            frames,
            total_latency,
            occupancy_tracked,
            occupancy_capacity,
            structures,
        })
    }
}

/// Bounds-checked reader over a stats payload.
struct Cursor<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.payload.len())
            .ok_or_else(|| WireError::BadRecords("stats payload truncated".to_string()))?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Sanity anchor for the CRC plumbing: the checksum of an empty
/// `Finish` frame, pinned so the wire format cannot drift silently.
#[allow(dead_code)]
fn _crc_api_is_reexported() -> u32 {
    crc32(b"JSNS")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::{Instr, InstrKind};

    #[test]
    fn hello_layout_is_stable() {
        let hello = encode_hello("HMNM4", 0xDEAD_BEEF);
        assert_eq!(&hello[..4], b"JSNS");
        assert_eq!(u16::from_le_bytes([hello[4], hello[5]]), VERSION);
        assert_eq!(u16::from_le_bytes([hello[6], hello[7]]), 5);
        assert_eq!(&hello[8..13], b"HMNM4");
        assert_eq!(u64::from_le_bytes(hello[13..21].try_into().unwrap()), 0xDEAD_BEEF);

        let v1 = encode_hello_v1("HMNM4");
        assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), VERSION_V1);
        assert_eq!(v1.len(), 13, "v1 hello has no token");
    }

    #[test]
    fn hello_replies_share_a_version_invariant_prefix() {
        let rejected = encode_hello_reply(STATUS_REJECTED, "nope");
        let ok = encode_hello_reply_ok(77, 3);
        // Both replies decode identically through byte 8 (magic,
        // version, status, detail_len) — the property that makes
        // version mismatches clean in both directions.
        assert_eq!(&rejected[..4], &MAGIC);
        assert_eq!(&ok[..4], &MAGIC);
        assert_eq!(rejected[6], STATUS_REJECTED);
        assert_eq!(ok[6], STATUS_OK);
        assert_eq!(u16::from_le_bytes([ok[7], ok[8]]), 0, "OK reply has empty detail");
        assert_eq!(u64::from_le_bytes(ok[9..17].try_into().unwrap()), 77);
        assert_eq!(u64::from_le_bytes(ok[17..25].try_into().unwrap()), 3);
        // The OK trailer is CRC-protected: a flipped bit anywhere in
        // the reply must be detectable.
        assert_eq!(u32::from_le_bytes(ok[25..29].try_into().unwrap()), crc32(&ok[..25]));
        for bit in 0..25 * 8 {
            let mut corrupt = ok.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                u32::from_le_bytes(corrupt[25..29].try_into().unwrap()),
                crc32(&corrupt[..25]),
                "flip at bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn retry_after_hint_round_trips() {
        let detail = retry_after_detail("server shedding load", 250);
        assert_eq!(parse_retry_after_ms(&detail), Some(250));
        assert_eq!(parse_retry_after_ms("no hint here"), None);
        assert_eq!(parse_retry_after_ms("busy; retry_after_ms=0"), Some(0));
    }

    #[test]
    fn frame_header_round_trips_and_bounds() {
        let mut buf = Vec::new();
        encode_frame(FrameType::Records, &[7u8; 40], &mut buf);
        let header: [u8; FRAME_HEADER_BYTES] = buf[..FRAME_HEADER_BYTES].try_into().unwrap();
        let parsed = parse_frame_header(&header, MAX_FRAME_BYTES).unwrap();
        assert_eq!(parsed.frame_type, FrameType::Records);
        assert_eq!(parsed.payload_len, 40);
        verify_frame_crc(&parsed, &buf[FRAME_HEADER_BYTES..]).unwrap();

        // Oversize length field is rejected before any allocation.
        let huge = [1u8, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0];
        assert!(matches!(
            parse_frame_header(&huge, MAX_FRAME_BYTES),
            Err(WireError::Oversize { .. })
        ));

        // Unknown type byte.
        let bad = [99u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            parse_frame_header(&bad, MAX_FRAME_BYTES),
            Err(WireError::BadFrameType(99))
        ));
    }

    #[test]
    fn any_single_bit_corruption_fails_the_crc() {
        let mut buf = Vec::new();
        let mut payload = Vec::new();
        let rec =
            Instr { pc: 0x400000, kind: InstrKind::Load { addr: 0xdead_beef }, src1: 1, src2: 0 };
        encode_records_payload(1, &[rec], &mut payload);
        encode_frame(FrameType::Records, &payload, &mut buf);

        for bit in 0..buf.len() * 8 {
            let mut corrupt = buf.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let Ok(header) =
                parse_frame_header(&corrupt[..FRAME_HEADER_BYTES].try_into().unwrap(), u32::MAX)
            else {
                continue; // corrupted type byte: rejected even earlier
            };
            // A corrupted length changes how many payload bytes the
            // reader would consume; here we verify against the bytes
            // that were actually sent, as the reader does.
            let end = (FRAME_HEADER_BYTES + header.payload_len as usize).min(corrupt.len());
            assert!(
                verify_frame_crc(&header, &corrupt[FRAME_HEADER_BYTES..end]).is_err(),
                "bit flip at {bit} went undetected"
            );
        }
    }

    #[test]
    fn records_payload_round_trips_with_seq() {
        let instrs = [
            Instr { pc: 0x400000, kind: InstrKind::Load { addr: 0xdead_beef }, src1: 1, src2: 0 },
            Instr { pc: 0x400004, kind: InstrKind::Store { addr: 0x1234 }, src1: 0, src2: 3 },
            Instr { pc: 0x400008, kind: InstrKind::Op { latency: 3 }, src1: 2, src2: 2 },
        ];
        let mut payload = Vec::new();
        encode_records_payload(41, &instrs, &mut payload);
        let mut back = Vec::new();
        assert_eq!(decode_records(&payload, &mut back).unwrap(), 41);
        assert_eq!(back, instrs);

        // A ragged payload is rejected.
        let mut ragged = Vec::new();
        assert!(matches!(
            decode_records(&payload[..payload.len() - 1], &mut ragged),
            Err(WireError::BadRecords(_))
        ));
        // A payload shorter than the seq prefix is rejected.
        assert!(matches!(
            decode_records(&payload[..7], &mut ragged),
            Err(WireError::BadRecords(_))
        ));
    }

    #[test]
    fn summary_round_trips() {
        let wire = encode_summary(9, [10, 2000, 7, 3, 5]);
        assert_eq!(decode_summary(&wire).unwrap(), (9, [10, 2000, 7, 3, 5]));
        assert!(decode_summary(&wire[..47]).is_err());
    }

    #[test]
    fn session_stats_round_trip() {
        let stats = SessionStatsWire {
            accesses: 1000,
            records: 4000,
            frames: 4,
            total_latency: 123456,
            occupancy_tracked: 37,
            occupancy_capacity: 4096,
            structures: vec![
                StructureVerdictsWire {
                    name: "dl1".to_string(),
                    level: 1,
                    hits: 900,
                    maybe_misses: 100,
                    definite_misses: 0,
                },
                StructureVerdictsWire {
                    name: "ul2".to_string(),
                    level: 2,
                    hits: 60,
                    maybe_misses: 10,
                    definite_misses: 30,
                },
            ],
        };
        let wire = stats.encode();
        assert_eq!(SessionStatsWire::decode(&wire).unwrap(), stats);
        // Truncation anywhere inside must error, never panic.
        for cut in 0..wire.len() {
            assert!(SessionStatsWire::decode(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }
}
