//! Compact binary trace persistence.
//!
//! Traces are regenerable from their profile, but persisting them lets the
//! benchmark harness replay exactly the same stream across tool versions
//! (SimpleScalar's EIO-trace role). The format is a fixed-size little-
//! endian record per instruction behind a magic/version header.

use std::fmt;
use std::io::{Read, Write};

use crate::record::{Instr, InstrKind};

const MAGIC: &[u8; 4] = b"JSNT";
const VERSION: u16 = 1;

const TAG_OP: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;

/// Size of one encoded instruction record in bytes. The same fixed-width
/// little-endian encoding is used by trace files (behind the `JSNT`
/// header) and by the `jsn serve` wire protocol's RECORDS frames.
pub const RECORD_BYTES: usize = 8 + 1 + 1 + 1 + 1 + 8;

/// Append the [`RECORD_BYTES`]-byte encoding of `instr` to `out`.
#[inline]
pub fn encode_record(instr: Instr, out: &mut Vec<u8>) {
    let (tag, aux, addr) = match instr.kind {
        InstrKind::Op { latency } => (TAG_OP, latency, 0),
        InstrKind::Load { addr } => (TAG_LOAD, 0, addr),
        InstrKind::Store { addr } => (TAG_STORE, 0, addr),
        InstrKind::Branch { mispredicted } => (TAG_BRANCH, u8::from(mispredicted), 0),
    };
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..8].copy_from_slice(&instr.pc.to_le_bytes());
    rec[8] = instr.src1;
    rec[9] = instr.src2;
    rec[10] = tag;
    rec[11] = aux;
    rec[12..20].copy_from_slice(&addr.to_le_bytes());
    out.extend_from_slice(&rec);
}

/// Decode one [`RECORD_BYTES`]-byte record produced by [`encode_record`].
///
/// # Errors
///
/// [`TraceIoError::Truncated`] when `rec` is not exactly [`RECORD_BYTES`]
/// long; [`TraceIoError::BadRecord`] on an unknown kind tag.
#[inline]
pub fn decode_record(rec: &[u8]) -> Result<Instr, TraceIoError> {
    let rec: &[u8; RECORD_BYTES] = rec.try_into().map_err(|_| TraceIoError::Truncated)?;
    let pc = u64::from_le_bytes(rec[0..8].try_into().unwrap());
    let src1 = rec[8];
    let src2 = rec[9];
    let tag = rec[10];
    let aux = rec[11];
    let addr = u64::from_le_bytes(rec[12..20].try_into().unwrap());
    let kind = match tag {
        TAG_OP => InstrKind::Op { latency: aux },
        TAG_LOAD => InstrKind::Load { addr },
        TAG_STORE => InstrKind::Store { addr },
        TAG_BRANCH => InstrKind::Branch { mispredicted: aux != 0 },
        other => return Err(TraceIoError::BadRecord(other)),
    };
    Ok(Instr { pc, kind, src1, src2 })
}

/// Errors produced when reading a persisted trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Missing/incorrect magic bytes or unsupported version.
    BadHeader,
    /// A record carried an unknown kind tag.
    BadRecord(u8),
    /// The payload ended mid-record.
    Truncated,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failure: {e}"),
            TraceIoError::BadHeader => write!(f, "not a JSNT trace or unsupported version"),
            TraceIoError::BadRecord(tag) => write!(f, "unknown instruction tag {tag}"),
            TraceIoError::Truncated => write!(f, "trace payload ended mid-record"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialize `instrs` to `writer`.
///
/// # Errors
///
/// Propagates underlying I/O errors.
pub fn write_trace<W: Write, I: IntoIterator<Item = Instr>>(
    mut writer: W,
    instrs: I,
) -> Result<u64, TraceIoError> {
    let mut buf = Vec::with_capacity(64 * 1024);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let mut count = 0u64;
    for i in instrs {
        encode_record(i, &mut buf);
        count += 1;
        if buf.len() >= 60 * 1024 {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(count)
}

/// Deserialize a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, a bad header, an unknown
/// record tag, or a truncated payload.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Vec<Instr>, TraceIoError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    if raw.len() < 6 {
        return Err(TraceIoError::BadHeader);
    }
    if &raw[..4] != MAGIC || u16::from_le_bytes([raw[4], raw[5]]) != VERSION {
        return Err(TraceIoError::BadHeader);
    }
    let payload = &raw[6..];

    if payload.len() % RECORD_BYTES != 0 {
        return Err(TraceIoError::Truncated);
    }
    let mut out = Vec::with_capacity(payload.len() / RECORD_BYTES);
    for rec in payload.chunks_exact(RECORD_BYTES) {
        out.push(decode_record(rec)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::program::Program;

    #[test]
    fn round_trip_preserves_trace() {
        let original: Vec<Instr> =
            Program::new(profiles::by_name("164.gzip").unwrap()).take(10_000).collect();
        let mut bytes = Vec::new();
        let n = write_trace(&mut bytes, original.iter().copied()).unwrap();
        assert_eq!(n, 10_000);
        let restored = read_trace(bytes.as_slice()).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE\x01\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut bytes = Vec::new();
        let one = Instr { pc: 4, kind: InstrKind::Op { latency: 1 }, src1: 0, src2: 0 };
        write_trace(&mut bytes, [one]).unwrap();
        bytes.pop();
        let err = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Truncated));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = Vec::new();
        let one = Instr { pc: 4, kind: InstrKind::Op { latency: 1 }, src1: 0, src2: 0 };
        write_trace(&mut bytes, [one]).unwrap();
        bytes[6 + 10] = 9; // corrupt the kind tag of the first record
        let err = read_trace(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::BadRecord(9)));
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut bytes = Vec::new();
        write_trace(&mut bytes, std::iter::empty()).unwrap();
        assert!(read_trace(bytes.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn single_record_round_trips_all_kinds() {
        let instrs = [
            Instr { pc: 0x4000_0000, kind: InstrKind::Op { latency: 12 }, src1: 3, src2: 0 },
            Instr {
                pc: 0x4000_0004,
                kind: InstrKind::Load { addr: 0xdead_beef },
                src1: 0,
                src2: 1,
            },
            Instr { pc: 0x4000_0008, kind: InstrKind::Store { addr: u64::MAX }, src1: 2, src2: 2 },
            Instr {
                pc: 0x4000_000c,
                kind: InstrKind::Branch { mispredicted: true },
                src1: 0,
                src2: 0,
            },
        ];
        for i in instrs {
            let mut bytes = Vec::new();
            encode_record(i, &mut bytes);
            assert_eq!(bytes.len(), RECORD_BYTES);
            assert_eq!(decode_record(&bytes).unwrap(), i);
        }
        assert!(matches!(decode_record(&[0u8; 7]).unwrap_err(), TraceIoError::Truncated));
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(TraceIoError::BadHeader.to_string().contains("JSNT"));
        assert!(TraceIoError::BadRecord(7).to_string().contains('7'));
    }
}
