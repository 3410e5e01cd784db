//! Hostile input against the frame decoders: a deterministic,
//! splitmix-seeded mutator over every payload the wire carries — a
//! full `Records` frame (3072 records, the size the serve benchmark
//! sends), a `Summary`, a `Stats` payload and the accepting hello
//! reply's CRC-protected trailer.
//!
//! Three properties, each a promise of the protocol module:
//!
//! 1. A single corrupted byte anywhere in a frame never reaches a
//!    decoder: the header rejects it or the CRC does. Small frames are
//!    corrupted at every byte; the 61 457-byte `Records` frame at every
//!    byte of its header, seq prefix, first and last records, and at
//!    2048 seeded positions in between.
//! 2. A payload that is wrong but carries a *correct* CRC (a buggy or
//!    malicious peer, not the wire) decodes or fails with
//!    [`WireError::BadRecords`] — never a panic, never another error.
//! 3. No declared length above the payload bound gets past the header:
//!    checked for the 4096 lengths just above it, each power of two
//!    (and its neighbours) up to `u32::MAX`, and 4096 seeded lengths.
//!    The slam client holds server frames to the same bound.

use mnm_serve::protocol::{
    decode_records, decode_summary, encode_frame, encode_hello_reply_ok, encode_records_payload,
    encode_summary, parse_frame_header, verify_frame_crc, FrameType, SessionStatsWire,
    StructureVerdictsWire, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, SEQ_BYTES,
};
use mnm_serve::slam::{run_slam, session_instrs, SlamOptions};
use mnm_serve::Endpoint;
use std::io::{Read, Write};
use std::net::TcpListener;
use trace_synth::rng::SplitMix64;
use trace_synth::RECORD_BYTES;

/// Records per frame in the serve benchmark's `serve_loopback`.
const FRAME_RECORDS: u64 = 3072;

/// Seeded payload mutations drawn from a SplitMix64 stream.
struct Mutator {
    rng: SplitMix64,
}

impl Mutator {
    /// The k-th draw for `seed` is `splitmix64(seed + (k + 1)·γ)`: the
    /// stream steps its state before mixing.
    fn new(seed: u64) -> Mutator {
        Mutator { rng: SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// A nonzero XOR mask: applying it always changes the byte.
    fn mask(&mut self) -> u8 {
        1 + (self.rng.next_u64() % 255) as u8
    }

    /// One seeded structural mutation of `payload`: flipped bytes, a
    /// forged record tag, a truncation, an extension, or a spliced
    /// copy of another range.
    fn mutate(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut out = payload.to_vec();
        match self.below(5) {
            0 => {
                for _ in 0..1 + self.below(8) {
                    if !out.is_empty() {
                        let at = self.below(out.len());
                        out[at] ^= self.mask();
                    }
                }
            }
            1 => {
                // The kind tag of one record, to any value.
                let records = out.len().saturating_sub(SEQ_BYTES) / RECORD_BYTES;
                if records > 0 {
                    out[SEQ_BYTES + self.below(records) * RECORD_BYTES + 10] =
                        self.rng.next_u64() as u8;
                }
            }
            2 => out.truncate(self.below(out.len() + 1)),
            3 => {
                for _ in 0..1 + self.below(2 * RECORD_BYTES) {
                    out.push(self.rng.next_u64() as u8);
                }
            }
            _ => {
                if !out.is_empty() {
                    let from = self.below(out.len());
                    let len = self.below(out.len() - from + 1);
                    let to = self.below(out.len());
                    let piece = out[from..from + len].to_vec();
                    out.splice(to..to, piece);
                }
            }
        }
        out
    }
}

fn records_payload() -> Vec<u8> {
    let instrs = session_instrs(7, 0, FRAME_RECORDS);
    let mut payload = Vec::new();
    encode_records_payload(1, &instrs, &mut payload);
    assert_eq!(payload.len(), SEQ_BYTES + FRAME_RECORDS as usize * RECORD_BYTES);
    payload
}

fn stats_payload() -> Vec<u8> {
    let structure = |name: &str, level: u8| StructureVerdictsWire {
        name: name.to_string(),
        level,
        hits: 1000 + u64::from(level),
        maybe_misses: 70,
        definite_misses: 30,
    };
    SessionStatsWire {
        accesses: 9000,
        records: 30_000,
        frames: 10,
        total_latency: 123_456,
        occupancy_tracked: 37,
        occupancy_capacity: 4096,
        structures: vec![structure("dl1", 1), structure("ul2", 2), structure("ul3", 3)],
    }
    .encode()
}

/// Does a reader that received `frame` reject it before decoding? The
/// reader takes the declared payload length, or what arrived if less.
fn frame_rejected(frame: &[u8]) -> bool {
    let header: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES].try_into().unwrap();
    let Ok(parsed) = parse_frame_header(&header, MAX_FRAME_BYTES) else { return true };
    let end = (FRAME_HEADER_BYTES + parsed.payload_len as usize).min(frame.len());
    verify_frame_crc(&parsed, &frame[FRAME_HEADER_BYTES..end]).is_err()
}

/// Corrupt one byte at each of `positions` with a seeded mask; every
/// corruption must be rejected.
fn assert_corruptions_caught(label: &str, frame: &[u8], positions: &[usize], m: &mut Mutator) {
    assert!(!frame_rejected(frame), "{label}: the clean frame is rejected");
    for &at in positions {
        let mask = m.mask();
        let mut corrupt = frame.to_vec();
        corrupt[at] ^= mask;
        assert!(frame_rejected(&corrupt), "{label}: byte {at} ^ {mask:#04x} went undetected");
    }
}

#[test]
fn single_byte_corruptions_fail_the_frame_check() {
    let mut m = Mutator::new(0x5EED_0001);
    let frames = [
        ("records", FrameType::Records, records_payload()),
        ("summary", FrameType::Summary, encode_summary(9, [10, 2000, 7, 3, 5]).to_vec()),
        ("stats", FrameType::Stats, stats_payload()),
    ];
    for (label, frame_type, payload) in frames {
        let mut frame = Vec::new();
        encode_frame(frame_type, &payload, &mut frame);
        let positions: Vec<usize> = if frame.len() <= 4096 {
            (0..frame.len()).collect()
        } else {
            let edge = FRAME_HEADER_BYTES + SEQ_BYTES + RECORD_BYTES;
            let mut p: Vec<usize> =
                (0..edge).chain(frame.len() - RECORD_BYTES..frame.len()).collect();
            p.extend((0..2048).map(|_| m.below(frame.len())));
            p
        };
        assert_corruptions_caught(label, &frame, &positions, &mut m);
    }

    // The hello reply's trailer carries the resume point, behind a CRC
    // of its own over everything before it.
    let reply = encode_hello_reply_ok(0xDEAD_BEEF_F00D, 41);
    let (body, crc) = reply.split_at(reply.len() - 4);
    let crc = u32::from_le_bytes(crc.try_into().unwrap());
    assert_eq!(trace_synth::crc32(body), crc);
    for at in 0..reply.len() {
        let mut corrupt = reply.clone();
        corrupt[at] ^= m.mask();
        let (body, wire_crc) = corrupt.split_at(corrupt.len() - 4);
        assert_ne!(
            trace_synth::crc32(body),
            u32::from_le_bytes(wire_crc.try_into().unwrap()),
            "hello reply byte {at} corruption went undetected"
        );
    }
}

#[test]
fn mutated_payloads_with_a_valid_crc_decode_or_fail_cleanly() {
    let mut m = Mutator::new(0x5EED_0002);
    let records = records_payload();
    let summary = encode_summary(9, [10, 2000, 7, 3, 5]);
    let stats = stats_payload();
    let (mut decoded, mut rejected) = (0, 0);
    let mut instrs = Vec::new();
    for round in 0..300 {
        let (frame_type, mutated) = match round % 3 {
            0 => (FrameType::Records, m.mutate(&records)),
            1 => (FrameType::Summary, m.mutate(&summary)),
            _ => (FrameType::Stats, m.mutate(&stats)),
        };
        // Framed with a recomputed CRC, the mutation passes the wire
        // checks, so it reaches the decoder exactly as a reader would
        // hand it over.
        let mut frame = Vec::new();
        encode_frame(frame_type, &mutated, &mut frame);
        let header: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES].try_into().unwrap();
        let parsed = parse_frame_header(&header, u32::MAX).expect("header of a framed mutation");
        let payload = &frame[FRAME_HEADER_BYTES..];
        verify_frame_crc(&parsed, payload).expect("a recomputed crc verifies");
        instrs.clear();
        let outcome = match frame_type {
            // A decoded Records payload holds one instruction per record.
            FrameType::Records => decode_records(payload, &mut instrs).map(|_| {
                assert_eq!(instrs.len(), (payload.len() - SEQ_BYTES) / RECORD_BYTES);
            }),
            FrameType::Summary => decode_summary(payload).map(drop),
            _ => SessionStatsWire::decode(payload).map(drop),
        };
        match outcome {
            Ok(()) => decoded += 1,
            Err(WireError::BadRecords(_)) => rejected += 1,
            Err(e) => panic!("round {round}: {frame_type:?} mutation failed with {e:?}"),
        }
    }
    assert!(decoded > 0 && rejected > 0, "mutator is one-sided: {decoded} ok, {rejected} rejected");
}

#[test]
fn lengths_above_the_bound_are_rejected_by_the_header() {
    let mut m = Mutator::new(0x5EED_0003);
    let max = u64::from(MAX_FRAME_BYTES);
    let mut lengths: Vec<u64> = (max + 1..=max + 4096).collect();
    for bit in 17..32 {
        lengths.extend([(1u64 << bit) - 1, 1 << bit, (1 << bit) + 1]);
    }
    lengths.push(u64::from(u32::MAX));
    lengths.extend((0..4096).map(|_| max + 1 + m.rng.next_u64() % (u64::from(u32::MAX) - max)));
    for frame_type in [
        FrameType::Records,
        FrameType::Finish,
        FrameType::Summary,
        FrameType::Stats,
        FrameType::Error,
    ] {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[0] = frame_type as u8;
        header[5..].copy_from_slice(&m.rng.next_u64().to_le_bytes()[..4]);
        for &len in &lengths {
            let len = u32::try_from(len).unwrap();
            header[1..5].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                parse_frame_header(&header, MAX_FRAME_BYTES),
                Err(WireError::Oversize { len, max: MAX_FRAME_BYTES }),
                "{frame_type:?} with length {len}"
            );
        }
        for len in [0, 1, MAX_FRAME_BYTES - 1, MAX_FRAME_BYTES] {
            header[1..5].copy_from_slice(&len.to_le_bytes());
            let parsed = parse_frame_header(&header, MAX_FRAME_BYTES).expect("within the bound");
            assert_eq!(parsed.payload_len, len);
        }
    }
}

/// A fake server accepts each session, then answers with a `Summary`
/// header declaring a `u32::MAX`-byte payload. slam must refuse it from
/// the header, before allocating the length: every attempt fails
/// retryably with `Oversize` until the retries run out.
#[test]
fn slam_refuses_an_oversize_server_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for stream in listener.incoming().take(3) {
            let mut s = stream.unwrap();
            let mut hello = [0u8; 64];
            let _ = s.read(&mut hello);
            let mut header = [0u8; FRAME_HEADER_BYTES];
            header[0] = FrameType::Summary as u8;
            header[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
            s.write_all(&encode_hello_reply_ok(1, 0)).unwrap();
            s.write_all(&header).unwrap();
            // Drain the client until it hangs up, so closing never resets
            // the connection under its read.
            let _ = std::io::copy(&mut s, &mut std::io::sink());
        }
    });
    let opts = SlamOptions {
        endpoint: Endpoint::Tcp(addr.to_string()),
        sessions: 1,
        records: 100,
        frame_records: 50,
        retries: 2,
        backoff_ms: 1,
        ..SlamOptions::default()
    };
    let report = run_slam(&opts).expect("slam runs");
    server.join().unwrap();
    assert_eq!((report.sessions_failed, report.retries), (1, 2));
    let oversize = WireError::Oversize { len: u32::MAX, max: MAX_FRAME_BYTES }.to_string();
    let failure = &report.failures[0];
    assert!(failure.starts_with(&oversize) && failure.contains("after 2 retries"), "{failure}");
}
