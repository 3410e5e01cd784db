//! A finished session parks as a tombstone that has dropped its replay
//! state: resuming it still re-serves the cached `Stats`, re-acks
//! duplicate `Records` from the summary ring, and refuses new records
//! with a protocol error.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mnm_serve::protocol::{
    encode_frame, encode_hello, encode_records_payload, FrameType, SessionStatsWire, STATUS_OK,
};
use mnm_serve::server::{Endpoint, Server, ServerConfig, ServerHandle};

/// Connect, send a hello for `token` (0: a new session) and read the
/// reply; returns the stream, the token and the server's `last_acked`.
fn hello(endpoint: &Endpoint, token: u64) -> (TcpStream, u64, u64) {
    let Endpoint::Tcp(addr) = endpoint else { panic!("expected tcp endpoint") };
    let mut s = TcpStream::connect(addr.as_str()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&encode_hello("HMNM4", token)).unwrap();
    // magic(4) version(2) status(1) detail_len(2) detail token(8) acked(8) crc(4)
    let mut fixed = [0u8; 9];
    s.read_exact(&mut fixed).expect("hello reply");
    assert_eq!(fixed[6], STATUS_OK, "hello accepted");
    let mut rest = vec![0u8; u16::from_le_bytes([fixed[7], fixed[8]]) as usize + 20];
    s.read_exact(&mut rest).unwrap();
    let trailer = &rest[rest.len() - 20..];
    let token = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    let acked = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    (s, token, acked)
}

/// Read one server frame: (type byte, payload).
fn read_frame(s: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 9];
    s.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).expect("frame payload");
    (header[0], payload)
}

fn send_records(s: &mut TcpStream, seq: u64, n: usize) {
    use trace_synth::{Instr, InstrKind};
    let instrs: Vec<Instr> = (0..n as u64)
        .map(|i| Instr {
            pc: 0x40_0000 + i * 4,
            kind: InstrKind::Load { addr: 0x1000_0000 + (seq * 1000 + i) * 64 },
            src1: 0,
            src2: 0,
        })
        .collect();
    let mut payload = Vec::new();
    encode_records_payload(seq, &instrs, &mut payload);
    let mut frame = Vec::new();
    encode_frame(FrameType::Records, &payload, &mut frame);
    s.write_all(&frame).unwrap();
}

fn send_finish(s: &mut TcpStream) {
    let mut frame = Vec::new();
    encode_frame(FrameType::Finish, &[], &mut frame);
    s.write_all(&frame).unwrap();
}

fn wait_idle(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.registry().sessions_active.load(Ordering::SeqCst) > 0 {
        assert!(Instant::now() < deadline, "sessions_active never returned to zero");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn counter(handle: &ServerHandle, which: &str) -> u64 {
    let page = handle.registry().render();
    mnm_serve::metrics::scrape_value(&page, which).unwrap_or_else(|| panic!("no metric {which}"))
}

#[test]
fn finished_tombstone_serves_stats_again_reacks_duplicates_and_refuses_new_records() {
    let server =
        Server::bind(Endpoint::Tcp("127.0.0.1:0".to_string()), ServerConfig::default()).unwrap();
    let endpoint = server.local_endpoint();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // A complete session: two frames, then Finish.
    let (mut s, token, _) = hello(&endpoint, 0);
    let mut summaries = Vec::new();
    for (seq, n) in [(1, 100), (2, 50)] {
        send_records(&mut s, seq, n);
        let (t, payload) = read_frame(&mut s);
        assert_eq!(t, FrameType::Summary as u8);
        summaries.push(payload);
    }
    send_finish(&mut s);
    let (t, stats) = read_frame(&mut s);
    assert_eq!(t, FrameType::Stats as u8);
    assert_eq!(SessionStatsWire::decode(&stats).unwrap().accesses, 150);
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 1);
    assert_eq!(counter(&handle, "jsn_sessions_parked"), 1, "the tombstone is parked");

    // Resume: both frames are acked, duplicates are re-acked byte for
    // byte from the ring, and Finish re-serves the identical Stats.
    let (mut s, token2, acked) = hello(&endpoint, token);
    assert_eq!((token2, acked), (token, 2));
    for seq in [2, 1] {
        send_records(&mut s, seq, if seq == 1 { 100 } else { 50 });
        let (t, payload) = read_frame(&mut s);
        assert_eq!(t, FrameType::Summary as u8);
        assert_eq!(payload, summaries[seq as usize - 1], "re-ack of frame {seq}");
    }
    send_finish(&mut s);
    let (t, again) = read_frame(&mut s);
    assert_eq!((t, &again), (FrameType::Stats as u8, &stats), "cached Stats re-served");
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_sessions_completed_total"), 1, "not re-counted");
    assert_eq!(counter(&handle, "jsn_frames_replayed_total"), 2);

    // Resume again and send a frame the session never saw: refused.
    let errors_before = counter(&handle, "jsn_protocol_errors_total");
    let (mut s, _, acked) = hello(&endpoint, token);
    assert_eq!(acked, 2);
    send_records(&mut s, 3, 10);
    let (t, payload) = read_frame(&mut s);
    assert_eq!(t, FrameType::Error as u8);
    assert!(String::from_utf8_lossy(&payload).contains("after finish"));
    drop(s);
    wait_idle(&handle);
    assert_eq!(counter(&handle, "jsn_protocol_errors_total"), errors_before + 1);
    assert_eq!(counter(&handle, "jsn_sessions_failed_total"), 1);
    assert_eq!(counter(&handle, "jsn_frames_applied_total"), 2, "frame 3 was never applied");

    handle.shutdown();
    join.join().unwrap().unwrap();
}
