//! One label grammar for the three filter choices: `jsn run --config`, a
//! served session's hello, and `jsn check --filter` accept exactly the
//! same preset labels (`FilterPreset::parse`) and reject garbage with the
//! same message.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Output};
use std::time::Duration;

use just_say_no::mnm_core::FilterPreset;
use just_say_no::mnm_serve::protocol::{encode_hello, STATUS_OK, STATUS_REJECTED};
use just_say_no::mnm_serve::server::{Endpoint, Server, ServerConfig};

/// `(label, canonical label)`: case only matters for MNM labels.
const ACCEPTED: [(&str, &str); 7] = [
    ("baseline", "Baseline"),
    ("Baseline", "Baseline"),
    ("BASELINE", "Baseline"),
    ("perfect", "Perfect"),
    ("PERFECT", "Perfect"),
    ("HMNM4", "HMNM4"),
    ("TMNM_12x3", "TMNM_12x3"),
];

const GARBAGE: [&str; 3] = ["XMNM_1", "baseline2", "hmnm4"];

fn jsn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jsn")).args(args).output().expect("jsn runs")
}

fn jsn_run(label: &str) -> Output {
    jsn(&["run", "164.gzip", "--config", label, "-n", "3000"])
}

fn jsn_check(label: &str) -> Output {
    jsn(&["check", "--filter", label, "--gen", "aliasing", "--seeds", "1", "--len", "300"])
}

/// Send a hello for `label`; returns the reply's status and detail text.
fn hello(endpoint: &Endpoint, label: &str) -> (u8, String) {
    let Endpoint::Tcp(addr) = endpoint else { panic!("expected tcp endpoint") };
    let mut s = TcpStream::connect(addr.as_str()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&encode_hello(label, 0)).unwrap();
    // magic (4) | version (2) | status (1) | detail_len (2) | detail
    let mut fixed = [0u8; 9];
    s.read_exact(&mut fixed).expect("hello reply");
    let mut detail = vec![0u8; u16::from_le_bytes([fixed[7], fixed[8]]) as usize];
    s.read_exact(&mut detail).expect("hello detail");
    (fixed[6], String::from_utf8_lossy(&detail).into_owned())
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn every_entry_point_accepts_and_rejects_the_same_labels() {
    let server =
        Server::bind(Endpoint::Tcp("127.0.0.1:0".to_owned()), ServerConfig::default()).unwrap();
    let endpoint = server.local_endpoint();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    for (label, canonical) in ACCEPTED {
        assert_eq!(FilterPreset::parse(label).unwrap().label(), canonical, "{label}");

        let run = jsn_run(label);
        assert!(run.status.success(), "jsn run --config {label}: {}", stderr(&run));
        let text = String::from_utf8_lossy(&run.stdout);
        assert!(text.contains(&format!("config: {canonical} ")), "{label}: {text}");
        // Spellings of one preset produce the identical run.
        assert_eq!(run.stdout, jsn_run(canonical).stdout, "{label} vs {canonical}");

        let (status, detail) = hello(&endpoint, label);
        assert_eq!(status, STATUS_OK, "serve hello {label}: {detail}");

        let check = jsn_check(label);
        assert!(check.status.success(), "jsn check --filter {label}: {}", stderr(&check));
    }

    for label in GARBAGE {
        let message = FilterPreset::parse(label).unwrap_err();
        assert!(message.starts_with("unrecognized filter preset") && message.contains(label));

        let run = jsn_run(label);
        assert!(!run.status.success(), "jsn run accepted {label}");
        assert!(stderr(&run).contains(&message), "{label}: {}", stderr(&run));

        let (status, detail) = hello(&endpoint, label);
        assert_eq!(status, STATUS_REJECTED, "serve accepted {label}");
        assert!(detail.contains(&message), "{label}: {detail}");

        let check = jsn_check(label);
        assert!(!check.status.success(), "jsn check accepted {label}");
        assert!(stderr(&check).contains(&message), "{label}: {}", stderr(&check));
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}
