//! Pins the generator's output to recorded digests.
//!
//! Every simulated number starts from these streams, so a change to
//! `Program::step`, a region model or `Prng` that moves a single
//! instruction must fail here, not only downstream in the golden
//! results. Each digest folds the first 100 000 instructions of one
//! stream: pc, kind, address / mispredict flag / latency, and both
//! dependence distances. On a mismatch the test prints the new table,
//! which is only to be pasted in when the streams are meant to change.

use trace_synth::rng::splitmix64;
use trace_synth::sharing::{sharded_programs, SharingSpec};
use trace_synth::{profiles, Instr, InstrKind, Program};

const PREFIX: usize = 100_000;

/// One digest per profile, in `profiles::all()` order.
const PROFILE_DIGESTS: [(&str, u64); 20] = [
    ("164.gzip", 0x2ffaeafccbdedb3a),
    ("175.vpr", 0x7061b348eb56980b),
    ("176.gcc", 0x8547319c5b34576b),
    ("181.mcf", 0x47f756ed9ef68db8),
    ("186.crafty", 0x883927f6a7f16183),
    ("197.parser", 0x00da526536241fc7),
    ("253.perlbmk", 0x162cc358b669f917),
    ("255.vortex", 0x9cf945cdbfcd9210),
    ("256.bzip2", 0x70bf188d22da3284),
    ("300.twolf", 0x438c7d2543f34db1),
    ("168.wupwise", 0xbfe1a1bdb6ed3484),
    ("171.swim", 0x485a3220feb3f3c3),
    ("172.mgrid", 0xf32f3409322a8cca),
    ("173.applu", 0xd71fbc2f47913603),
    ("177.mesa", 0x5e1e287b55c51ba6),
    ("179.art", 0x9c71426ed84ed3de),
    ("183.equake", 0x67cf0426f3e6a7ac),
    ("188.ammp", 0x2e85f2a9b6e7611d),
    ("189.lucas", 0x3756757b4cad72b1),
    ("301.apsi", 0x2a1007221be60057),
];

/// Both cores of 181.mcf under [`shard_spec`].
const SHARDED_DIGESTS: [u64; 2] = [0xd4f748937fa1e2d7, 0xf3ea09474b0495d1];

fn shard_spec() -> SharingSpec {
    SharingSpec { sharing_ratio: 0.25, seed: 1, ..SharingSpec::new(2) }
}

fn digest(instrs: impl Iterator<Item = Instr>) -> u64 {
    instrs.take(PREFIX).fold(0, |h, i| {
        let (tag, payload) = match i.kind {
            InstrKind::Op { latency } => (0, u64::from(latency)),
            InstrKind::Load { addr } => (1, addr),
            InstrKind::Store { addr } => (2, addr),
            InstrKind::Branch { mispredicted } => (3, u64::from(mispredicted)),
        };
        let deps = u64::from(i.src1) | u64::from(i.src2) << 8;
        [i.pc, tag, payload, deps].into_iter().fold(h, |h, w| splitmix64(h ^ w))
    })
}

#[test]
fn every_profile_stream_matches_its_recorded_digest() {
    let got: Vec<(String, u64)> =
        profiles::all().into_iter().map(|p| (p.name.clone(), digest(Program::new(p)))).collect();
    let want: Vec<(String, u64)> =
        PROFILE_DIGESTS.iter().map(|&(name, d)| (name.to_owned(), d)).collect();
    if got != want {
        let table: String =
            got.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
        panic!("generator streams moved; new PROFILE_DIGESTS:\n{table}");
    }
}

#[test]
fn sharded_mcf_streams_match_their_recorded_digests() {
    let profile = profiles::by_name("181.mcf").expect("bundled profile");
    let got: Vec<u64> = sharded_programs(&profile, &shard_spec()).into_iter().map(digest).collect();
    assert_eq!(got, SHARDED_DIGESTS, "sharded streams moved; new SHARDED_DIGESTS: {got:#018x?}");
}
