//! Pins the first 256 outcomes of every seeded fault stream — kernel,
//! shootdown delivery, network chaos and storage — at two configs, one
//! of them windowed. Every injection decision and every extra draw a
//! hit consumes shows up in the outcome strings, so a change to any
//! stream's seed, draw order or kind selection fails here, and with it
//! the replay guarantee `BENCH_pressure`, `BENCH_chaos` and
//! `BENCH_torture` rest on.

use colt_core::io_faults::{IoFaultKind, IoFaultPlan, StorageStream};
use colt_core::serve::chaos::{ChaosPlan, ChaosStream, ResponseFault};
use colt_os_mem::faults::{DeliveryFault, FaultConfig, FaultPlan, KernelFault};

const DECISIONS: usize = 256;

const CONFIGS: [FaultConfig; 2] = [
    FaultConfig { rate: 0.3, window: 0, seed: 11 },
    FaultConfig { rate: 0.5, window: 7, seed: 0xC017 },
];

fn flag(fired: bool, token: &str) -> String {
    if fired { token } else { "." }.to_string()
}

/// The kernel stream: allocation, compaction and reclaim decisions.
fn kernel(cfg: FaultConfig) -> String {
    let mut plan = FaultPlan::<KernelFault>::new(cfg);
    (0..DECISIONS)
        .map(|i| match i % 3 {
            0 => flag(plan.fail_alloc(), "a"),
            1 => flag(plan.abort_compaction(), "c"),
            _ => plan.reclaim_spike().map_or_else(|| ".".to_string(), |n| format!("r{n}")),
        })
        .collect()
}

/// The shootdown-delivery stream the checker owns.
fn delivery(cfg: FaultConfig) -> String {
    let mut plan = FaultPlan::<DeliveryFault>::new(cfg);
    (0..DECISIONS)
        .map(|_| {
            match plan.delivery_fault() {
                None => ".",
                Some(DeliveryFault::Drop) => "d",
                Some(DeliveryFault::Duplicate) => "D",
            }
            .to_string()
        })
        .collect()
}

/// The network-chaos stream: response writes (with the tear position a
/// torn frame draws) alternating with accepts.
fn chaos(cfg: FaultConfig) -> String {
    let mut plan = ChaosPlan::new(cfg);
    (0..DECISIONS)
        .map(|i| {
            if i % 2 == 1 {
                return flag(plan.accept_hiccup(), "h");
            }
            match plan.response_fault() {
                ResponseFault::Deliver => ".".to_string(),
                ResponseFault::TornFrame => format!("t{}", plan.tear_at(64)),
                ResponseFault::Reset => "x".to_string(),
                ResponseFault::Stall(pause) => format!("s{}", pause.as_millis()),
            }
        })
        .collect()
}

/// The storage stream: write, read, fsync and rename decisions, with the
/// extra draw a torn write or a bit flip takes.
fn storage(cfg: FaultConfig) -> String {
    let mut plan = IoFaultPlan::new(cfg);
    (0..DECISIONS)
        .map(|i| {
            let kind = match i % 4 {
                0 => plan.write_fault(),
                1 => plan.read_fault(64),
                2 => plan.sync_fault(),
                _ => plan.rename_fault().then_some(IoFaultKind::RenameFail),
            };
            match kind {
                None => ".".to_string(),
                Some(IoFaultKind::Enospc) => "E".to_string(),
                Some(IoFaultKind::ShortWrite) => format!("W{}", plan.extra() % 64),
                Some(IoFaultKind::ReadEio) => "R".to_string(),
                Some(IoFaultKind::BitFlip) => format!("F{}", plan.extra() % 512),
                Some(IoFaultKind::SyncFail) => "S".to_string(),
                Some(IoFaultKind::SyncLie) => "L".to_string(),
                Some(IoFaultKind::RenameFail) => "N".to_string(),
                Some(IoFaultKind::PostCut) => "P".to_string(),
            }
        })
        .collect()
}

const KERNEL: [&str; 2] = [
    "....c.ac......r27a...c.......ac.a..a.r41a.r30.c..cr24.........ac\
     ..c.....c...............r60......a.......r54.c....a.r57....cr27a\
     c.ac.......acr35a..a.r17a.r31.c.ac...r16a..acr28a............cr5\
     5...a.....a...c...r60..r53..r62.cr60a..a.r37.cr49a......c.......\
     .cr41ac....a........a.r26..r51acr28..r26.c......r61a",
    ".c..c..........a.r34.c........cr53acr34.........a.r56..r42......\
     .......cr26.......cr38ac.ac.......ac..c.a.......r37.c.a.........\
     cr23.cr30.c.......acr31...a........ac...r61.......c..c.ac.......\
     acr25acr62a........acr59...........r57.cr23a........a.r64a......\
     .......r24ac.............a..........r53.",
];

const DELIVERY: [&str; 2] = [
    "D..d....D.......d..dd.d.D..DdD.......D..d.d.....d........d.d..d.\
     ....D....D....d.D.ddDD.....d........ddD.d..d..DD.d..dd.d........\
     ......d...d....d...dd..D.ddd..DD........D.D...d..dD.d......DD...\
     .Dd..D..d........D...DDDdD......D....D....d........ddd...d.....D",
    "D.D..d.........ddD.D........DDDDdD........d..Dd...........DD.Dd.\
     ......DD.Dd.D........D.dd.d............D........DdD...d.........\
     .ddDd........dd...D.......dD.dD.D.........dd.DD.......d.........\
     ......DD.Dd.......D..D...........d.DD.d.......ddD.d..........ddd",
];

const CHAOS: [&str; 2] = [
    "t11ht37h.......hs92h..s12.......t42h.h.hx.....x......ht58hs17h.h\
     ....t24......hs27.t57h.......h.h...hx.x....h......t1.s44..ht56..\
     h.....h..s99...t23ht38........hx...s37h.h.......h......x....hx..\
     .t57.t6h..s63...xh..xh...ht37.......s33.......s65h.hxhx.x.s33..h\
     s23..h.......h.h...h.h........t18ht37.t40h....x...t5...",
    "...h...........h..t34h.........hxht40ht36.......t9..h..........s\
     16.t21ht30h.........hxhxh..........x..h........t47ht6.t50ht27...\
     .....h...h..........s11h..t26.......x.xhs24ht11.......t29.x...t1\
     8........hxh.h.........hxh.hx........h...h........t19hs43..h....\
     ....xh..xh.........hs39h.h........t63.s12h",
];

const STORAGE: [&str; 2] = [
    "W63..N.......N...........NER.....N...NW57......N.F153..W18.L.E.L\
     NE......N..SN.F20LNW55.L.....EF245.N...NEF80.........N..S...L.W2\
     7R.NW58.L.W46.S....N...N.....F83...F116...F221..E...E.SNW40F60L.\
     .R....LN.....F353.NW61R..EF342SN..LN..SN..S...L.....E.L..RLNEF44\
     6....S..F316.......RL..RL...LNW6F181LN...N.RSN.R..E.SN",
    "....W34F346..........E...........W10RSNW14.............SNE......\
     .......L........N.RLN.........R..EF426S.......SN..LN........ER..\
     W52F90.........N....W28........F488..W38R..........EF244.N......\
     ..W12RLNW47R........L...L.........W18R.NW35F130.........N..LN...\
     .......L.W45RS........NE..N..........L.",
];
#[test]
fn every_stream_replays_its_pinned_outcomes() {
    let streams: [(&str, fn(FaultConfig) -> String, [&str; 2]); 4] = [
        ("kernel", kernel, KERNEL),
        ("delivery", delivery, DELIVERY),
        ("chaos", chaos, CHAOS),
        ("storage", storage, STORAGE),
    ];
    for (name, stream, pinned) in streams {
        for (cfg, expected) in CONFIGS.into_iter().zip(pinned) {
            let actual = stream(cfg);
            assert_eq!(actual, expected, "{name} stream at {cfg:?} moved");
        }
    }
}
