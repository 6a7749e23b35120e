//! Golden digests of campaign outputs, pinned across executor refactors.
//!
//! The other determinism suites compare the code with itself (two runs,
//! two lags, two schedulers). These digests compare it with recorded
//! history instead: each configuration below hashes (FNV-1a, 64-bit)
//! three deterministic outputs of a behavioural-BOOM campaign —
//!
//! * the [`JsonLinesObserver`] event stream, byte for byte,
//! * the final [`CampaignSnapshot::to_bytes`] encoding (plus, where a
//!   run writes checkpoints, every checkpoint file),
//! * the exact per-iteration coverage curve of the report —
//!
//! and checks them against constants. A change to the orchestrator loop,
//! the commit path or the snapshot codec that perturbs any output of any
//! configuration fails here, with the full table of new digests printed
//! so an *intended* output change can be re-pinned deliberately.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::observer::{CampaignObserver, JsonLinesObserver};
use dejavuzz::scheduler::SchedulerSpec;
use dejavuzz::snapshot::CampaignSnapshot;
use dejavuzz_uarch::boom_small;

/// Iterations every golden campaign runs.
const ITERS: usize = 20;

/// `(configuration, [events, snapshot, curve])` digests. Every
/// `lag0` row is the barriered protocol; the `lag1` rows the cross-round
/// pipeline.
const GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "round w1 b1 lag0",
        [0x84849871d89841fb, 0x02d79980c36f3edc, 0x105061beee6a1725],
    ),
    (
        "round w1 b4 lag0",
        [0xc50ff2a6d5a24470, 0xd54c4aae1256fe1d, 0x30c18ecc1266960c],
    ),
    (
        "round w3 b1 lag0",
        [0x558f2e7a2935decc, 0xe00f1315f03f091a, 0x5eb0d21c5d3f8eba],
    ),
    (
        "round w3 b4 lag0",
        [0x1396ac914d6fad9d, 0x2a253d1e1be22e1a, 0x6da40fcf370dee4a],
    ),
    (
        "steal w1 b1 lag0",
        [0x84849871d89841fb, 0x092be1549c4845c1, 0x105061beee6a1725],
    ),
    (
        "steal w1 b4 lag0",
        [0xfd40aea9f9ac9bfe, 0xef93b1d207f2e7fc, 0x5c343748d45bec29],
    ),
    (
        "steal w3 b1 lag0",
        [0x558f2e7a2935decc, 0x73cc15b3fade751a, 0x5eb0d21c5d3f8eba],
    ),
    (
        "steal w3 b4 lag0",
        [0xad884af55d79ba47, 0x9b12abc3c8c59e53, 0x1faecc620bf68575],
    ),
    (
        "steal w2 b4 lag1",
        [0xb19e5cf11d1c254c, 0x65f0addaee6855fd, 0x37b33aa6702b2ad3],
    ),
    (
        "steal w3 b4 lag1",
        [0x790595d6737ffae7, 0x50f8a1f5a3d6cc62, 0x4eb319d2bfc57450],
    ),
    (
        "round w2 lag0 halt5+resume",
        [0x23f24cc6ff89e1c2, 0x8aeb9e453698ad92, 0xba13e07d7ae6be65],
    ),
    (
        "steal w2 lag1 halt5+resume",
        [0x10a4871e908fc601, 0xdb947a0421990925, 0x37b33aa6702b2ad3],
    ),
    (
        "steal w2 lag1 snapshot_every1",
        [0x84f58b14d6326b53, 0x46b11046913663c0, 0x37b33aa6702b2ad3],
    ),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn curve_bytes(report: &ExecutorReport) -> Vec<u8> {
    report
        .stats
        .coverage_curve
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .collect()
}

/// A `Write` sink shared between the boxed observer and the test.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one campaign of [`ITERS`], appending its JSON-lines stream to
/// `events`.
fn run(builder: CampaignBuilder, events: &Sink) -> (ExecutorReport, CampaignSnapshot) {
    let mut observers: Vec<Box<dyn CampaignObserver>> =
        vec![Box::new(JsonLinesObserver::new(events.clone()))];
    builder.build().unwrap().run_observed(ITERS, &mut observers)
}

fn campaign(scheduler: SchedulerSpec, workers: usize, batch: usize, lag: usize) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .scheduler(scheduler)
        .workers(workers)
        .batch(batch)
        .pipeline_lag(lag)
        .seed(0x601D)
}

/// An uninterrupted campaign.
fn plain(scheduler: SchedulerSpec, workers: usize, batch: usize, lag: usize) -> (String, [u64; 3]) {
    let name = format!("{} w{workers} b{batch} lag{lag}", scheduler.label());
    let events = Sink::default();
    let (report, snap) = run(campaign(scheduler, workers, batch, lag), &events);
    let json = events.0.lock().unwrap().clone();
    (
        name,
        [
            fnv1a(&json),
            fnv1a(&snap.to_bytes()),
            fnv1a(&curve_bytes(&report)),
        ],
    )
}

/// A campaign halted after `halt` iterations (at the next round
/// boundary) and resumed from the wire-encoded snapshot: the events are
/// both runs' streams concatenated, the snapshot digest covers the
/// halted and the final snapshot.
fn split(scheduler: SchedulerSpec, workers: usize, lag: usize, halt: usize) -> (String, [u64; 3]) {
    let name = format!(
        "{} w{workers} lag{lag} halt{halt}+resume",
        scheduler.label()
    );
    let base = campaign(scheduler, workers, 4, lag);
    let events = Sink::default();
    let (_, halted) = run(base.clone().halt_after(halt), &events);
    let halted_bytes = halted.to_bytes();
    let resumed = base.resume(CampaignSnapshot::from_bytes(&halted_bytes).unwrap());
    let (report, snap) = run(resumed, &events);
    let json = events.0.lock().unwrap().clone();
    let mut snaps = halted_bytes;
    snaps.extend(snap.to_bytes());
    (
        name,
        [fnv1a(&json), fnv1a(&snaps), fnv1a(&curve_bytes(&report))],
    )
}

/// A pipelined campaign checkpointing every round into rotated files:
/// the snapshot digest covers every checkpoint file (each carries the
/// in-flight round), and the checkpoint path is normalised out of the
/// event stream.
fn checkpointed(dir: &Path) -> (String, [u64; 3]) {
    let name = "steal w2 lag1 snapshot_every1".to_string();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("golden.snap");
    let events = Sink::default();
    let builder = campaign(SchedulerSpec::WorkStealing, 2, 4, 1)
        .snapshot_path(&path)
        .snapshot_every(1)
        .snapshot_keep(64);
    let (report, _) = run(builder, &events);
    let json = String::from_utf8(events.0.lock().unwrap().clone()).unwrap();
    let json = json.replace(&path.display().to_string(), "<snapshot>");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort_by_key(|p| {
        let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
        ext.parse::<usize>().unwrap_or(usize::MAX)
    });
    let mut snaps = Vec::new();
    for f in &files {
        snaps.extend(std::fs::read(f).unwrap());
    }
    let _ = std::fs::remove_dir_all(dir);
    (
        name,
        [
            fnv1a(json.as_bytes()),
            fnv1a(&snaps),
            fnv1a(&curve_bytes(&report)),
        ],
    )
}

#[test]
fn outputs_match_the_recorded_digests() {
    let mut got = Vec::new();
    for scheduler in [SchedulerSpec::RoundRobin, SchedulerSpec::WorkStealing] {
        for workers in [1, 3] {
            for batch in [1, 4] {
                got.push(plain(scheduler.clone(), workers, batch, 0));
            }
        }
    }
    for workers in [2, 3] {
        got.push(plain(SchedulerSpec::WorkStealing, workers, 4, 1));
    }
    got.push(split(SchedulerSpec::RoundRobin, 2, 0, 5));
    got.push(split(SchedulerSpec::WorkStealing, 2, 1, 5));
    got.push(checkpointed(
        &Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-checkpoints"),
    ));

    let table: String = got
        .iter()
        .map(|(name, [e, s, c])| format!("    (\"{name}\", [{e:#018x}, {s:#018x}, {c:#018x}]),\n"))
        .collect();
    let expected: Vec<(String, [u64; 3])> = GOLDEN
        .iter()
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert_eq!(
        got, expected,
        "campaign outputs changed; the current digests are:\n{table}"
    );
}
