//! Golden digests of the netlist backend, pinned across simulator
//! rewrites.
//!
//! `tests/golden.rs` pins the behavioural backend's campaign outputs;
//! this file does the same for the DIFT-instrumented netlist
//! interpreter, at two levels (FNV-1a, 64-bit):
//!
//! * a `netlist:small` campaign — the JSON-lines event stream, the final
//!   snapshot bytes and the coverage curve — for round robin and
//!   pipelined stealing at one and two workers;
//! * one [`RunOutcome`] per built-in window type on `netlist:boom`, in
//!   Base and diffIFT mode: its `Debug` rendering covers the synthesised
//!   trace, every per-cycle census of the taint log and the final sink
//!   sweep.
//!
//! On an intended output change the failing assertion prints the full
//! table of new digests.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use dejavuzz::backend::{BackendSpec, NetlistBackend, SimBackend};
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
use dejavuzz::observer::{CampaignObserver, JsonLinesObserver};
use dejavuzz::scheduler::SchedulerSpec;
use dejavuzz_ift::IftMode;
use dejavuzz_rtl::examples::{BOOM_SCALE, SMALL_SCALE};

/// Iterations every golden campaign runs.
const ITERS: usize = 20;

/// `(configuration, [events, snapshot, curve])` digests of the
/// `netlist:small` campaigns.
const GOLDEN_CAMPAIGNS: &[(&str, [u64; 3])] = &[
    (
        "round w1 lag0",
        [0x415abaebb6a8c171, 0x75fb6140b5275bd5, 0x382c498145c34b05],
    ),
    (
        "steal w1 lag1",
        [0x73c031ca429f8fff, 0x2bc34cdff1ad908b, 0xf58e769327d55925],
    ),
    (
        "round w2 lag0",
        [0x7f766677406ad71d, 0x2c5efec7ea44fa4e, 0x382c498145c34b05],
    ),
    (
        "steal w2 lag1",
        [0x43c7994358c6020b, 0xfad230b9b6fe6d9c, 0x2bd29c230f9ddd65],
    ),
];

/// `(window type/mode, outcome)` digests of single `netlist:boom` runs.
const GOLDEN_RUNS: &[(&str, u64)] = &[
    ("Load/Store Access Fault Base", 0x82a06657fd69d77b),
    ("Load/Store Access Fault diffIFT", 0xc878da2334dd74b8),
    ("Load/Store Page Fault Base", 0x39b83c6fa441deed),
    ("Load/Store Page Fault diffIFT", 0xce84781d8835b146),
    ("Load/Store Misalign Base", 0x095074ce03ad9ced),
    ("Load/Store Misalign diffIFT", 0xec1e899197bd2490),
    ("Illegal Instruction Base", 0x0ef70f4f511114e7),
    ("Illegal Instruction diffIFT", 0x3baf6d2c1101d854),
    ("Memory Disambiguation Base", 0xdd68354495e5617d),
    ("Memory Disambiguation diffIFT", 0x78aa2afd4efce4e1),
    ("Branch Misprediction Base", 0x4cc82cc6bc7a8804),
    ("Branch Misprediction diffIFT", 0x14ac325d6a383472),
    ("Indirect Jump Misprediction Base", 0xbb5c331c1dd81105),
    ("Indirect Jump Misprediction diffIFT", 0x4f0896fc077868fa),
    ("Return Address Misprediction Base", 0xf195c3fed8430c98),
    ("Return Address Misprediction diffIFT", 0x010eb143695d7f96),
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

fn campaign(scheduler: SchedulerSpec, workers: usize, lag: usize) -> (String, [u64; 3]) {
    let name = format!("{} w{workers} lag{lag}", scheduler.label());
    let events = Sink::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> =
        vec![Box::new(JsonLinesObserver::new(events.clone()))];
    let (report, snap) = CampaignBuilder::new()
        .backend(BackendSpec::netlist(SMALL_SCALE))
        .scheduler(scheduler)
        .workers(workers)
        .pipeline_lag(lag)
        .seed(0x601D)
        .build()
        .unwrap()
        .run_observed(ITERS, &mut observers);
    let json = events.0.lock().unwrap().clone();
    let curve: Vec<u8> = report
        .stats
        .coverage_curve
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .collect();
    (name, [fnv1a(&json), fnv1a(&snap.to_bytes()), fnv1a(&curve)])
}

#[test]
fn netlist_small_campaigns_match_the_recorded_digests() {
    let mut got = Vec::new();
    for workers in [1, 2] {
        got.push(campaign(SchedulerSpec::RoundRobin, workers, 0));
        got.push(campaign(SchedulerSpec::WorkStealing, workers, 1));
    }
    let table: String = got
        .iter()
        .map(|(name, [e, s, c])| format!("    (\"{name}\", [{e:#018x}, {s:#018x}, {c:#018x}]),\n"))
        .collect();
    let expected: Vec<(String, [u64; 3])> = GOLDEN_CAMPAIGNS
        .iter()
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert_eq!(
        got, expected,
        "netlist:small campaign outputs changed; the current digests are:\n{table}"
    );
}

#[test]
fn netlist_boom_runs_match_the_recorded_digests() {
    let mut backend = NetlistBackend::synthetic(BOOM_SCALE);
    let mut got = Vec::new();
    for (i, &window) in WindowType::ALL.iter().enumerate() {
        // Derived trainings plus the full window body: every window type
        // triggers, so each run reaches the secret injection, the
        // rollback cycle and a non-empty sink sweep.
        let seed = Seed::new(window, 0x601D + i as u64);
        let plan = gen::plan(&seed);
        let mut schedule = gen::derive_trainings(&seed, &plan, 1);
        let body = gen::complete_window(&seed, &plan).full();
        schedule.push(gen::build_transient(&plan, &WindowFill::Body(body)));
        for mode in [IftMode::Base, IftMode::DiffIft] {
            let outcome = backend.run(&plan, &schedule, mode, 4096).unwrap();
            assert!(outcome.window().is_some(), "{window:?} triggers");
            if mode == IftMode::DiffIft {
                assert!(!outcome.taint_log.is_empty() && !outcome.sinks.is_empty());
            }
            let name = format!("{} {}", window.name(), mode.name());
            got.push((name, fnv1a(format!("{outcome:?}").as_bytes())));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN_RUNS
        .iter()
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert_eq!(
        got, expected,
        "netlist:boom run outcomes changed; the current digests are:\n{table}"
    );
}
