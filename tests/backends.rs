//! Backend parity suite for the `SimBackend` seam:
//!
//! * the behavioural backend must reproduce the PR-1 pipeline executor's
//!   determinism results exactly (the seam adds dispatch, never
//!   behaviour),
//! * the netlist backend must reproduce the Figure 2 CellIFT-vs-diffIFT
//!   taint split (unit-tested in `crates/rtl/src/examples.rs` against the
//!   raw circuit) through the *full `phase2` path*, and complete
//!   campaigns end-to-end with nonzero taint coverage,
//! * a misconfigured backend or a netlist with dangling references must
//!   fail its runs, not the campaign.

use dejavuzz::backend::{BackendError, BackendSpec, NetlistBackend, NetlistIo, SimBackend};
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::executor;
use dejavuzz::gen::{self, WindowFill, WindowType};
use dejavuzz::phases::{phase1, phase2, PhaseOptions};
use dejavuzz::Seed;
use dejavuzz_ift::{CoverageMatrix, IftMode};
use dejavuzz_rtl::examples::{synthetic_core, SMALL_SCALE};
use dejavuzz_rtl::{CellKind, NetlistError};
use dejavuzz_uarch::boom_small;

/// (a) The explicit behavioural spec and the historical
/// `CoreConfig`-positional entry points are the same campaign, bit for
/// bit: bugs, exact coverage curve, per-worker observations, corpus.
#[test]
fn behavioural_backend_reproduces_pipeline_determinism() {
    let legacy = executor::run(
        BackendSpec::behavioural(boom_small()),
        FuzzerOptions::default(),
        2,
        20,
        0xD15C0,
    );
    let spec = executor::run(
        BackendSpec::behavioural(boom_small()),
        FuzzerOptions::default(),
        2,
        20,
        0xD15C0,
    );
    assert_eq!(legacy.stats.bugs, spec.stats.bugs);
    assert_eq!(legacy.stats.coverage_curve, spec.stats.coverage_curve);
    assert_eq!(legacy.stats.sim_runs, spec.stats.sim_runs);
    assert_eq!(legacy.stats.sim_cycles, spec.stats.sim_cycles);
    assert_eq!(legacy.stats.failed_runs, 0);
    assert_eq!(spec.stats.failed_runs, 0);
    assert_eq!(
        legacy.coverage.sorted_points(),
        spec.coverage.sorted_points()
    );
    assert_eq!(legacy.corpus_retained, spec.corpus_retained);
    for (a, b) in legacy.workers.iter().zip(&spec.workers) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.observed.sorted_points(), b.observed.sorted_points());
    }
}

/// (b) Figure 2 through the full phase-2 path: on the RoB-entry circuit a
/// rollback with tainted-but-equal control signals taints *every* entry
/// field register under CellIFT and stays bounded under diffIFT.
#[test]
fn netlist_rob_entry_reproduces_figure2_split_through_phase2() {
    const ENTRIES: usize = 16;
    let mut peaks = Vec::new();
    for mode in [IftMode::CellIft, IftMode::DiffIft] {
        let mut backend = NetlistBackend::rob_entry(ENTRIES);
        let opts = PhaseOptions {
            mode,
            ..PhaseOptions::default()
        };
        // Page-fault windows need no training, so phase 1 triggers on the
        // first seed and phase 2 runs the real taint-mode simulation.
        let seed = Seed::new(WindowType::MemPageFault, 4);
        let p1 = phase1(&mut backend, &seed, &opts).unwrap();
        assert!(p1.triggered, "{mode:?}: page-fault window must trigger");
        let mut cov = CoverageMatrix::new();
        let p2 = phase2(&mut backend, &seed, &p1, &mut cov, &opts).unwrap();
        assert!(
            p2.taints_increased,
            "{mode:?}: the secret enters inside the window"
        );
        assert!(p2.coverage_gain > 0, "{mode:?}: fresh coverage");
        peaks.push(p2.run.taint_log.peak_taint());
    }
    let (cellift, diffift) = (peaks[0], peaks[1]);
    assert_eq!(
        cellift, ENTRIES,
        "CellIFT: all RoB entry field registers suddenly tainted on rollback"
    );
    assert!(
        diffift <= 2,
        "diffIFT must not explode through phase 2: {diffift} tainted"
    );
    assert!(diffift >= 1, "the secret uopc stays tainted");
}

/// The acceptance campaign: `netlist:small` completes end-to-end on the
/// pooled executor with nonzero taint coverage through the shared
/// `TaintCoverage` sink, and stays deterministic per (seed, workers).
#[test]
fn netlist_backend_campaign_end_to_end() {
    let spec = BackendSpec::netlist(SMALL_SCALE);
    let a = executor::run(spec.clone(), FuzzerOptions::default(), 2, 16, 11);
    assert_eq!(a.stats.iterations, 16);
    assert_eq!(a.stats.failed_runs, 0);
    assert!(
        a.stats.coverage() > 0,
        "netlist campaign must report taint coverage"
    );
    assert_eq!(
        a.stats.coverage(),
        a.coverage.points(),
        "curve tail equals the exact union"
    );
    assert!(
        a.stats.windows.values().any(|w| w.triggered > 0),
        "windows trigger on the netlist backend"
    );

    let b = executor::run(spec, FuzzerOptions::default(), 2, 16, 11);
    assert_eq!(a.stats.coverage_curve, b.stats.coverage_curve);
    assert_eq!(a.stats.bugs, b.stats.bugs);
}

/// A misconfigured backend (I/O mapped onto missing input ports) fails
/// every run but never the campaign: iterations complete, errors are
/// counted, nothing panics.
#[test]
fn misconfigured_backend_fails_runs_not_the_campaign() {
    let stats = CampaignBuilder::new()
        .backend_ctor("broken-netlist-io", || {
            Box::new(NetlistBackend::new(
                "broken",
                synthetic_core(SMALL_SCALE),
                NetlistIo {
                    data: 640,
                    control: 2,
                    index: 3,
                    aux: vec![],
                },
            ))
        })
        .workers(1)
        .seed(3)
        .build()
        .expect("a registered backend builds")
        .run(6)
        .stats;
    assert_eq!(stats.iterations, 6, "the campaign keeps running");
    assert_eq!(stats.failed_runs, 6, "every run failed cleanly");
    assert!(stats.bugs.is_empty());
    assert_eq!(stats.coverage(), 0);
}

/// A netlist with a reference that does not resolve fails every run with
/// `InvalidNetlist` naming the fault — whether a combinational operand,
/// a register connection or a memory write port dangles — instead of
/// panicking in validation or at the first clock edge.
#[test]
fn hostile_netlists_fail_runs_instead_of_panicking() {
    let seed = Seed::new(WindowType::MemPageFault, 1);
    let plan = gen::plan(&seed);
    let schedule = vec![gen::build_transient(&plan, &WindowFill::Dummy)];
    let good = synthetic_core(SMALL_SCALE);
    let len = good.cell_count();
    let comb = (0..len)
        .find(|&i| matches!(good.cells[i].kind, CellKind::And(..)))
        .unwrap();
    let reg = (0..len)
        .find(|&i| good.cells[i].kind.is_sequential())
        .unwrap();

    let mut dangling_operand = good.clone();
    dangling_operand.cells[comb].kind = CellKind::And(0, len + 5);
    let mut dangling_register = good.clone();
    dangling_register.cells[reg].kind = CellKind::Reg {
        d: Some(len),
        en: None,
        init: 0,
    };
    let mut dangling_write_port = good.clone();
    dangling_write_port.mems[0].write_port = Some((len, 0, 0));

    for (netlist, fault) in [
        (dangling_operand, NetlistError::Cell(comb)),
        (dangling_register, NetlistError::Cell(reg)),
        (dangling_write_port, NetlistError::Mem(0)),
    ] {
        let io = NetlistIo {
            data: 4,
            control: 2,
            index: 3,
            aux: vec![0, 1],
        };
        let mut backend = NetlistBackend::new("hostile", netlist, io);
        for mode in IftMode::ALL {
            let err = backend.run(&plan, &schedule, mode, 256).unwrap_err();
            assert_eq!(err, BackendError::InvalidNetlist(fault));
        }
    }
}

/// Capability flags of the in-tree backends.
#[test]
fn backend_capability_flags() {
    let behavioural = BackendSpec::behavioural(boom_small()).build();
    assert_eq!(behavioural.name(), "behavioural");
    assert_eq!(behavioural.dut_name(), "BOOM");
    assert!(behavioural.supports_taint());

    let netlist = BackendSpec::netlist(SMALL_SCALE).build();
    assert_eq!(netlist.name(), "netlist");
    assert_eq!(netlist.dut_name(), "SynthSmall");
    assert!(netlist.supports_taint());
}
