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
//!   fail its runs, not the campaign,
//! * a netlist backend that skips work — unread outputs, or a prefix it
//!   resumes from its window-entry checkpoint — must return exactly what
//!   a fresh backend simulating from reset returns, and must resume only
//!   when the whole checkpoint key matches.

use dejavuzz::backend::{
    BackendError, BackendSpec, NetlistBackend, NetlistIo, RunDemand, RunOutcome, SimBackend,
};
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::executor;
use dejavuzz::gen::{self, TransientPlan, WindowFill, WindowType};
use dejavuzz::phases::{phase1, phase2, phase3, PhaseOptions};
use dejavuzz::Seed;
use dejavuzz_ift::{CoverageMatrix, IftMode};
use dejavuzz_isa::instr::Instr;
use dejavuzz_rtl::examples::{synthetic_core, BOOM_SCALE, SMALL_SCALE};
use dejavuzz_rtl::{CellKind, NetlistError};
use dejavuzz_swapmem::SwapPacket;
use dejavuzz_uarch::boom_small;
use dejavuzz_uarch::trace::RobEvent;
use proptest::prelude::*;

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

/// One request a phase made of the backend, with what came back.
#[derive(Clone, Debug)]
struct Request {
    plan: TransientPlan,
    schedule: Vec<SwapPacket>,
    mode: IftMode,
    max_cycles: u64,
    demand: RunDemand,
    outcome: RunOutcome,
}

impl Request {
    fn replay(&self, backend: &mut NetlistBackend, demand: RunDemand) -> RunOutcome {
        backend
            .run_demand(
                &self.plan,
                &self.schedule,
                self.mode,
                self.max_cycles,
                demand,
            )
            .unwrap()
    }
}

/// Records every request the phases make of a (warm) backend.
#[derive(Debug)]
struct Recording<'a> {
    inner: &'a mut NetlistBackend,
    requests: Vec<Request>,
}

impl SimBackend for Recording<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dut_name(&self) -> &'static str {
        self.inner.dut_name()
    }
    fn supports_taint(&self) -> bool {
        self.inner.supports_taint()
    }
    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        self.run_demand(plan, schedule, mode, max_cycles, RunDemand::ALL)
    }
    fn run_demand(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
        demand: RunDemand,
    ) -> Result<RunOutcome, BackendError> {
        let outcome = self
            .inner
            .run_demand(plan, schedule, mode, max_cycles, demand)?;
        self.requests.push(Request {
            plan: plan.clone(),
            schedule: schedule.to_vec(),
            mode,
            max_cycles,
            demand,
            outcome: outcome.clone(),
        });
        Ok(outcome)
    }
}

/// Asserts the always-filled fields and the fields `demand` names agree.
fn assert_demanded_eq(got: &RunOutcome, want: &RunOutcome, demand: RunDemand, what: &str) {
    assert_eq!(got.total_cycles, want.total_cycles, "{what}: total_cycles");
    assert_eq!(got.packets_run, want.packets_run, "{what}: packets_run");
    assert_eq!(got.trace.events(), want.trace.events(), "{what}: trace");
    assert_eq!(got.timing_events, want.timing_events, "{what}: timing");
    if demand.taint_log {
        let censuses = |o: &RunOutcome| {
            o.taint_log
                .iter()
                .map(|(_, c)| c.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(censuses(got), censuses(want), "{what}: taint log");
    }
    if demand.sinks {
        assert_eq!(got.sinks, want.sinks, "{what}: sinks");
    }
}

/// Runs one seed the way the executor's slot does — phase 1, then phase 2
/// with `attempts` mutations, then phase 3 on the last attempt — on
/// `warm`, and returns every request it made. `None` if the window never
/// triggers.
fn warm_slot(
    warm: &mut NetlistBackend,
    seed: &Seed,
    mode: IftMode,
    attempts: usize,
) -> Option<Vec<Request>> {
    let opts = PhaseOptions {
        mode,
        ..PhaseOptions::default()
    };
    let mut rec = Recording {
        inner: warm,
        requests: Vec::new(),
    };
    let p1 = phase1(&mut rec, seed, &opts).unwrap();
    if !p1.triggered {
        return None;
    }
    let mut cov = CoverageMatrix::new();
    let mut seed = seed.clone();
    let mut p2 = phase2(&mut rec, &seed, &p1, &mut cov, &opts).unwrap();
    for _ in 0..attempts {
        seed = seed.mutate();
        p2 = phase2(&mut rec, &seed, &p1, &mut cov, &opts).unwrap();
    }
    phase3(&mut rec, &p1, &p2, 0, &opts).unwrap();
    Some(rec.requests)
}

/// Every outcome of a warm backend equals a fresh backend's for the same
/// request and demand, field by field, and its demanded fields equal a
/// fresh full run's. Returns how many requests simulated.
fn check_slot(proto: &NetlistBackend, seed: &Seed, mode: IftMode, attempts: usize) -> usize {
    let mut warm = proto.clone();
    let Some(requests) = warm_slot(&mut warm, seed, mode, attempts) else {
        return 0;
    };
    let simulated = requests
        .iter()
        .filter(|r| r.demand.sinks || (r.demand.taint_log && r.mode != IftMode::Base))
        .count();
    // Phase 1 needs no simulation; the first phase-2 attempt starts from
    // reset, and every later attempt and phase 3 resume at the window.
    assert_eq!(
        warm.checkpoint_counts(),
        (simulated as u64 - 1, 1),
        "{seed:?} {mode:?}: (hits, misses)"
    );
    for (i, r) in requests.iter().enumerate() {
        let what = format!("{seed:?} {mode:?} request {i} ({:?})", r.demand);
        let fresh = r.replay(&mut proto.clone(), r.demand);
        assert_demanded_eq(&r.outcome, &fresh, RunDemand::ALL, &what);
        let full = r.replay(&mut proto.clone(), RunDemand::ALL);
        assert_demanded_eq(&r.outcome, &full, r.demand, &format!("{what} vs ALL"));
    }
    // Every demand, not only the three the phases make, returns its fields
    // as a full run does: from reset, and resumed from the warm
    // backend's checkpoint.
    let p2 = requests
        .iter()
        .find(|r| r.demand == RunDemand::ALL)
        .expect("phase 2 ran");
    for bits in 0..4 {
        let demand = RunDemand {
            taint_log: bits & 1 != 0,
            sinks: bits & 2 != 0,
        };
        for (from, backend) in [("fresh", proto), ("warm", &warm)] {
            let got = p2.replay(&mut backend.clone(), demand);
            let what = format!("{seed:?} {mode:?} {from} {demand:?}");
            assert_demanded_eq(&got, &p2.outcome, demand, &what);
        }
    }
    simulated
}

/// Flips one bit of an instruction word, never into a `nop` (which the
/// stimulus protocol would compress away outside the window).
fn perturb(word: u32) -> u32 {
    let nop = dejavuzz_isa::encode(Instr::NOP);
    [7, 8, 15]
        .into_iter()
        .map(|bit| word ^ (1 << bit))
        .find(|&w| w != nop)
        .unwrap()
}

/// Runs `variant` of a warm backend's last request on a copy of the warm
/// backend, asserting whether it resumed and that it returns what a fresh
/// backend does.
fn check_variant(
    warm: &NetlistBackend,
    proto: &NetlistBackend,
    variant: &Request,
    hit: bool,
    what: &str,
) {
    let mut backend = warm.clone();
    let (hits, misses) = backend.checkpoint_counts();
    let got = variant.replay(&mut backend, variant.demand);
    let want = (hits + u64::from(hit), misses + u64::from(!hit));
    assert_eq!(backend.checkpoint_counts(), want, "{what}: (hits, misses)");
    let fresh = variant.replay(&mut proto.clone(), variant.demand);
    assert_demanded_eq(&got, &fresh, RunDemand::ALL, what);
}

/// A run that differs from the saved key in exactly one part — the mode,
/// `max_cycles` (above the window entry, and below it so the run ends
/// before the window), one prologue word or one training packet — misses,
/// and returns what a fresh backend returns. The
/// variants demand the sinks only, so the census prefix the checkpoint
/// holds never decides a hit: only the key does. Returns whether a
/// prologue word and a training packet could be varied.
fn check_key_parts(proto: &NetlistBackend, seed: &Seed, mode: IftMode) -> (bool, bool) {
    let mut warm = proto.clone();
    let Some(requests) = warm_slot(&mut warm, seed, mode, 0) else {
        return (false, false);
    };
    // The last request (phase 3's sanitised run) resumed from the
    // checkpoint phase 2 saved; the key is that run's prefix.
    let last = requests.last().unwrap();
    let base = Request {
        demand: RunDemand::SINKS,
        outcome: RunOutcome::default(),
        ..last.clone()
    };
    let what = format!("{seed:?} {mode:?}");
    check_variant(&warm, proto, &base, true, &format!("{what} unchanged"));

    let other_mode = IftMode::ALL[(IftMode::ALL.iter().position(|&m| m == mode).unwrap() + 1) % 3];
    let variant = Request {
        mode: other_mode,
        ..base.clone()
    };
    check_variant(
        &warm,
        proto,
        &variant,
        false,
        &format!("{what} mode {other_mode:?}"),
    );

    let variant = Request {
        max_cycles: base.max_cycles + 1,
        ..base.clone()
    };
    check_variant(&warm, proto, &variant, false, &format!("{what} max_cycles"));

    // A budget that runs out before the window entry (the checkpoint's
    // cycle, read off the trace) must end the run there, not resume past
    // it.
    let transient = base.schedule.len() - 1;
    let (win_lo, win_hi) = (
        base.plan.window_addr,
        base.plan.window_addr + 4 * base.plan.window_slots as u64,
    );
    let entry = last.outcome.trace.events().iter().find_map(|e| match *e {
        RobEvent::Enq {
            cycle, pc, packet, ..
        } if packet == transient && (win_lo..win_hi).contains(&pc) => Some(cycle),
        _ => None,
    });
    if let Some(max_cycles) = entry.and_then(|c| c.checked_sub(1)) {
        let variant = Request {
            max_cycles,
            ..base.clone()
        };
        let what = format!("{what} max_cycles {max_cycles} before the window");
        check_variant(&warm, proto, &variant, false, &what);
    }

    let window_word =
        ((base.plan.window_addr - base.schedule[transient].program.base) / 4) as usize;
    let nop = dejavuzz_isa::encode(Instr::NOP);
    let prologue = (0..window_word)
        .rev()
        .find(|&w| base.schedule[transient].program.words[w] != nop);
    if let Some(w) = prologue {
        let mut variant = base.clone();
        let words = &mut variant.schedule[transient].program.words;
        words[w] = perturb(words[w]);
        let what = format!("{what} prologue word {w}");
        check_variant(&warm, proto, &variant, false, &what);
    }

    // A training packet: change a word that trains nothing, so the
    // trigger verdict (a key part of its own) stays the same.
    let trained = [base.plan.trigger_addr, base.plan.window_addr - 4];
    let training = base.schedule[..transient].first().and_then(|packet| {
        (0..packet.program.words.len()).find(|&w| {
            !trained.contains(&(packet.program.base + 4 * w as u64))
                && packet.program.words[w] != nop
        })
    });
    if let Some(w) = training {
        let mut variant = base.clone();
        let words = &mut variant.schedule[0].program.words;
        words[w] = perturb(words[w]);
        let what = format!("{what} training word {w}");
        check_variant(&warm, proto, &variant, false, &what);
    }
    (prologue.is_some(), training.is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Warm-vs-fresh equivalence of demand-driven, checkpointed netlist
    /// runs over every window type and IFT mode, on the small synthetic
    /// core and the Figure 2 RoB-entry circuit.
    #[test]
    fn checkpointed_netlist_runs_equal_fresh_runs(entropy in any::<u64>()) {
            for proto in [NetlistBackend::synthetic(SMALL_SCALE), NetlistBackend::rob_entry(8)] {
            let mut simulated = 0;
            let (mut prologues, mut trainings) = (0, 0);
            for wt in WindowType::ALL {
                for mode in IftMode::ALL {
                    let seed = Seed::new(wt, entropy % 64);
                    simulated += check_slot(&proto, &seed, mode, 3);
                    let (prologue, training) = check_key_parts(&proto, &seed, mode);
                    prologues += usize::from(prologue);
                    trainings += usize::from(training);
                }
            }
            prop_assert!(simulated > 0, "some window triggered");
            prop_assert!(prologues > 0 && trainings > 0, "{prologues} {trainings}");
        }
    }
}

/// The same equivalence on the 40K-cell `netlist:boom` core, for a few
/// seeds.
#[test]
fn checkpointed_boom_runs_equal_fresh_runs() {
    let proto = NetlistBackend::synthetic(BOOM_SCALE);
    let mut simulated = 0;
    for (wt, mode) in [
        (WindowType::MemPageFault, IftMode::DiffIft),
        (WindowType::BranchMispredict, IftMode::CellIft),
    ] {
        simulated += check_slot(&proto, &Seed::new(wt, 3), mode, 1);
    }
    assert!(simulated > 0);
    check_key_parts(
        &proto,
        &Seed::new(WindowType::ReturnMispredict, 5),
        IftMode::DiffIft,
    );
}
