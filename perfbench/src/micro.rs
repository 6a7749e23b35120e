//! Direct calls into two layers below the backend seam: the netlist
//! simulator (`rtl::sim::NetlistSim`) and the process-pool round trip
//! (`ProcBackend` over one shared pool).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dejavuzz::backend::ProcSpec;
use dejavuzz::procbackend::{spawn_shared, ProcBackend};
use dejavuzz::SimBackend;
use dejavuzz_ift::{IftMode, TWord};
use dejavuzz_rtl::examples::{synthetic_core, CoreScale};
use dejavuzz_rtl::NetlistSim;

use crate::median;
use crate::replay::Sample;

/// Median host microseconds of the netlist simulator's three entry
/// points.
pub struct Rtl {
    /// `NetlistSim::try_new` on a clone of the netlist, as the netlist
    /// backend does at the start of every run.
    pub elab_us: f64,
    /// One `step` with every input driven.
    pub step_us: f64,
    /// One `census` sweep.
    pub census_us: f64,
}

/// Calls made per timed batch of steps and census sweeps, so one sample
/// is well above the clock's resolution.
const BATCH: u32 = 16;

/// Median microseconds of `f` (which times one call) over `slice`, with
/// at least three samples.
fn sample_us(slice: Duration, mut f: impl FnMut() -> Duration) -> f64 {
    let end = Instant::now() + slice;
    let mut us = Vec::new();
    while us.len() < 3 || Instant::now() < end {
        us.push(f().as_secs_f64() * 1e6);
    }
    median(&mut us)
}

/// Splits the time left until `until` into thirds, one per entry point.
pub fn rtl(scale: CoreScale, mode: IftMode, until: Instant) -> Rtl {
    let netlist = synthetic_core(scale);
    let slice = until.saturating_duration_since(Instant::now()) / 3;
    let elab_us = sample_us(slice, || {
        let start = Instant::now();
        let sim = NetlistSim::try_new(netlist.clone(), mode).expect("synthetic netlists elaborate");
        let elapsed = start.elapsed();
        drop(black_box(sim));
        elapsed
    });
    let mut sim = NetlistSim::try_new(netlist.clone(), mode).expect("synthetic netlists elaborate");
    let inputs = netlist.input_count();
    let mut value = 0x5A5A_0001u64;
    let step_us = sample_us(slice, || {
        let start = Instant::now();
        for _ in 0..BATCH {
            value = value.rotate_left(7) ^ 0x9E37;
            for i in 0..inputs {
                sim.set_input(i, TWord::with_taint(value, value ^ 0xFF, 0xFF));
            }
            sim.step();
        }
        start.elapsed() / BATCH
    });
    let census_us = sample_us(slice, || {
        let start = Instant::now();
        for _ in 0..BATCH {
            black_box(sim.census());
        }
        start.elapsed() / BATCH
    });
    Rtl {
        elab_us,
        step_us,
        census_us,
    }
}

/// The process-pool round trip against the same backend in-process.
pub struct Rpc {
    /// Median host microseconds of one run through the pool.
    pub rpc_us: f64,
    /// Median of the same runs in-process.
    pub local_us: f64,
    pub runs: u64,
    /// Runs whose pool outcome differed from the in-process one.
    pub mismatches: u64,
}

/// Replays `samples` (cyclically, until `until`, at least once each)
/// through a `ProcBackend` on one freshly spawned pool and through the
/// pool's inner backend in-process, alternating the two per sample.
pub fn rpc(
    spec: &ProcSpec,
    samples: &[Sample],
    max_cycles: u64,
    until: Instant,
) -> Result<Rpc, String> {
    let mut pool = ProcBackend::from_shared(spawn_shared(spec)?);
    let mut local = spec.inner.try_build().map_err(|e| e.to_string())?;
    let (mut rpc, mut own) = (Vec::new(), Vec::new());
    let mut mismatches = 0;
    for (i, s) in samples.iter().cycle().enumerate() {
        if i >= samples.len() && Instant::now() >= until {
            break;
        }
        let start = Instant::now();
        let a = local.run(&s.plan, &s.schedule, s.mode, max_cycles);
        own.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let b = pool.run(&s.plan, &s.schedule, s.mode, max_cycles);
        rpc.push(start.elapsed().as_secs_f64() * 1e6);
        if format!("{a:?}") != format!("{b:?}") {
            mismatches += 1;
        }
    }
    Ok(Rpc {
        rpc_us: median(&mut rpc),
        local_us: median(&mut own),
        runs: rpc.len() as u64,
        mismatches,
    })
}
