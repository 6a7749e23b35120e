//! Two-phase cycle simulator over (instrumented) netlists.
//!
//! Signals carry [`TWord`] two-plane values, so a single simulation run *is*
//! the paper's differential testbench: plane `a` is DUT variant 1, plane `b`
//! variant 2, and the policy's control-taint gates see cross-instance
//! differences immediately.
//!
//! Simulation is split into a compile step and a per-run instance:
//!
//! * [`SimProgram::compile`] validates a [`Netlist`] once and lowers it to
//!   what a cycle needs: the combinational cells only, in SSA order, as a
//!   dense op array with `u32` operands (constants and registers stay out
//!   of that loop), the register list as `(q, d, en)`, the memory write
//!   ports, the initial value vector and the census's per-module register
//!   lists. A program is immutable and `Arc`-shared, and one program
//!   serves all three [`IftMode`]s.
//! * [`NetlistSim`] is the state of one run over a program: signal values,
//!   memories, driven inputs and a reused next-state buffer. Creating or
//!   cloning one copies state only. [`NetlistSim::eval_comb`] and the
//!   clock edge dispatch once on the mode to a loop specialised for it.
//! * [`SimState`] is the part of a run that carries from one cycle to the
//!   next: register values, memories, driven inputs and the cycle count.
//!   [`NetlistSim::save_state`] takes one and [`NetlistSim::restore_state`]
//!   puts it back, so a caller can resume a run from a saved cycle instead
//!   of re-simulating it from reset.
//!
//! Each cycle evaluates every combinational cell in order (SSA order is a
//! valid levelisation), then clocks: all registers compute their next
//! state from the settled values and commit together, and only then do
//! memory write ports sample `wen`/`addr`/`data`.

use std::sync::Arc;

use dejavuzz_ift::{Census, IftMode, Policy, SinkReport, TMem, TWord};

use crate::ir::{CellKind, Netlist, NetlistError};

/// One combinational operation with its operands resolved to signal (or
/// input port / memory) indices.
#[derive(Clone, Copy, Debug)]
enum Op {
    Input(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Not(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Eq(u32, u32),
    Lt(u32, u32),
    Mux(u32, u32, u32),
    MemRead(u32, u32),
}

/// A combinational cell of a compiled program: its output signal and op.
#[derive(Clone, Copy, Debug)]
struct CombOp {
    out: u32,
    op: Op,
}

/// A connected register: output `q`, data `d` and optional enable `en`.
#[derive(Clone, Copy, Debug)]
struct RegOp {
    q: u32,
    d: u32,
    en: Option<u32>,
}

/// A memory write port: `(mem, wen, addr, data)`.
#[derive(Clone, Copy, Debug)]
struct WritePort {
    mem: u32,
    wen: u32,
    addr: u32,
    data: u32,
}

/// A netlist compiled for simulation: built once, shared (through an
/// [`Arc`]) by every [`NetlistSim`] run over it, in any mode.
#[derive(Debug)]
pub struct SimProgram {
    netlist: Netlist,
    /// Constant drivers, written ahead of the combinational loop.
    consts: Vec<(u32, u64)>,
    comb: Vec<CombOp>,
    /// Connected registers; unconnected ones hold their initial value.
    regs: Vec<RegOp>,
    writes: Vec<WritePort>,
    /// Signal values at reset: register initial values, zero elsewhere.
    init: Vec<TWord>,
    /// Every register, grouped by module in first-seen order.
    census_regs: Vec<(&'static str, Vec<u32>)>,
}

impl SimProgram {
    /// Validates `netlist` ([`Netlist::validate`]) and compiles it.
    pub fn compile(netlist: Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        // A validated netlist's signal and memory ids index its cells and
        // memories, and no vector of 2^32 of either fits in memory, so
        // every id fits a `u32`; input indices are range-checked by
        // `validate` itself.
        let ix = |s: usize| s as u32;
        let mut consts = Vec::new();
        let mut comb = Vec::new();
        let mut regs = Vec::new();
        let mut init = Vec::with_capacity(netlist.cells.len());
        let mut census_regs: Vec<(&'static str, Vec<u32>)> = Vec::new();
        for (i, c) in netlist.cells.iter().enumerate() {
            init.push(match c.kind {
                CellKind::Reg { init, .. } => TWord::lit(init),
                _ => TWord::lit(0),
            });
            let op = match c.kind {
                CellKind::Const(v) => {
                    consts.push((ix(i), v));
                    continue;
                }
                CellKind::Reg { d, en, .. } => {
                    if let Some(d) = d {
                        regs.push(RegOp {
                            q: ix(i),
                            d: ix(d),
                            en: en.map(ix),
                        });
                    }
                    match census_regs.iter_mut().find(|(m, _)| *m == c.module) {
                        Some((_, members)) => members.push(ix(i)),
                        None => census_regs.push((c.module, vec![ix(i)])),
                    }
                    continue;
                }
                CellKind::Input(idx) => Op::Input(ix(idx)),
                CellKind::And(a, b) => Op::And(ix(a), ix(b)),
                CellKind::Or(a, b) => Op::Or(ix(a), ix(b)),
                CellKind::Xor(a, b) => Op::Xor(ix(a), ix(b)),
                CellKind::Not(a) => Op::Not(ix(a)),
                CellKind::Add(a, b) => Op::Add(ix(a), ix(b)),
                CellKind::Sub(a, b) => Op::Sub(ix(a), ix(b)),
                CellKind::Eq(a, b) => Op::Eq(ix(a), ix(b)),
                CellKind::Lt(a, b) => Op::Lt(ix(a), ix(b)),
                CellKind::Mux {
                    sel,
                    then_v,
                    else_v,
                } => Op::Mux(ix(sel), ix(then_v), ix(else_v)),
                CellKind::MemRead { mem, addr } => Op::MemRead(ix(mem.0), ix(addr)),
            };
            comb.push(CombOp { out: ix(i), op });
        }
        let writes = netlist
            .mems
            .iter()
            .enumerate()
            .filter_map(|(m, decl)| {
                decl.write_port.map(|(wen, addr, data)| WritePort {
                    mem: ix(m),
                    wen: ix(wen),
                    addr: ix(addr),
                    data: ix(data),
                })
            })
            .collect();
        Ok(SimProgram {
            netlist,
            consts,
            comb,
            regs,
            writes,
            init,
            census_regs,
        })
    }

    /// Every register's signal, connected or not, in a fixed order.
    fn registers(&self) -> impl Iterator<Item = usize> + '_ {
        self.census_regs
            .iter()
            .flat_map(|(_, regs)| regs.iter().map(|&r| r as usize))
    }
}

/// The IFT mode a specialised evaluation loop is compiled for.
trait Mode {
    const MODE: IftMode;

    /// Strips taints in Base mode (data-flow ops always compute taint).
    #[inline(always)]
    fn gate(w: TWord) -> TWord {
        if matches!(Self::MODE, IftMode::Base) {
            w.untainted()
        } else {
            w
        }
    }
}

struct BaseMode;
struct CellIftMode;
struct DiffIftMode;

impl Mode for BaseMode {
    const MODE: IftMode = IftMode::Base;
}

impl Mode for CellIftMode {
    const MODE: IftMode = IftMode::CellIft;
}

impl Mode for DiffIftMode {
    const MODE: IftMode = IftMode::DiffIft;
}

/// What a [`NetlistSim`] carries from one cycle to the next: every
/// register value, the memories, the driven inputs and the cycle count.
///
/// Combinational values are left out: the next [`NetlistSim::step`]
/// recomputes all of them from this state before it clocks, so a
/// simulator restored from a `SimState` steps exactly like the one it was
/// saved from. Until that step, [`NetlistSim::signal`] on a combinational
/// signal reads whatever the restored-into simulator last computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimState {
    /// Register values, in the program's register order.
    regs: Vec<TWord>,
    mems: Vec<TMem>,
    inputs: Vec<TWord>,
    cycle: u64,
}

/// Simulates one run over a [`SimProgram`], cycle by cycle.
#[derive(Clone, Debug)]
pub struct NetlistSim {
    program: Arc<SimProgram>,
    mode: IftMode,
    values: Vec<TWord>,
    mems: Vec<TMem>,
    /// Driven input ports; a port past the end reads 0.
    inputs: Vec<TWord>,
    /// Next-state buffer of the clock edge, kept across cycles.
    next: Vec<TWord>,
    cycle: u64,
}

impl NetlistSim {
    /// Creates a simulator in the given IFT mode.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`]. Backend-style
    /// callers that must survive a bad netlist use
    /// [`NetlistSim::try_new`].
    pub fn new(netlist: Netlist, mode: IftMode) -> Self {
        Self::try_new(netlist, mode).unwrap_or_else(|e| panic!("invalid netlist: {e}"))
    }

    /// Compiles `netlist` and creates a simulator over it, returning the
    /// first unresolvable reference instead of panicking when the netlist
    /// fails [`Netlist::validate`].
    pub fn try_new(netlist: Netlist, mode: IftMode) -> Result<Self, NetlistError> {
        Ok(Self::from_program(
            Arc::new(SimProgram::compile(netlist)?),
            mode,
        ))
    }

    /// A fresh run (cycle 0, reset state) over a compiled program.
    pub fn from_program(program: Arc<SimProgram>, mode: IftMode) -> Self {
        NetlistSim {
            values: program.init.clone(),
            mems: program
                .netlist
                .mems
                .iter()
                .map(|m| TMem::new(m.words))
                .collect(),
            inputs: Vec::new(),
            next: Vec::with_capacity(program.regs.len()),
            program,
            mode,
            cycle: 0,
        }
    }

    /// The IFT mode in force.
    pub fn mode(&self) -> IftMode {
        self.mode
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives input port `index` for subsequent cycles.
    pub fn set_input(&mut self, index: usize, v: TWord) {
        if index >= self.inputs.len() {
            self.inputs.resize(index + 1, TWord::lit(0));
        }
        self.inputs[index] = v;
    }

    /// Reads the current value of a signal.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range signal; see [`NetlistSim::try_signal`].
    pub fn signal(&self, sig: usize) -> TWord {
        self.values[sig]
    }

    /// Reads the current value of a signal, or `None` if it is out of
    /// range — the non-panicking accessor backend boundaries use.
    pub fn try_signal(&self, sig: usize) -> Option<TWord> {
        self.values.get(sig).copied()
    }

    /// Reads a named output.
    ///
    /// # Panics
    ///
    /// Panics if the output does not exist; see
    /// [`NetlistSim::try_output`].
    pub fn output(&self, name: &str) -> TWord {
        self.try_output(name)
            .unwrap_or_else(|| panic!("no output named {name:?}"))
    }

    /// Reads a named output, or `None` if no such output exists.
    pub fn try_output(&self, name: &str) -> Option<TWord> {
        self.program
            .netlist
            .output(name)
            .and_then(|sig| self.try_signal(sig))
    }

    /// Testbench access to a memory slot.
    ///
    /// # Panics
    ///
    /// Panics on a bad memory index or slot; see
    /// [`NetlistSim::try_mem_peek`].
    pub fn mem_peek(&self, mem: usize, idx: usize) -> TWord {
        self.mems[mem].peek(idx)
    }

    /// Testbench access to a memory slot, or `None` when either index is
    /// out of range.
    pub fn try_mem_peek(&self, mem: usize, idx: usize) -> Option<TWord> {
        let m = self.mems.get(mem)?;
        if idx < m.len() {
            Some(m.peek(idx))
        } else {
            None
        }
    }

    /// Testbench store to a memory slot (image loading, secret planting).
    pub fn mem_poke(&mut self, mem: usize, idx: usize, w: TWord) {
        self.mems[mem].poke(idx, w);
    }

    /// Directly taints a register (marks it as holding sensitive data).
    pub fn taint_reg(&mut self, sig: usize) {
        assert!(
            self.program.netlist.cells[sig].kind.is_sequential(),
            "taint_reg target must be a register"
        );
        self.values[sig] = self.values[sig].fully_tainted();
    }

    /// Saves the state the next [`NetlistSim::step`] reads (see
    /// [`SimState`]).
    pub fn save_state(&self) -> SimState {
        SimState {
            regs: self.program.registers().map(|r| self.values[r]).collect(),
            mems: self.mems.clone(),
            inputs: self.inputs.clone(),
            cycle: self.cycle,
        }
    }

    /// Restores a state saved by [`NetlistSim::save_state`] on a simulator
    /// over the same program and in the same mode.
    ///
    /// # Panics
    ///
    /// Panics if the state's register or memory count differs from this
    /// program's.
    pub fn restore_state(&mut self, state: &SimState) {
        assert_eq!(
            (state.regs.len(), state.mems.len()),
            (self.program.registers().count(), self.mems.len()),
            "state saved from a different program"
        );
        for (r, &v) in self.program.registers().zip(&state.regs) {
            self.values[r] = v;
        }
        self.mems.clone_from(&state.mems);
        self.inputs.clone_from(&state.inputs);
        self.cycle = state.cycle;
    }

    /// Evaluates combinational logic, then advances the clock one edge.
    pub fn step(&mut self) {
        self.eval_comb();
        match self.mode {
            IftMode::Base => self.clock_edge::<BaseMode>(),
            IftMode::CellIft => self.clock_edge::<CellIftMode>(),
            IftMode::DiffIft => self.clock_edge::<DiffIftMode>(),
        }
        self.cycle += 1;
    }

    /// Evaluates combinational logic without clocking (for inspecting
    /// same-cycle outputs).
    pub fn eval_comb(&mut self) {
        match self.mode {
            IftMode::Base => self.eval::<BaseMode>(),
            IftMode::CellIft => self.eval::<CellIftMode>(),
            IftMode::DiffIft => self.eval::<DiffIftMode>(),
        }
    }

    fn eval<M: Mode>(&mut self) {
        let p = Policy::new(M::MODE);
        let prog = &*self.program;
        let values = &mut self.values[..];
        for &(s, v) in &prog.consts {
            values[s as usize] = TWord::lit(v);
        }
        for c in &prog.comb {
            let v = |s: u32| values[s as usize];
            let out = match c.op {
                Op::Input(idx) => self
                    .inputs
                    .get(idx as usize)
                    .copied()
                    .unwrap_or(TWord::lit(0)),
                Op::And(a, b) => M::gate(v(a).and(v(b))),
                Op::Or(a, b) => M::gate(v(a).or(v(b))),
                Op::Xor(a, b) => M::gate(v(a).xor(v(b))),
                Op::Not(a) => M::gate(v(a).not()),
                Op::Add(a, b) => M::gate(v(a).add(v(b))),
                Op::Sub(a, b) => M::gate(v(a).sub(v(b))),
                Op::Eq(a, b) => p.eq(v(a), v(b)),
                Op::Lt(a, b) => p.lt(v(a), v(b)),
                Op::Mux(sel, then_v, else_v) => p.mux(v(sel), v(then_v), v(else_v)),
                Op::MemRead(mem, addr) => self.mems[mem as usize].read(p, v(addr)),
            };
            values[c.out as usize] = out;
        }
    }

    fn clock_edge<M: Mode>(&mut self) {
        let p = Policy::new(M::MODE);
        let prog = &*self.program;
        let values = &mut self.values;
        // Registers: compute all next states, then commit (no intra-cycle
        // ordering artefacts).
        self.next.clear();
        self.next.extend(prog.regs.iter().map(|r| {
            let d = values[r.d as usize];
            match r.en {
                Some(en) => p.reg_en(values[en as usize], d, values[r.q as usize]),
                None => M::gate(d),
            }
        }));
        for (r, &v) in prog.regs.iter().zip(&self.next) {
            values[r.q as usize] = v;
        }
        // Memory write ports sample the committed register values.
        for w in &prog.writes {
            let (wen, addr, data) = (
                values[w.wen as usize],
                values[w.addr as usize],
                values[w.data as usize],
            );
            self.mems[w.mem as usize].write(p, wen, addr, data);
        }
    }

    /// Taint census over all registers and memory slots, grouped by module.
    pub fn census(&self) -> Census {
        let mut census = Census::new();
        for (module, regs) in &self.program.census_regs {
            let tainted = regs
                .iter()
                .filter(|&&r| self.values[r as usize].is_tainted())
                .count();
            census.report_counts(module, tainted, regs.len());
        }
        for (decl, mem) in self.program.netlist.mems.iter().zip(&self.mems) {
            census.report_counts(decl.module, mem.tainted_slots(), mem.len());
        }
        census
    }

    /// Sweeps all `liveness_mask`-annotated memories, producing sink
    /// reports for tainted slots (§4.3.2). Slots beyond the liveness vector
    /// are treated as always-live (unannotated sinks stay conservative).
    pub fn sink_reports(&self) -> Vec<SinkReport> {
        let mut out = Vec::new();
        for (mi, m) in self.program.netlist.mems.iter().enumerate() {
            let mem = &self.mems[mi];
            for idx in 0..mem.len() {
                let t = mem.peek(idx).t;
                if t == 0 {
                    continue;
                }
                let live = match m.liveness.get(idx) {
                    Some(&sig) => self.values[sig].either(),
                    None => true,
                };
                out.push(SinkReport {
                    module: m.module,
                    array: m.name.clone().unwrap_or_else(|| format!("mem{mi}")),
                    index: idx,
                    taint: t,
                    live,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn counter_counts() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(0);
        let one = b.constant(1);
        let next = b.add(r, one);
        b.connect_reg(r, next, None);
        b.output("count", r);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.output("count").a, 5);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn enabled_register_holds_without_enable() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(3);
        let d = b.input(0);
        let en = b.input(1);
        b.connect_reg(r, d, Some(en));
        b.output("q", r);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::lit(9));
        sim.set_input(1, TWord::lit(0));
        sim.step();
        assert_eq!(sim.output("q").a, 3, "disabled register holds");
        sim.set_input(1, TWord::lit(1));
        sim.step();
        assert_eq!(sim.output("q").a, 9, "enabled register loads");
    }

    #[test]
    fn taint_flows_through_comb_logic() {
        let mut b = NetlistBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.xor(x, y);
        b.output("s", s);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::secret(1, 2));
        sim.set_input(1, TWord::lit(4));
        sim.eval_comb();
        assert!(sim.output("s").is_tainted());
        assert_eq!(sim.output("s").a, 5);
        assert_eq!(sim.output("s").b, 6);
    }

    #[test]
    fn base_mode_strips_taint() {
        let mut b = NetlistBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.add(x, y);
        b.output("s", s);
        let mut sim = NetlistSim::new(b.finish(), IftMode::Base);
        sim.set_input(0, TWord::secret(1, 2));
        sim.set_input(1, TWord::lit(4));
        sim.eval_comb();
        assert!(!sim.output("s").is_tainted());
    }

    #[test]
    fn memory_write_then_read() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(8, "buf");
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_mem_write(m, wen, addr, data);
        let rd = b.mem_read(m, addr);
        b.output("rd", rd);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::lit(1));
        sim.set_input(1, TWord::lit(5));
        sim.set_input(2, TWord::lit(77));
        sim.step(); // write at edge
        sim.set_input(0, TWord::lit(0));
        sim.eval_comb();
        assert_eq!(sim.output("rd").a, 77);
        assert_eq!(sim.mem_peek(0, 5).a, 77);
    }

    #[test]
    fn census_groups_by_module() {
        let mut b = NetlistBuilder::new();
        b.module("rob");
        let r1 = b.reg(0);
        b.module("lsu");
        let r2 = b.reg(0);
        let c = b.constant(0);
        b.connect_reg(r1, c, None);
        b.connect_reg(r2, c, None);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.taint_reg(r2);
        let census = sim.census();
        assert_eq!(census.module_tainted("rob"), Some(0));
        assert_eq!(census.module_tainted("lsu"), Some(1));
        assert_eq!(census.taint_sum(), 1);
    }

    #[test]
    fn sink_reports_respect_liveness() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(2, "lb");
        let live0 = b.input(0);
        let live1 = b.input(1);
        b.liveness_mask(m, vec![live0, live1]);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.mem_poke(0, 0, TWord::secret(1, 2));
        sim.mem_poke(0, 1, TWord::secret(3, 4));
        sim.set_input(0, TWord::lit(1)); // slot 0 live
        sim.set_input(1, TWord::lit(0)); // slot 1 dead
        sim.eval_comb();
        let reports = sim.sink_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].exploitable());
        assert!(reports[1].residue());
    }

    #[test]
    #[should_panic(expected = "no output named")]
    fn missing_output_panics() {
        let b = NetlistBuilder::new();
        let sim = NetlistSim::new(b.finish(), IftMode::Base);
        sim.output("nope");
    }

    #[test]
    fn try_accessors_return_none_instead_of_panicking() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(4, "buf");
        let r = b.reg(7);
        let c = b.constant(0);
        b.connect_reg(r, c, None);
        b.output("q", r);
        let _ = m;
        let sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        assert_eq!(sim.try_output("q").map(|w| w.a), Some(7));
        assert!(sim.try_output("nope").is_none());
        assert!(sim.try_signal(0).is_some());
        assert!(sim.try_signal(999).is_none());
        assert!(sim.try_mem_peek(0, 3).is_some());
        assert!(sim.try_mem_peek(0, 4).is_none(), "slot out of range");
        assert!(sim.try_mem_peek(5, 0).is_none(), "mem out of range");
    }

    #[test]
    fn try_new_reports_offending_cell() {
        use crate::ir::{Cell, CellKind, Netlist};
        let bad = Netlist {
            cells: vec![
                Cell {
                    kind: CellKind::Not(1),
                    name: None,
                    module: "top",
                },
                Cell {
                    kind: CellKind::Const(0),
                    name: None,
                    module: "top",
                },
            ],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(
            NetlistSim::try_new(bad, IftMode::Base).err(),
            Some(NetlistError::Cell(0))
        );
    }

    fn cell(kind: CellKind) -> crate::ir::Cell {
        crate::ir::Cell {
            kind,
            name: None,
            module: "top",
        }
    }

    fn mem(words: usize, write_port: Option<(usize, usize, usize)>) -> crate::ir::MemDecl {
        crate::ir::MemDecl {
            words,
            name: None,
            module: "top",
            write_port,
            liveness: vec![],
        }
    }

    #[test]
    fn out_of_range_comb_operands_are_errors_not_panics() {
        for kind in [
            CellKind::Not(9),
            CellKind::And(0, 9),
            CellKind::Mux {
                sel: 0,
                then_v: 0,
                else_v: usize::MAX,
            },
            CellKind::MemRead {
                mem: crate::ir::MemId(0),
                addr: 9,
            },
        ] {
            let bad = Netlist {
                cells: vec![cell(CellKind::Const(1)), cell(kind)],
                mems: vec![mem(4, None)],
                outputs: vec![],
            };
            assert_eq!(
                NetlistSim::try_new(bad, IftMode::DiffIft).err(),
                Some(NetlistError::Cell(1)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn dangling_connections_are_errors_not_panics_at_the_first_step() {
        let reg = |d, en| {
            cell(CellKind::Reg {
                d: Some(d),
                en,
                init: 0,
            })
        };
        let ok = || cell(CellKind::Const(1));
        let cases = [
            // A register whose `d` or `en` does not exist.
            (
                vec![ok(), reg(7, None)],
                vec![],
                vec![],
                NetlistError::Cell(1),
            ),
            (
                vec![ok(), reg(0, Some(7))],
                vec![],
                vec![],
                NetlistError::Cell(1),
            ),
            // Memory write ports and liveness signals that do not exist.
            (
                vec![ok()],
                vec![mem(4, Some((0, 0, 7)))],
                vec![],
                NetlistError::Mem(0),
            ),
            (
                vec![ok()],
                vec![mem(4, Some((7, 0, 0)))],
                vec![],
                NetlistError::Mem(0),
            ),
            (
                vec![ok()],
                vec![crate::ir::MemDecl {
                    liveness: vec![0, 7],
                    ..mem(4, None)
                }],
                vec![],
                NetlistError::Mem(0),
            ),
            // A write port or read port on a memory with no words.
            (
                vec![ok()],
                vec![mem(0, Some((0, 0, 0)))],
                vec![],
                NetlistError::Mem(0),
            ),
            (
                vec![
                    ok(),
                    cell(CellKind::MemRead {
                        mem: crate::ir::MemId(0),
                        addr: 0,
                    }),
                ],
                vec![mem(0, None)],
                vec![],
                NetlistError::Cell(1),
            ),
            // An output naming a missing signal.
            (
                vec![ok()],
                vec![],
                vec![("o".to_string(), 7)],
                NetlistError::Output(0),
            ),
        ];
        for (cells, mems, outputs, want) in cases {
            let bad = Netlist {
                cells,
                mems,
                outputs,
            };
            let got = NetlistSim::try_new(bad.clone(), IftMode::DiffIft).err();
            assert_eq!(got, Some(want), "{bad:?}");
        }
    }

    /// The simulator before compilation, kept verbatim as the reference
    /// the compiled kernels are checked against: it walks the netlist's
    /// cells directly on every cycle.
    #[derive(Clone, Debug)]
    struct Reference {
        netlist: Netlist,
        policy: Policy,
        values: Vec<TWord>,
        mems: Vec<TMem>,
        inputs: Vec<TWord>,
    }

    impl Reference {
        fn new(netlist: Netlist, mode: IftMode) -> Self {
            let values = netlist
                .cells
                .iter()
                .map(|c| match c.kind {
                    CellKind::Reg { init, .. } => TWord::lit(init),
                    _ => TWord::lit(0),
                })
                .collect();
            let mems = netlist.mems.iter().map(|m| TMem::new(m.words)).collect();
            let n_inputs = netlist.input_count();
            Reference {
                netlist,
                policy: Policy::new(mode),
                values,
                mems,
                inputs: vec![TWord::lit(0); n_inputs],
            }
        }

        fn set_input(&mut self, index: usize, v: TWord) {
            if index >= self.inputs.len() {
                self.inputs.resize(index + 1, TWord::lit(0));
            }
            self.inputs[index] = v;
        }

        fn step(&mut self) {
            self.eval_comb();
            self.clock_edge();
        }

        fn eval_comb(&mut self) {
            let p = self.policy;
            for i in 0..self.netlist.cells.len() {
                let out = match self.netlist.cells[i].kind {
                    CellKind::Const(v) => TWord::lit(v),
                    CellKind::Input(idx) => self.inputs.get(idx).copied().unwrap_or(TWord::lit(0)),
                    CellKind::And(a, b) => self.gate(self.values[a].and(self.values[b])),
                    CellKind::Or(a, b) => self.gate(self.values[a].or(self.values[b])),
                    CellKind::Xor(a, b) => self.gate(self.values[a].xor(self.values[b])),
                    CellKind::Not(a) => self.gate(self.values[a].not()),
                    CellKind::Add(a, b) => self.gate(self.values[a].add(self.values[b])),
                    CellKind::Sub(a, b) => self.gate(self.values[a].sub(self.values[b])),
                    CellKind::Eq(a, b) => p.eq(self.values[a], self.values[b]),
                    CellKind::Lt(a, b) => p.lt(self.values[a], self.values[b]),
                    CellKind::Mux {
                        sel,
                        then_v,
                        else_v,
                    } => p.mux(self.values[sel], self.values[then_v], self.values[else_v]),
                    CellKind::Reg { .. } => continue, // holds Q
                    CellKind::MemRead { mem, addr } => self.mems[mem.0].read(p, self.values[addr]),
                };
                self.values[i] = out;
            }
        }

        fn gate(&self, w: TWord) -> TWord {
            if self.policy.mode() == IftMode::Base {
                w.untainted()
            } else {
                w
            }
        }

        fn clock_edge(&mut self) {
            let p = self.policy;
            let mut next: Vec<(usize, TWord)> = Vec::new();
            for (i, c) in self.netlist.cells.iter().enumerate() {
                if let CellKind::Reg { d: Some(d), en, .. } = c.kind {
                    let q = self.values[i];
                    let dv = self.values[d];
                    let nv = match en {
                        Some(en) => p.reg_en(self.values[en], dv, q),
                        None => {
                            if p.mode() == IftMode::Base {
                                dv.untainted()
                            } else {
                                dv
                            }
                        }
                    };
                    next.push((i, nv));
                }
            }
            for (i, v) in next {
                self.values[i] = v;
            }
            for (mi, m) in self.netlist.mems.iter().enumerate() {
                if let Some((wen, addr, data)) = m.write_port {
                    let (wen, addr, data) =
                        (self.values[wen], self.values[addr], self.values[data]);
                    self.mems[mi].write(p, wen, addr, data);
                }
            }
        }

        fn census(&self) -> Census {
            let mut census = Census::new();
            let mut order: Vec<&'static str> = Vec::new();
            let mut counts: Vec<(usize, usize)> = Vec::new();
            for (i, c) in self.netlist.cells.iter().enumerate() {
                if !matches!(c.kind, CellKind::Reg { .. }) {
                    continue;
                }
                let pos = match order.iter().position(|m| *m == c.module) {
                    Some(p) => p,
                    None => {
                        order.push(c.module);
                        counts.push((0, 0));
                        order.len() - 1
                    }
                };
                counts[pos].1 += 1;
                if self.values[i].is_tainted() {
                    counts[pos].0 += 1;
                }
            }
            for (m, (tainted, total)) in order.iter().zip(&counts) {
                census.report_counts(m, *tainted, *total);
            }
            for (mi, m) in self.netlist.mems.iter().enumerate() {
                census.report_counts(m.module, self.mems[mi].tainted_slots(), self.mems[mi].len());
            }
            census
        }

        fn sink_reports(&self) -> Vec<SinkReport> {
            let mut out = Vec::new();
            for (mi, m) in self.netlist.mems.iter().enumerate() {
                let mem = &self.mems[mi];
                for idx in 0..mem.len() {
                    let t = mem.peek(idx).t;
                    if t == 0 {
                        continue;
                    }
                    let live = match m.liveness.get(idx) {
                        Some(&sig) => self.values[sig].either(),
                        None => true,
                    };
                    out.push(SinkReport {
                        module: m.module,
                        array: m.name.clone().unwrap_or_else(|| format!("mem{mi}")),
                        index: idx,
                        taint: t,
                        live,
                    });
                }
            }
            out
        }
    }

    /// SplitMix64: the random netlists and stimuli below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        /// A small-valued word (so comparisons, muxes and memory addresses
        /// see collisions), with the planes agreeing or not and taint
        /// absent, partial or full.
        fn word(&mut self) -> TWord {
            let a = self.next() % 8;
            let b = if self.chance(50) { a } else { self.next() % 8 };
            let t = match self.below(3) {
                0 => 0,
                1 => self.next(),
                _ => u64::MAX,
            };
            TWord::with_taint(a, b, t)
        }
    }

    const MODULES: [&str; 3] = ["rob", "lsu", "fpu"];

    /// A random valid netlist over every cell kind: registers (some
    /// unconnected, some enabled, some read before they are declared),
    /// memories whose write ports are often driven straight from
    /// registers, liveness masks shorter and longer than their memory, and
    /// input cells past the ports the stimulus drives.
    fn random_netlist(rng: &mut Rng) -> Netlist {
        let n = 12 + rng.below(60);
        let is_reg: Vec<bool> = (0..n).map(|_| rng.chance(20)).collect();
        let regs: Vec<usize> = (0..n).filter(|&i| is_reg[i]).collect();
        let mem_count = 1 + rng.below(3);
        let mut cells = Vec::with_capacity(n);
        for (i, &reg) in is_reg.iter().enumerate() {
            let module = MODULES[rng.below(MODULES.len())];
            // Earlier signals and every register (before or after `i`).
            let pool: Vec<usize> = (0..i).chain(regs.iter().copied()).collect();
            let kind = if reg {
                CellKind::Reg {
                    d: None,
                    en: None,
                    init: rng.next() % 8,
                }
            } else if pool.is_empty() {
                CellKind::Const(rng.next() % 8)
            } else {
                let mut pick = || pool[rng.below(pool.len())];
                let (a, b, c) = (pick(), pick(), pick());
                match rng.below(12) {
                    0 => CellKind::Const(rng.next() % 8),
                    1 => CellKind::Input(rng.below(6)),
                    2 => CellKind::And(a, b),
                    3 => CellKind::Or(a, b),
                    4 => CellKind::Xor(a, b),
                    5 => CellKind::Not(a),
                    6 => CellKind::Add(a, b),
                    7 => CellKind::Sub(a, b),
                    8 => CellKind::Eq(a, b),
                    9 => CellKind::Lt(a, b),
                    10 => CellKind::Mux {
                        sel: a,
                        then_v: b,
                        else_v: c,
                    },
                    _ => CellKind::MemRead {
                        mem: crate::ir::MemId(rng.below(mem_count)),
                        addr: a,
                    },
                }
            };
            cells.push(crate::ir::Cell {
                kind,
                name: None,
                module,
            });
        }
        for &r in &regs {
            if rng.chance(75) {
                let d = rng.below(n);
                let en = rng.chance(50).then(|| rng.below(n));
                cells[r].kind = CellKind::Reg {
                    d: Some(d),
                    en,
                    init: rng.next() % 8,
                };
            }
        }
        let any = |rng: &mut Rng| {
            if !regs.is_empty() && rng.chance(50) {
                regs[rng.below(regs.len())]
            } else {
                rng.below(n)
            }
        };
        let mems = (0..mem_count)
            .map(|m| {
                let words = 1 + rng.below(6);
                let write_port = rng.chance(80).then(|| (any(rng), any(rng), any(rng)));
                let live = if rng.chance(60) {
                    rng.below(words + 2)
                } else {
                    0
                };
                crate::ir::MemDecl {
                    words,
                    name: rng.chance(50).then(|| format!("arr{m}")),
                    module: MODULES[rng.below(MODULES.len())],
                    write_port,
                    liveness: (0..live).map(|_| any(rng)).collect(),
                }
            })
            .collect();
        Netlist {
            cells,
            mems,
            outputs: vec![("o".into(), n - 1)],
        }
    }

    fn assert_same(sim: &NetlistSim, reference: &Reference, what: &str) {
        for (i, v) in reference.values.iter().enumerate() {
            assert_eq!(sim.signal(i), *v, "{what}: signal {i}");
        }
        for (m, mem) in reference.mems.iter().enumerate() {
            for idx in 0..mem.len() {
                assert_eq!(
                    sim.mem_peek(m, idx),
                    mem.peek(idx),
                    "{what}: mem {m}[{idx}]"
                );
            }
        }
        assert_eq!(sim.census(), reference.census(), "{what}: census");
        assert_eq!(
            sim.sink_reports(),
            reference.sink_reports(),
            "{what}: sinks"
        );
    }

    #[test]
    fn compiled_kernels_match_the_reference_interpreter() {
        let mut rng = Rng(0x5EED);
        let mut kinds = std::collections::HashSet::new();
        for net in 0..60 {
            let netlist = random_netlist(&mut rng);
            assert_eq!(netlist.validate(), Ok(()));
            for c in &netlist.cells {
                kinds.insert(std::mem::discriminant(&c.kind));
            }
            let program = Arc::new(SimProgram::compile(netlist.clone()).unwrap());
            let regs: Vec<usize> = (0..netlist.cells.len())
                .filter(|&i| netlist.cells[i].kind.is_sequential())
                .collect();
            for mode in IftMode::ALL {
                let mut sim = NetlistSim::from_program(program.clone(), mode);
                let mut reference = Reference::new(netlist.clone(), mode);
                assert_same(&sim, &reference, &format!("net {net} {mode:?} reset"));
                // Drive fewer ports than the input cells name, so some
                // input cells read past the stimulus vector.
                let driven = rng.below(5);
                for cycle in 0..24 {
                    let what = format!("net {net} {mode:?} cycle {cycle}");
                    for port in 0..driven {
                        let w = rng.word();
                        sim.set_input(port, w);
                        reference.set_input(port, w);
                    }
                    if !regs.is_empty() && rng.chance(15) {
                        let r = regs[rng.below(regs.len())];
                        sim.taint_reg(r);
                        reference.values[r] = reference.values[r].fully_tainted();
                    }
                    if rng.chance(15) {
                        let m = rng.below(netlist.mems.len());
                        let idx = rng.below(netlist.mems[m].words);
                        let w = rng.word();
                        sim.mem_poke(m, idx, w);
                        reference.mems[m].poke(idx, w);
                    }
                    if rng.chance(25) {
                        sim.eval_comb();
                        reference.eval_comb();
                        assert_same(&sim, &reference, &format!("{what} eval_comb"));
                    }
                    sim.step();
                    reference.step();
                    assert_same(&sim, &reference, &what);
                }
            }
        }
        assert_eq!(kinds.len(), 13, "every CellKind is generated");
    }

    #[test]
    fn restored_state_steps_like_the_uninterrupted_run() {
        let mut rng = Rng(0xC4EC);
        for net in 0..40 {
            let netlist = random_netlist(&mut rng);
            let program = Arc::new(SimProgram::compile(netlist.clone()).unwrap());
            let regs: Vec<usize> = (0..netlist.cells.len())
                .filter(|&i| netlist.cells[i].kind.is_sequential())
                .collect();
            for mode in IftMode::ALL {
                let driven = 1 + rng.below(5);
                let cycles = 24;
                let k = rng.below(cycles);
                let mut sim = NetlistSim::from_program(program.clone(), mode);
                let mut resumed = None;
                for cycle in 0..cycles {
                    if cycle == k {
                        let state = sim.save_state();
                        let mut fresh = NetlistSim::from_program(program.clone(), mode);
                        fresh.restore_state(&state);
                        assert_eq!(fresh.cycle(), k as u64);
                        assert_eq!(fresh.save_state(), state, "net {net} {mode:?}");
                        resumed = Some(fresh);
                    }
                    let what = format!("net {net} {mode:?} saved at {k}, cycle {cycle}");
                    // The same stimulus (taint injections and testbench
                    // pokes included) goes to both simulators.
                    for port in 0..driven {
                        let w = rng.word();
                        sim.set_input(port, w);
                        if let Some(r) = resumed.as_mut() {
                            r.set_input(port, w);
                        }
                    }
                    if !regs.is_empty() && rng.chance(15) {
                        let reg = regs[rng.below(regs.len())];
                        sim.taint_reg(reg);
                        if let Some(r) = resumed.as_mut() {
                            r.taint_reg(reg);
                        }
                    }
                    if rng.chance(15) {
                        let m = rng.below(netlist.mems.len());
                        let idx = rng.below(netlist.mems[m].words);
                        let w = rng.word();
                        sim.mem_poke(m, idx, w);
                        if let Some(r) = resumed.as_mut() {
                            r.mem_poke(m, idx, w);
                        }
                    }
                    sim.step();
                    let Some(r) = resumed.as_mut() else { continue };
                    r.step();
                    for i in 0..netlist.cells.len() {
                        assert_eq!(r.signal(i), sim.signal(i), "{what}: signal {i}");
                    }
                    assert_eq!(r.census(), sim.census(), "{what}: census");
                    assert_eq!(r.sink_reports(), sim.sink_reports(), "{what}: sinks");
                    assert_eq!(r.cycle(), sim.cycle(), "{what}: cycle");
                }
            }
        }
    }
}
