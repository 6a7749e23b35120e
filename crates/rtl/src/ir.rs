//! The word-level netlist IR.
//!
//! A netlist is a vector of cells in SSA form: combinational cells may only
//! reference earlier signals or register outputs; registers and memories
//! are declared first and connected later (the usual hardware-builder
//! discipline). Every signal is one 64-bit word — word-level cells are
//! exactly what the paper's RTL-IR instrumentation operates on.

use std::fmt;

/// Index of a signal (one cell output) within a netlist.
pub type SignalId = usize;

/// Index of a memory within a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub usize);

/// One cell of the netlist. The output of cell *i* is signal *i*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// A constant driver.
    Const(u64),
    /// An external input port (index into the stimulus vector).
    Input(usize),
    /// Bitwise AND (taint: Policy 1).
    And(SignalId, SignalId),
    /// Bitwise OR.
    Or(SignalId, SignalId),
    /// Bitwise XOR.
    Xor(SignalId, SignalId),
    /// Bitwise NOT.
    Not(SignalId),
    /// Two's-complement addition.
    Add(SignalId, SignalId),
    /// Two's-complement subtraction.
    Sub(SignalId, SignalId),
    /// Equality comparison, 1-bit result (taint: comparison cell).
    Eq(SignalId, SignalId),
    /// Unsigned less-than, 1-bit result (taint: comparison cell).
    Lt(SignalId, SignalId),
    /// Multiplexer `sel ? then_v : else_v` (taint: Policy 2 / Table 1).
    Mux {
        sel: SignalId,
        then_v: SignalId,
        else_v: SignalId,
    },
    /// A clocked register. `d`/`en` are connected after declaration;
    /// an unconnected register holds its initial value forever.
    Reg {
        d: Option<SignalId>,
        en: Option<SignalId>,
        init: u64,
    },
    /// Combinational memory read port.
    MemRead { mem: MemId, addr: SignalId },
}

impl CellKind {
    /// True for cells with clocked state.
    pub fn is_sequential(&self) -> bool {
        matches!(self, CellKind::Reg { .. })
    }
}

/// A cell plus its (optional) diagnostic name and owning module path.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The operation.
    pub kind: CellKind,
    /// Diagnostic name (register names appear in taint censuses).
    pub name: Option<String>,
    /// Module instance path, e.g. `"rob"`; used for module-local taint
    /// statistics.
    pub module: &'static str,
}

/// A word-addressed memory declaration.
#[derive(Clone, Debug)]
pub struct MemDecl {
    /// Number of 64-bit words.
    pub words: usize,
    /// Diagnostic name.
    pub name: Option<String>,
    /// Owning module path.
    pub module: &'static str,
    /// Write port: `(wen, addr, data)` signals, connected after declaration.
    pub write_port: Option<(SignalId, SignalId, SignalId)>,
    /// `liveness_mask` attribute: one 1-bit liveness signal per slot
    /// (generic vector interface of §4.3.2). May be shorter than `words`.
    pub liveness: Vec<SignalId>,
}

/// A complete netlist.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// Cells in SSA order.
    pub cells: Vec<Cell>,
    /// Memories.
    pub mems: Vec<MemDecl>,
    /// Signals exposed as outputs, by name.
    pub outputs: Vec<(String, SignalId)>,
}

impl Netlist {
    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of sequential cells (registers).
    pub fn reg_count(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_sequential()).count()
    }

    /// Number of memories.
    pub fn mem_count(&self) -> usize {
        self.mems.len()
    }

    /// Total memory words across all memories.
    pub fn mem_words(&self) -> usize {
        self.mems.iter().map(|m| m.words).sum()
    }

    /// Number of input ports (one past the highest [`CellKind::Input`]
    /// index), i.e. the length of the stimulus vector a simulator needs.
    pub fn input_count(&self) -> usize {
        self.cells
            .iter()
            .filter_map(|c| match c.kind {
                CellKind::Input(i) => Some(i.saturating_add(1)),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Looks up an output signal by name.
    pub fn output(&self, name: &str) -> Option<SignalId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Resolves every reference in the netlist, returning the first one
    /// that does not resolve:
    ///
    /// * a combinational cell may only read earlier signals or register
    ///   outputs, and a memory read port only a memory with words;
    /// * an input index must fit the 32-bit port space;
    /// * register `d`/`en` connections, memory write ports, liveness
    ///   signals and outputs may name any signal, but it must exist, and a
    ///   memory with a write port must have words.
    ///
    /// The simulator relies on this: a netlist that validates cannot make
    /// it index out of range.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.cells.len();
        let is_reg = |s: SignalId| matches!(self.cells.get(s), Some(c) if c.kind.is_sequential());
        let ok = |i: usize, s: SignalId| s < i || is_reg(s);
        for (i, c) in self.cells.iter().enumerate() {
            let valid = match c.kind {
                CellKind::Const(_) => true,
                CellKind::Input(idx) => u32::try_from(idx).is_ok(),
                CellKind::Reg { d, en, .. } => d.is_none_or(|s| s < n) && en.is_none_or(|s| s < n),
                CellKind::Not(a) => ok(i, a),
                CellKind::And(a, b)
                | CellKind::Or(a, b)
                | CellKind::Xor(a, b)
                | CellKind::Add(a, b)
                | CellKind::Sub(a, b)
                | CellKind::Eq(a, b)
                | CellKind::Lt(a, b) => ok(i, a) && ok(i, b),
                CellKind::Mux {
                    sel,
                    then_v,
                    else_v,
                } => ok(i, sel) && ok(i, then_v) && ok(i, else_v),
                CellKind::MemRead { mem, addr } => {
                    self.mems.get(mem.0).is_some_and(|m| m.words > 0) && ok(i, addr)
                }
            };
            if !valid {
                return Err(NetlistError::Cell(i));
            }
        }
        for (mi, m) in self.mems.iter().enumerate() {
            let port_ok = m
                .write_port
                .is_none_or(|(wen, addr, data)| m.words > 0 && wen < n && addr < n && data < n);
            if !port_ok || m.liveness.iter().any(|&s| s >= n) {
                return Err(NetlistError::Mem(mi));
            }
        }
        if let Some(o) = self.outputs.iter().position(|&(_, s)| s >= n) {
            return Err(NetlistError::Output(o));
        }
        Ok(())
    }
}

/// The first reference a netlist fails to resolve (see
/// [`Netlist::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// Cell *i* reads a missing signal, a later combinational signal or a
    /// missing or empty memory, drives an input port past `u32::MAX`, or
    /// (a register) connects `d`/`en` to a missing signal.
    Cell(usize),
    /// Memory *m*'s write port or liveness mask names a missing signal, or
    /// it has a write port but no words.
    Mem(usize),
    /// Output *o* (its position in [`Netlist::outputs`]) names a missing
    /// signal.
    Output(usize),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Cell(i) => write!(f, "cell {i} has an unresolvable reference"),
            NetlistError::Mem(m) => write!(f, "memory {m} has an unresolvable port"),
            NetlistError::Output(o) => write!(f, "output {o} names a missing signal"),
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(kind: CellKind) -> Cell {
        Cell {
            kind,
            name: None,
            module: "top",
        }
    }

    #[test]
    fn counting_helpers() {
        let n = Netlist {
            cells: vec![
                cell(CellKind::Const(1)),
                cell(CellKind::Reg {
                    d: None,
                    en: None,
                    init: 0,
                }),
                cell(CellKind::And(0, 1)),
            ],
            mems: vec![MemDecl {
                words: 8,
                name: None,
                module: "top",
                write_port: None,
                liveness: vec![],
            }],
            outputs: vec![("o".into(), 2)],
        };
        assert_eq!(n.cell_count(), 3);
        assert_eq!(n.reg_count(), 1);
        assert_eq!(n.mem_count(), 1);
        assert_eq!(n.mem_words(), 8);
        assert_eq!(n.output("o"), Some(2));
        assert_eq!(n.output("missing"), None);
    }

    #[test]
    fn validate_accepts_forward_reg_reference() {
        // Combinational cell 0 reads register 1 (declared later is fine for
        // regs — they output last cycle's value).
        let n = Netlist {
            cells: vec![
                cell(CellKind::Not(1)),
                cell(CellKind::Reg {
                    d: Some(0),
                    en: None,
                    init: 0,
                }),
            ],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(n.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_forward_comb_reference() {
        let n = Netlist {
            cells: vec![cell(CellKind::Not(1)), cell(CellKind::Const(0))],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(n.validate(), Err(NetlistError::Cell(0)));
    }

    #[test]
    fn validate_rejects_bad_mem_id() {
        let n = Netlist {
            cells: vec![
                cell(CellKind::Const(0)),
                cell(CellKind::MemRead {
                    mem: MemId(3),
                    addr: 0,
                }),
            ],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(n.validate(), Err(NetlistError::Cell(1)));
    }
}
