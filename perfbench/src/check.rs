//! Output checks against references that do not go through the program's
//! parse/lower/synthesize path: the generator's [`FsmSpec`] interpreter,
//! [`MicroProgram::simulate`], the generator's own cube list, and the
//! known answer of every equivalence pair. Each compiled netlist is
//! simulated cycle by cycle from reset; programmable designs are first
//! programmed through their config port.

use crate::gen::{Input, PlaRef, Rng};
use crate::ops::OpResult;
use smpctrl::program::dispatch_program;
use smpctrl::Flavor;
use std::collections::HashMap;
use synthir_cli::fsm::Style;
use synthir_core::sequencer::ControlWordLayout;
use synthir_core::{FsmSpec, MicroProgram};
use synthir_netlist::Netlist;
use synthir_sim::SeqSim;

/// Random input cycles (or vectors) compared per netlist.
const CYCLES: usize = 64;

/// Checks one operation's outputs; `Err` says what disagreed.
pub fn check(input: &Input, r: &OpResult, seed: u64) -> Result<(), String> {
    let nl = |i: usize| &r.compiled[i].netlist;
    match input {
        Input::Fsm { style, spec, .. } => fsm(nl(0), spec, *style == Style::Programmable, seed),
        Input::Pctrl { cfg, flavor } => {
            pctrl(nl(0), &dispatch_program(cfg), *flavor == Flavor::Full, seed)
        }
        Input::SeqPair {
            left_spec,
            right_spec,
            equivalent,
            ..
        } => {
            verdict(r, *equivalent)?;
            fsm(nl(0), left_spec, false, seed).map_err(|e| format!("left: {e}"))?;
            fsm(nl(1), right_spec, false, seed).map_err(|e| format!("right: {e}"))
        }
        Input::PlaPair {
            left,
            right,
            equivalent,
            ..
        } => {
            verdict(r, *equivalent)?;
            pla(nl(0), left, seed).map_err(|e| format!("left: {e}"))?;
            pla(nl(1), right, seed).map_err(|e| format!("right: {e}"))
        }
    }
}

fn verdict(r: &OpResult, equivalent: bool) -> Result<(), String> {
    match r.equivalent {
        Some(v) if v == equivalent => Ok(()),
        got => Err(format!(
            "verdict {got:?}, known answer {}",
            if equivalent {
                "equivalent"
            } else {
                "inequivalent"
            }
        )),
    }
}

fn ports(values: &[(&str, u128)]) -> HashMap<String, u128> {
    values.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn output(out: &HashMap<String, u128>, port: &str) -> Result<u128, String> {
    out.get(port)
        .copied()
        .ok_or_else(|| format!("netlist has no `{port}` output"))
}

/// Compares the netlist with [`FsmSpec::eval`] from reset.
fn fsm(nl: &Netlist, spec: &FsmSpec, programmable: bool, seed: u64) -> Result<(), String> {
    let mut sim = SeqSim::new(nl).map_err(|e| e.to_string())?;
    if programmable {
        let (next, out) = spec.to_table_words();
        for (addr, (&n, &o)) in next.iter().zip(&out).enumerate() {
            sim.step(&ports(&[
                ("cfg_addr", addr as u128),
                ("cfg_next", n),
                ("cfg_out", o),
                ("cfg_wen", 1),
            ]));
        }
        sim.step(&ports(&[("rst", 1)]));
    }
    let mut rng = Rng::new(seed, 0xC4EC);
    let mask = (1u64 << spec.num_inputs()) - 1;
    let mut state = spec.reset_state();
    for cycle in 0..CYCLES {
        let input = rng.next() & mask;
        let (next, want) = spec.eval(state, input);
        let got = output(&sim.step(&ports(&[("in", input as u128)])), "out")?;
        if got != want {
            return Err(format!(
                "cycle {cycle}, in {input:#x}: out {got:#x}, reference {want:#x}"
            ));
        }
        state = next;
    }
    Ok(())
}

/// Compares the registered field outputs with [`MicroProgram::simulate`],
/// one cycle later (cycle 0 shows the reset value).
fn pctrl(nl: &Netlist, p: &MicroProgram, flexible: bool, seed: u64) -> Result<(), String> {
    let mut sim = SeqSim::new(nl).map_err(|e| e.to_string())?;
    if flexible {
        let layout = ControlWordLayout::for_program(p);
        for addr in 0..1usize << p.upc_bits() {
            let word = p.instrs().get(addr).map_or(0, |i| layout.encode(p, i));
            sim.step(&ports(&[
                ("cfg_addr", addr as u128),
                ("cfg_data", word),
                ("cfg_wen", 1),
            ]));
        }
        sim.step(&ports(&[("rst", 1)]));
    }
    let mut rng = Rng::new(seed, 0x9C7);
    let conds: Vec<u64> = (0..CYCLES)
        .map(|_| rng.next() & ((1 << p.num_conds()) - 1))
        .collect();
    let trace = p.simulate(&conds, CYCLES);
    for (cycle, &cond) in conds.iter().enumerate() {
        let out = sim.step(&ports(&[("cond", cond as u128)]));
        for (fi, f) in p.format().fields().iter().enumerate() {
            let want = cycle.checked_sub(1).map_or(0, |t| trace[t][fi]);
            let got = output(&out, &f.name)?;
            if got != want {
                return Err(format!(
                    "cycle {cycle}: field `{}` {got:#x}, reference {want:#x}",
                    f.name
                ));
            }
        }
    }
    Ok(())
}

/// Compares the combinational netlist with cube evaluation, on uniform
/// vectors and on vectors drawn inside a random cube (uniform vectors
/// almost never hit a cube with many literals).
fn pla(nl: &Netlist, p: &PlaRef, seed: u64) -> Result<(), String> {
    let mut sim = SeqSim::new(nl).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed, 0x97A);
    let full = (1u64 << p.ni) - 1;
    for k in 0..2 * CYCLES {
        let mut x = rng.next() & full;
        if k % 2 == 1 {
            let (v, c, _) = p.cubes[rng.below(p.cubes.len())];
            x = (x & !c) | v;
        }
        let want = p.eval(x);
        let got = output(&sim.step(&ports(&[("in", x as u128)])), "out")?;
        if got != want {
            return Err(format!("in {x:#x}: out {got:#x}, reference {want:#x}"));
        }
    }
    Ok(())
}
