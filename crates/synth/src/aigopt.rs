//! The AIG cleanup pass: the netlist-facing wrapper around the
//! [`synthir_aig`] optimization core.
//!
//! This is the synthesis flow's only cleanup engine: it runs first and
//! again after every pass that restructures the netlist. One invocation
//! imports the netlist into a structurally hashed And-Inverter Graph —
//! where constant folding, sharing, and two-level simplification happen
//! *at construction* — locally rewrites it (2-input-cut NPN resynthesis,
//! stuck-at-init flop folding, dangling-node sweep), optionally SAT-sweeps
//! it, and exports it back. Port names, flop reset/init semantics, and the
//! FSM / value-set annotations the paper's flow depends on are carried
//! across the round-trip by literal maps.

use synthir_aig::{from_netlist, optimize, to_netlist, AigLit, SweepOptions};
use synthir_netlist::{NetId, Netlist};
use synthir_rtl::elaborate::{FsmNets, NetGroupValues};

/// Runs the AIG cleanup over `nl` in place, remapping the FSM metadata and
/// value-set annotations onto the rebuilt netlist. Returns the number of
/// rewrites: gates eliminated across the round-trip (construction-time
/// folding included) plus SAT-sweep merges.
pub fn aig_optimize(
    nl: &mut Netlist,
    mut fsm: Option<&mut FsmNets>,
    annotations: &mut [NetGroupValues],
    sat_sweep: bool,
) -> usize {
    let gates_before = nl.num_gates();
    let Ok(imp) = from_netlist(nl) else {
        // Cyclic netlists are rejected by `compile`'s validation before any
        // pass runs; a failure here means "leave the netlist untouched".
        return 0;
    };
    // Literals that must stay materialized across the rebuild: the FSM
    // state vector and every annotated net group.
    let mut keep: Vec<AigLit> = Vec::new();
    let net_keep = |keep: &mut Vec<AigLit>, nets: &[NetId]| -> bool {
        let lits: Option<Vec<AigLit>> = nets.iter().map(|&n| imp.lits.get(n)).collect();
        match lits {
            Some(lits) => {
                keep.extend(&lits);
                true
            }
            None => false,
        }
    };
    let fsm_mapped = fsm
        .as_ref()
        .is_some_and(|f| net_keep(&mut keep, &f.state_nets));
    let anno_mapped: Vec<bool> = annotations
        .iter()
        .map(|g| net_keep(&mut keep, &g.nets))
        .collect();

    let sweep_opts = SweepOptions::default();
    let (opt, stats) = optimize(&imp.aig, &keep, sat_sweep.then_some(&sweep_opts));
    let exp = to_netlist(
        &opt.aig,
        &keep.iter().map(|&l| opt.lit(l)).collect::<Vec<_>>(),
    );

    // Remap the metadata through import → optimize → export.
    let remap = |nets: &mut [NetId]| {
        for n in nets.iter_mut() {
            let lit = opt.lit(imp.lits.get(*n).expect("kept net was mapped"));
            *n = exp.net_of(lit).expect("kept literal has a net");
        }
    };
    if fsm_mapped {
        if let Some(f) = &mut fsm {
            remap(&mut f.state_nets);
        }
    }
    for (g, mapped) in annotations.iter_mut().zip(&anno_mapped) {
        if *mapped {
            remap(&mut g.nets);
        } else {
            // A net of this group was invisible to the import (cannot
            // happen for elaborated designs); neutralize the group rather
            // than let stale ids alias the rebuilt netlist.
            g.nets.clear();
        }
    }
    *nl = exp.netlist;
    gates_before.saturating_sub(nl.num_gates()) + stats.sat_merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_logic::ValueSet;
    use synthir_netlist::{GateKind, ResetKind};

    #[test]
    fn folds_and_shares_in_one_call() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c1 = nl.const1();
        let x = nl.add_gate(GateKind::And2, &[a, c1]); // == a
        let y = nl.add_gate(GateKind::And2, &[x, b]);
        let z = nl.add_gate(GateKind::And2, &[b, a]); // == y after folding
        let w = nl.add_gate(GateKind::Or2, &[y, z]); // == y
        nl.add_output("w", &[w]);
        let n = aig_optimize(&mut nl, None, &mut [], false);
        assert!(n >= 1);
        // One And2 remains.
        assert_eq!(nl.num_gates(), 1);
        nl.validate().unwrap();
    }

    /// Runs the cleanup with no metadata.
    fn optimize(nl: &mut Netlist) {
        aig_optimize(nl, None, &mut [], false);
        nl.validate().unwrap();
    }

    #[test]
    fn folds_constant_and() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And2, &[a, c1]);
        nl.add_output("y", &[y]);
        optimize(&mut nl);
        // The AND is gone; output is the input directly.
        assert_eq!(nl.output_nets()[0], nl.input("a").unwrap().nets[0]);
        assert_eq!(nl.num_gates(), 0);
    }

    #[test]
    fn folds_mux_tree_of_constants() {
        // A 4:1 constant mux tree holding 0,1,1,0 is XOR.
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s", 2);
        let c0 = nl.const0();
        let c1 = nl.const1();
        let lo = nl.add_gate(GateKind::Mux2, &[s[0], c0, c1]);
        let hi = nl.add_gate(GateKind::Mux2, &[s[0], c1, c0]);
        let y = nl.add_gate(GateKind::Mux2, &[s[1], lo, hi]);
        nl.add_output("y", &[y]);
        optimize(&mut nl);
        let lib = synthir_netlist::Library::vt90();
        assert!(nl.area_report(&lib).combinational <= 2.0 * lib.area(GateKind::Xor2));
        assert!(nl.num_gates() <= 3);
    }

    #[test]
    fn removes_double_inverters_and_buffers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_gate(GateKind::Buf, &[a]);
        let i1 = nl.add_gate(GateKind::Inv, &[b]);
        let i2 = nl.add_gate(GateKind::Inv, &[i1]);
        nl.add_output("y", &[i2]);
        optimize(&mut nl);
        assert_eq!(nl.output_nets()[0], nl.input("a").unwrap().nets[0]);
    }

    #[test]
    fn folds_xor_identities() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let same = nl.add_gate(GateKind::Xor2, &[a, a]);
        let na = nl.add_gate(GateKind::Inv, &[a]);
        let comp = nl.add_gate(GateKind::Xnor2, &[a, na]);
        nl.add_output("z", &[same]);
        nl.add_output("c", &[comp]);
        optimize(&mut nl);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
        assert_eq!(nl.as_constant(nl.output_nets()[1]), Some(false));
    }

    #[test]
    fn and_with_complement_is_zero() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let na = nl.add_gate(GateKind::Inv, &[a]);
        let y = nl.add_gate(GateKind::And2, &[a, na]);
        nl.add_output("y", &[y]);
        optimize(&mut nl);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
    }

    #[test]
    fn mux_strength_reduction() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s", 1)[0];
        let d = nl.add_input("d", 1)[0];
        let c0 = nl.const0();
        let y = nl.add_gate(GateKind::Mux2, &[s, c0, d]);
        nl.add_output("y", &[y]);
        optimize(&mut nl);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And2);
    }

    #[test]
    fn nary_gates_shrink() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And3, &[a, c1, b]);
        nl.add_output("y", &[y]);
        optimize(&mut nl);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And2);
        // Nand with a zero input is constant one.
        let mut nl2 = Netlist::new("t2");
        let a2 = nl2.add_input("a", 1)[0];
        let c0 = nl2.const0();
        let y2 = nl2.add_gate(GateKind::Nand3, &[a2, c0, a2]);
        nl2.add_output("y", &[y2]);
        optimize(&mut nl2);
        assert_eq!(nl2.as_constant(nl2.output_nets()[0]), Some(true));
    }

    #[test]
    fn fsm_metadata_is_remapped_onto_surviving_flops() {
        let mut nl = Netlist::new("t");
        let rst = nl.add_input("rst", 1)[0];
        let d = nl.add_input("d", 1)[0];
        // A state register behind a removable double inverter.
        let i1 = nl.add_gate(GateKind::Inv, &[d]);
        let i2 = nl.add_gate(GateKind::Inv, &[i1]);
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[i2, rst],
        );
        nl.add_output("q", &[q]);
        let mut fsm = FsmNets {
            state_nets: vec![q],
            codes: vec![0, 1],
            reset_code: 0,
        };
        aig_optimize(&mut nl, Some(&mut fsm), &mut [], false);
        // The state net survived and is still flop-driven.
        let sq = fsm.state_nets[0];
        let drv = nl.driver(sq).expect("state net driven");
        assert!(nl.gate(drv).kind.is_sequential());
        assert_eq!(nl.flop_count(), 1);
        // The double inverter is gone.
        assert_eq!(nl.num_gates(), 1);
    }

    #[test]
    fn annotations_follow_their_nets() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 2);
        let i1 = nl.add_gate(GateKind::Inv, &[x[0]]);
        let g0 = nl.add_gate(GateKind::Inv, &[i1]); // == x[0]
        let y = nl.add_gate(GateKind::And2, &[g0, x[1]]);
        nl.add_output("y", &[y]);
        let mut annos = vec![NetGroupValues {
            nets: vec![g0, x[1]],
            values: ValueSet::from_values(2, [0b01u128, 0b10]),
        }];
        aig_optimize(&mut nl, None, &mut annos, false);
        // Every annotated net exists in the rebuilt netlist and feeds the
        // surviving logic (g0 collapsed onto the input).
        for &n in &annos[0].nets {
            assert!(n.index() < nl.num_nets());
        }
        nl.validate().unwrap();
    }
}
