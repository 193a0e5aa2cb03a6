//! Structural hashing of the *mapped* netlist: merging identical cells.
//!
//! Before mapping, sharing is the AIG cleanup's job ([`crate::aigopt`]).
//! The rule mapper's NAND/NOR/AOI rewrites can then duplicate cells the
//! cleanup never saw, so the flow runs this pass once after it
//! (`strash_mapped`).

use std::collections::HashMap;
use synthir_netlist::{GateKind, NetId, Netlist};

/// Runs structural hashing. Returns the number of merges.
///
/// A single topological sweep suffices: each gate's inputs are first
/// canonicalized through the merges already recorded, so cascades resolve
/// without re-sorting or re-hashing the netlist per round (the old
/// fixpoint loop cloned every gate and re-ran `topological_order` each
/// iteration). All rewiring is applied in one bulk
/// [`Netlist::remap_uses`] at the end instead of a netlist-wide scan per
/// merge.
pub fn strash(nl: &mut Netlist) -> usize {
    let Ok(order) = synthir_netlist::topo::topological_order(nl) else {
        return 0;
    };
    let mut table: HashMap<(GateKind, Vec<NetId>), NetId> = HashMap::new();
    // Merged net → canonical net. Canonical nets are never themselves
    // merged (each key's first gate wins), so one lookup fully resolves.
    let mut repl: HashMap<NetId, NetId> = HashMap::new();
    let mut merges = 0;
    for gid in order {
        let gate = nl.gate(gid);
        if gate.kind.is_sequential() {
            // Merging flops is only sound when D, reset kind and init all
            // match; conservative and rarely profitable here — skip.
            continue;
        }
        let kind = gate.kind;
        let canon: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|n| *repl.get(n).unwrap_or(n))
            .collect();
        let key = (kind, normalize_inputs(kind, &canon));
        match table.get(&key) {
            Some(&existing) => {
                let out = nl.gate(gid).output;
                if existing != out {
                    repl.insert(out, existing);
                    merges += 1;
                }
            }
            None => {
                table.insert(key, nl.gate(gid).output);
            }
        }
    }
    nl.remap_uses(&repl);
    nl.sweep();
    merges
}

/// Sorts the inputs of commutative gates so permuted duplicates hash alike.
fn normalize_inputs(kind: GateKind, inputs: &[NetId]) -> Vec<NetId> {
    use GateKind::*;
    let mut v = inputs.to_vec();
    match kind {
        And2 | And3 | And4 | Or2 | Or3 | Or4 | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | Nor4
        | Xor2 | Xnor2 => v.sort(),
        Aoi21 | Oai21
            // (a, b) symmetric; c fixed.
            if v[0] > v[1] => {
                v.swap(0, 1);
            }
        Aoi22 | Oai22 => {
            // (a,b) and (c,d) symmetric, and the pairs commute.
            if v[0] > v[1] {
                v.swap(0, 1);
            }
            if v[2] > v[3] {
                v.swap(2, 3);
            }
            if (v[0], v[1]) > (v[2], v[3]) {
                v.swap(0, 2);
                v.swap(1, 3);
            }
        }
        _ => {}
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_identical_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::And2, &[b, a]); // permuted duplicate
        let z = nl.add_gate(GateKind::Or2, &[x, y]);
        nl.add_output("z", &[z]);
        let merges = strash(&mut nl);
        assert_eq!(merges, 1);
        // Or2(x, x) remains: strash merges, it does not fold.
        assert_eq!(nl.num_gates(), 2);
    }

    #[test]
    fn cascading_merges() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x1 = nl.add_gate(GateKind::And2, &[a, b]);
        let x2 = nl.add_gate(GateKind::And2, &[a, b]);
        let y1 = nl.add_gate(GateKind::Inv, &[x1]);
        let y2 = nl.add_gate(GateKind::Inv, &[x2]);
        nl.add_output("p", &[y1]);
        nl.add_output("q", &[y2]);
        let merges = strash(&mut nl);
        assert_eq!(merges, 2);
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.output_nets()[0], nl.output_nets()[1]);
    }

    #[test]
    fn flops_not_merged() {
        use synthir_netlist::ResetKind;
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 1)[0];
        let kind = GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        };
        let q1 = nl.add_gate(kind, &[d]);
        let q2 = nl.add_gate(kind, &[d]);
        nl.add_output("a", &[q1]);
        nl.add_output("b", &[q2]);
        assert_eq!(strash(&mut nl), 0);
        assert_eq!(nl.flop_count(), 2);
    }

    #[test]
    fn mux_inputs_not_reordered() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s", 1)[0];
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let m1 = nl.add_gate(GateKind::Mux2, &[s, a, b]);
        let m2 = nl.add_gate(GateKind::Mux2, &[s, b, a]);
        nl.add_output("x", &[m1]);
        nl.add_output("y", &[m2]);
        assert_eq!(strash(&mut nl), 0);
    }
}
