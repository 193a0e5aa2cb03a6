//! Cone extraction: collapsing a combinational cone to a truth table.

use std::collections::HashMap;
use synthir_logic::{BitVec, TruthTable};
use synthir_netlist::{topo, GateId, GateKind, NetId, Netlist};

/// The complete function of a combinational cone rooted at `root`, expressed
/// over the cone's support (primary inputs and flop outputs), or `None` if
/// the support exceeds `max_support`.
///
/// Variable `i` of the returned table corresponds to `support[i]`.
pub fn cone_function(
    nl: &Netlist,
    root: NetId,
    max_support: usize,
) -> Option<(Vec<NetId>, TruthTable)> {
    let support = topo::comb_support_bounded(nl, root, max_support)?;
    let tt = cone_function_on(nl, root, &support);
    Some((support, tt))
}

/// The function of a cone over an explicitly provided support ordering.
///
/// # Panics
///
/// Panics if `support.len() > 24`. Debug builds also panic if the cone
/// reads a source outside `support` (other than constants); release builds
/// read such a source as 0.
pub fn cone_function_on(nl: &Netlist, root: NetId, support: &[NetId]) -> TruthTable {
    eval_cone(nl, root, support, &topo::cone_gates(nl, root))
}

/// [`cone_function_on`] for a caller that already holds the cone's gates
/// (`topo::cone_gates(nl, root)`, inputs before consumers).
///
/// The cone is compiled once into a program over local value slots —
/// the support, the two constants, then one slot per gate — and run 64
/// patterns at a time, so the work is proportional to the cone, not to
/// the netlist.
pub(crate) fn eval_cone(
    nl: &Netlist,
    root: NetId,
    support: &[NetId],
    gates: &[GateId],
) -> TruthTable {
    let k = support.len();
    assert!(k <= 24, "cone support too large to enumerate");
    let (zero, one) = (k as u32, k as u32 + 1);
    let mut slot: HashMap<NetId, u32> = support
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let slot_of = |slot: &HashMap<NetId, u32>, n: NetId| match slot.get(&n) {
        Some(&s) => s,
        None => match nl.as_constant(n) {
            Some(v) => u32::from(v) + zero,
            None => {
                debug_assert!(false, "cone reads {n:?}, which is outside its support");
                zero
            }
        },
    };
    let mut program: Vec<(GateKind, [u32; 4])> = Vec::with_capacity(gates.len());
    for (j, &gid) in gates.iter().enumerate() {
        let g = nl.gate(gid);
        let mut ins = [zero; 4];
        for (pin, &i) in g.inputs.iter().enumerate() {
            ins[pin] = slot_of(&slot, i);
        }
        program.push((g.kind, ins));
        slot.insert(g.output, one + 1 + j as u32);
    }
    let root_slot = slot_of(&slot, root) as usize;

    // Bit b of the pattern word for variable i < 6 is bit i of b; higher
    // variables are constant within a word.
    const VAR_WORDS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let n_patterns = 1usize << k;
    let mut vals = vec![0u64; k + 2 + gates.len()];
    vals[one as usize] = u64::MAX;
    let mut words = Vec::with_capacity(n_patterns.div_ceil(64));
    for w in 0..n_patterns.div_ceil(64) {
        for (i, v) in vals[..k].iter_mut().enumerate() {
            *v = match VAR_WORDS.get(i) {
                Some(&word) => word,
                None if w >> (i - 6) & 1 != 0 => u64::MAX,
                None => 0,
            };
        }
        for (j, (kind, ins)) in program.iter().enumerate() {
            let arity = kind.arity();
            let mut x = [0u64; 4];
            for (xv, &s) in x.iter_mut().zip(&ins[..arity]) {
                *xv = vals[s as usize];
            }
            vals[k + 2 + j] = kind.eval_words(&x[..arity]);
        }
        words.push(vals[root_slot]);
    }
    TruthTable::from_bits(k, BitVec::from_words(n_patterns, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::GateKind;

    #[test]
    fn extracts_majority() {
        let mut nl = Netlist::new("maj");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let bc = nl.add_gate(GateKind::And2, &[b, c]);
        let ac = nl.add_gate(GateKind::And2, &[a, c]);
        let t = nl.add_gate(GateKind::Or2, &[ab, bc]);
        let y = nl.add_gate(GateKind::Or2, &[t, ac]);
        nl.add_output("y", &[y]);
        let (support, tt) = cone_function(&nl, y, 8).unwrap();
        assert_eq!(support.len(), 3);
        // Variable order follows support (sorted by NetId = a, b, c).
        let expected = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        assert_eq!(tt, expected);
    }

    #[test]
    fn respects_support_limit() {
        let mut nl = Netlist::new("wide");
        let xs = nl.add_input("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = nl.add_gate(GateKind::And2, &[acc, x]);
        }
        nl.add_output("y", &[acc]);
        assert!(cone_function(&nl, acc, 5).is_none());
        assert!(cone_function(&nl, acc, 6).is_some());
    }

    #[test]
    fn constants_in_cone() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And2, &[a, c1]);
        nl.add_output("y", &[y]);
        let (support, tt) = cone_function(&nl, y, 4).unwrap();
        assert_eq!(support.len(), 1);
        assert_eq!(tt, TruthTable::variable(1, 0));
    }

    #[test]
    fn wide_cone_multiword() {
        // 7 inputs → 128 patterns → 2 words.
        let mut nl = Netlist::new("parity7");
        let xs = nl.add_input("x", 7);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = nl.add_gate(GateKind::Xor2, &[acc, x]);
        }
        nl.add_output("y", &[acc]);
        let (_, tt) = cone_function(&nl, acc, 7).unwrap();
        let expected = TruthTable::from_fn(7, |m| m.count_ones() % 2 == 1);
        assert_eq!(tt, expected);
    }
}
