//! FSM extraction, unreachable-state pruning, and re-encoding.
//!
//! The paper's Fig. 6 experiment shows that a synthesis tool cannot detect
//! the state register of a *table-based* FSM (the coding style hides it), so
//! non-power-of-two state counts synthesize poorly — until the designer adds
//! the `set_fsm_state_vector` / `set_fsm_encoding` annotations, after which
//! table-based and case-statement styles synthesize nearly identically.
//!
//! This pass is that machinery. It only runs when FSM metadata
//! ([`synthir_rtl::elaborate::FsmNets`]) is present — metadata that the
//! case-statement coding style attaches automatically (mimicking the tool's
//! idiom recognition) and that a generator can derive from its tables for
//! the table-based style (the paper's recommendation).
//!
//! Given the state register, the pass:
//! 1. extracts the state-transition graph by exhaustive cone evaluation,
//! 2. prunes states unreachable from the reset state (the "Manual"
//!    optimization of the Fig. 9 PCtrl experiment),
//! 3. re-encodes the reachable states (binary / one-hot / Gray), and
//! 4. rebuilds next-state and output logic with the unused codes as
//!    don't-cares.

use crate::factor::emit_cover;
use crate::options::FsmEncoding;
use crate::SynthError;
use std::collections::{BTreeSet, HashMap};
use synthir_logic::espresso::EspressoOptions;
use synthir_logic::{BitVec, Cover, TruthTable};
use synthir_netlist::{topo, GateId, GateKind, NetId, Netlist, ResetKind};
use synthir_rtl::elaborate::FsmNets;

/// Enumeration budget (reachable codes × input combinations) for FSM
/// extraction.
const ENUM_LIMIT: usize = 1 << 18;

/// Re-encodes the FSM. Returns `Ok(true)` when the netlist was rewritten.
///
/// # Errors
///
/// Returns [`SynthError::FsmExtraction`] when the state register is damaged
/// (a state net no longer driven by a flop) or the extraction exceeds the
/// enumeration budget; callers typically treat this as "skip the pass",
/// exactly like a synthesis tool giving up on FSM extraction.
pub fn fsm_reencode(
    nl: &mut Netlist,
    fsm: &FsmNets,
    encoding: FsmEncoding,
) -> Result<bool, SynthError> {
    let state_width = fsm.state_nets.len();
    if state_width == 0 || state_width > 24 {
        return Err(SynthError::FsmExtraction(format!(
            "state register width {state_width} unsupported"
        )));
    }
    // Locate the state flops.
    let mut state_flops: Vec<GateId> = Vec::new();
    for &q in &fsm.state_nets {
        let Some(g) = nl.driver(q) else {
            return Err(SynthError::FsmExtraction(
                "state net has no driver (already folded?)".into(),
            ));
        };
        if !nl.gate(g).kind.is_sequential() {
            return Err(SynthError::FsmExtraction(
                "state net not driven by a flop".into(),
            ));
        }
        state_flops.push(g);
    }
    let (reset_kind, rst_net) = {
        let g = nl.gate(state_flops[0]);
        match g.kind {
            GateKind::Dff { reset, .. } => (reset, g.inputs.get(1).copied()),
            _ => unreachable!(),
        }
    };
    let state_d: Vec<NetId> = state_flops.iter().map(|&g| nl.gate(g).inputs[0]).collect();

    // Roots whose logic must be re-expressed over the new encoding: only
    // those that actually depend on the state register. Logic behind other
    // flop boundaries (e.g. a datapath fed from registered controller
    // outputs) is untouched — exactly the scope a tool's FSM extraction
    // has.
    let depends_on_state = |nl: &Netlist, root: NetId| {
        topo::comb_support(nl, root)
            .iter()
            .any(|s| fsm.state_nets.contains(s))
    };
    let output_roots: Vec<NetId> = nl
        .output_nets()
        .into_iter()
        .filter(|&r| depends_on_state(nl, r))
        .collect();
    let other_flops: Vec<GateId> = nl
        .gates()
        .filter(|(id, g)| {
            g.kind.is_sequential() && !state_flops.contains(id) && depends_on_state(nl, g.inputs[0])
        })
        .map(|(id, _)| id)
        .collect();
    let other_d: Vec<NetId> = other_flops.iter().map(|&g| nl.gate(g).inputs[0]).collect();

    // The free inputs: every non-state comb source feeding a rebuilt root.
    let mut others: BTreeSet<NetId> = BTreeSet::new();
    for &root in output_roots.iter().chain(&other_d).chain(&state_d) {
        for s in topo::comb_support(nl, root) {
            if !fsm.state_nets.contains(&s) {
                others.insert(s);
            }
        }
    }
    let others: Vec<NetId> = others.into_iter().collect();
    let f = others.len();
    let max_codes = 1usize << state_width.min(20);
    if f > 20 || max_codes.saturating_mul(1 << f) > ENUM_LIMIT {
        return Err(SynthError::FsmExtraction(format!(
            "enumeration budget exceeded ({} inputs, {} possible codes)",
            f, max_codes
        )));
    }

    // --- 1. Extract behaviour by exhaustive bit-parallel evaluation. ---
    let order =
        topo::topological_order(nl).map_err(|e| SynthError::InvalidNetlist(e.to_string()))?;
    let combos = 1usize << f;
    // Evaluate one state code at a time, all input combos bit-parallel.
    let eval_code = |nl: &Netlist, code: u128| -> HashMap<NetId, BitVec> {
        let mut vals = vec![0u64; nl.num_nets()];
        let words = combos.div_ceil(64);
        let mut out: HashMap<NetId, BitVec> = HashMap::new();
        let mut track: Vec<NetId> = Vec::new();
        track.extend(output_roots.iter().copied());
        track.extend(other_d.iter().copied());
        track.extend(state_d.iter().copied());
        track.sort();
        track.dedup();
        for &t in &track {
            out.insert(t, BitVec::zeros(combos));
        }
        for w in 0..words {
            for (i, &s) in others.iter().enumerate() {
                let mut word = 0u64;
                for b in 0..64 {
                    let p = w * 64 + b;
                    if p < combos && p >> i & 1 != 0 {
                        word |= 1 << b;
                    }
                }
                vals[s.index()] = word;
            }
            for (i, &s) in fsm.state_nets.iter().enumerate() {
                vals[s.index()] = if code >> i & 1 != 0 { u64::MAX } else { 0 };
            }
            let mut ins = Vec::with_capacity(4);
            for &gid in &order {
                let g = nl.gate(gid);
                if g.kind.is_sequential() {
                    continue;
                }
                ins.clear();
                ins.extend(g.inputs.iter().map(|i| vals[i.index()]));
                vals[g.output.index()] = g.kind.eval_words(&ins);
            }
            for &t in &track {
                let word = vals[t.index()];
                let bv = out.get_mut(&t).expect("tracked");
                for b in 0..64 {
                    let p = w * 64 + b;
                    if p < combos && word >> b & 1 != 0 {
                        bv.set(p, true);
                    }
                }
            }
        }
        out
    };

    // --- 2. Reachability BFS from the reset code. ---
    let mut reachable: Vec<u128> = vec![fsm.reset_code];
    let mut seen: BTreeSet<u128> = BTreeSet::new();
    seen.insert(fsm.reset_code);
    let mut behaviours: HashMap<u128, HashMap<NetId, BitVec>> = HashMap::new();
    let mut qi = 0;
    while qi < reachable.len() {
        let code = reachable[qi];
        qi += 1;
        if reachable.len() > max_codes {
            return Err(SynthError::FsmExtraction("state explosion".into()));
        }
        let beh = eval_code(nl, code);
        for combo in 0..combos {
            let mut next = 0u128;
            for (i, &d) in state_d.iter().enumerate() {
                if beh[&d].get(combo) {
                    next |= 1 << i;
                }
            }
            if seen.insert(next) {
                reachable.push(next);
            }
        }
        behaviours.insert(code, beh);
    }
    reachable.sort();
    let n_states = reachable.len();
    let idx_of: HashMap<u128, usize> = reachable.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // --- 3. Choose the new encoding. ---
    let new_codes: Vec<u128> = match encoding {
        FsmEncoding::Binary => (0..n_states as u128).collect(),
        FsmEncoding::Gray => (0..n_states as u128).map(|i| i ^ (i >> 1)).collect(),
        FsmEncoding::OneHot => (0..n_states).map(|i| 1u128 << i).collect(),
        FsmEncoding::Keep => reachable.clone(),
    };
    let new_width = match encoding {
        FsmEncoding::OneHot => n_states,
        FsmEncoding::Keep => state_width,
        _ => {
            let mut w = 1;
            while (1usize << w) < n_states {
                w += 1;
            }
            w
        }
    };
    if new_width + f > 22 {
        return Err(SynthError::FsmExtraction(
            "re-encoded truth tables too wide".into(),
        ));
    }
    let code_of_pattern: HashMap<u128, usize> =
        new_codes.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // --- 4. Rebuild logic over [new_state, others]. ---
    let total_vars = new_width + f;
    let dc_tt = TruthTable::from_fn(total_vars, |m| {
        let pat = (m & ((1 << new_width) - 1)) as u128;
        !code_of_pattern.contains_key(&pat)
    });
    let dc_cover = Cover::from_truth_table(&dc_tt);
    let espresso_opts = EspressoOptions::default();

    let new_q: Vec<NetId> = (0..new_width)
        .map(|i| nl.add_named_net(format!("fsm_state[{i}]")))
        .collect();
    let mut support: Vec<NetId> = new_q.clone();
    support.extend(others.iter().copied());

    // Collect the truth table of every root to rebuild (next-state bits,
    // outputs, non-state flop D inputs), then minimize them as one batch:
    // the per-root jobs are independent, so the batch driver runs them
    // concurrently with identical results.
    let root_tt = |value_of: &dyn Fn(usize, usize) -> bool| -> TruthTable {
        // value_of(state_idx, combo)
        TruthTable::from_fn(total_vars, |m| {
            let pat = (m & ((1 << new_width) - 1)) as u128;
            match code_of_pattern.get(&pat) {
                Some(&si) => value_of(si, m >> new_width),
                None => false,
            }
        })
    };
    let mut root_tts: Vec<TruthTable> = Vec::new();
    for bit in 0..new_width {
        root_tts.push(root_tt(&|si, combo| {
            let old_code = reachable[si];
            let beh = &behaviours[&old_code];
            let mut next = 0u128;
            for (i, &d) in state_d.iter().enumerate() {
                if beh[&d].get(combo) {
                    next |= 1 << i;
                }
            }
            let ni = idx_of[&next];
            new_codes[ni] >> bit & 1 != 0
        }));
    }
    for &o in &output_roots {
        root_tts.push(root_tt(&|si, combo| {
            behaviours[&reachable[si]][&o].get(combo)
        }));
    }
    for (fi, _) in other_flops.iter().enumerate() {
        let d = other_d[fi];
        root_tts.push(root_tt(&|si, combo| {
            behaviours[&reachable[si]][&d].get(combo)
        }));
    }
    let root_ons: Vec<Cover> = root_tts.iter().map(Cover::from_truth_table).collect();
    let covers =
        synthir_logic::espresso::minimize_batch(&root_ons, Some(&dc_cover), &espresso_opts);
    let mut cover_it = covers.iter();
    let mut next_root = |nl: &mut Netlist| -> NetId {
        emit_cover(nl, cover_it.next().expect("one cover per root"), &support)
    };

    // Next-state bits.
    let mut new_state_d: Vec<NetId> = Vec::with_capacity(new_width);
    for _ in 0..new_width {
        new_state_d.push(next_root(nl));
    }
    // Output roots.
    let mut new_outputs: Vec<(NetId, NetId)> = Vec::new();
    for &o in &output_roots {
        new_outputs.push((o, next_root(nl)));
    }
    // Non-state flop D roots.
    let mut new_other_d: Vec<(GateId, NetId)> = Vec::new();
    for &fgate in other_flops.iter() {
        new_other_d.push((fgate, next_root(nl)));
    }

    // --- 5. Stitch the new logic in. ---
    let new_reset_code = new_codes[idx_of[&fsm.reset_code]];
    for (i, &q) in new_q.iter().enumerate() {
        let init = new_reset_code >> i & 1 != 0;
        let kind = GateKind::Dff {
            reset: reset_kind,
            init,
        };
        let inputs: Vec<NetId> = match (reset_kind, rst_net) {
            (ResetKind::None, _) => vec![new_state_d[i]],
            (_, Some(r)) => vec![new_state_d[i], r],
            (_, None) => vec![new_state_d[i]],
        };
        nl.attach_gate(kind, &inputs, q)
            .expect("fresh state net is undriven");
    }
    for (old, new) in new_outputs {
        nl.replace_net_uses(old, new);
    }
    for (fgate, new_d) in new_other_d {
        let g = nl.gate(fgate).clone();
        let mut inputs = g.inputs.clone();
        inputs[0] = new_d;
        nl.rewrite_gate(fgate, g.kind, &inputs);
    }
    nl.sweep();
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-state counter written over 2 bits: state 3 is unreachable. The
    /// direct netlist wastes logic treating code 3 as a care condition.
    fn mod3_counter(extra_wasteful: bool) -> (Netlist, FsmNets) {
        let mut nl = Netlist::new("mod3");
        let rst = nl.add_input("rst", 1)[0];
        let en = nl.add_input("en", 1)[0];
        let q0 = nl.add_net();
        let q1 = nl.add_net();
        // next0 = en ? !q0 & !q1 : q0 ; next1 = en ? q0 : q1
        let nq0 = nl.add_gate(GateKind::Inv, &[q0]);
        let nq1 = nl.add_gate(GateKind::Inv, &[q1]);
        let both0 = nl.add_gate(GateKind::And2, &[nq0, nq1]);
        let d0 = nl.add_gate(GateKind::Mux2, &[en, q0, both0]);
        let mut next1 = q0;
        if extra_wasteful {
            // Same function, clumsier structure.
            let t = nl.add_gate(GateKind::And2, &[q0, q0]);
            next1 = nl.add_gate(GateKind::Or2, &[t, both0]);
            // (q0 | (!q0 & !q1)) differs from q0 at state 0; mask with q0:
            next1 = nl.add_gate(GateKind::And2, &[next1, q0]);
        }
        let d1 = nl.add_gate(GateKind::Mux2, &[en, q1, next1]);
        let kind = GateKind::Dff {
            reset: ResetKind::Sync,
            init: false,
        };
        nl.attach_gate(kind, &[d0, rst], q0).unwrap();
        nl.attach_gate(kind, &[d1, rst], q1).unwrap();
        // Output: one-hot decode of the state.
        let s0 = nl.add_gate(GateKind::And2, &[nq0, nq1]);
        let s1 = nl.add_gate(GateKind::And2, &[q0, nq1]);
        let s2 = nl.add_gate(GateKind::And2, &[nq0, q1]);
        nl.add_output("onehot", &[s0, s1, s2]);
        let fsm = FsmNets {
            state_nets: vec![q0, q1],
            codes: vec![0, 1, 2],
            reset_code: 0,
        };
        (nl, fsm)
    }

    #[test]
    fn reencode_preserves_behaviour() {
        let (mut nl, fsm) = mod3_counter(false);
        let golden = nl.clone();
        assert!(fsm_reencode(&mut nl, &fsm, FsmEncoding::Binary).unwrap());
        crate::constfold::const_fold(&mut nl);
        let res =
            synthir_sim::check_seq_equiv(&golden, &nl, &synthir_sim::EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn onehot_encoding_uses_one_flop_per_state() {
        let (mut nl, fsm) = mod3_counter(false);
        let golden = mod3_counter(false).0;
        fsm_reencode(&mut nl, &fsm, FsmEncoding::OneHot).unwrap();
        // One-hot over 3 states allocates 3 state bits, but the third is
        // inferable from the other two and may be swept.
        assert!(nl.flop_count() >= 2 && nl.flop_count() <= 3);
        let res =
            synthir_sim::check_seq_equiv(&golden, &nl, &synthir_sim::EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn gray_and_keep_encodings_work() {
        for enc in [FsmEncoding::Gray, FsmEncoding::Keep, FsmEncoding::Binary] {
            let (mut nl, fsm) = mod3_counter(false);
            let golden = nl.clone();
            fsm_reencode(&mut nl, &fsm, enc).unwrap();
            let res = synthir_sim::check_seq_equiv(&golden, &nl, &synthir_sim::EquivOptions::new())
                .unwrap();
            assert!(res.is_equivalent(), "{enc:?}: {res:?}");
        }
    }

    #[test]
    fn fails_cleanly_without_state_flops() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let y = nl.add_gate(GateKind::Inv, &[a]);
        nl.add_output("y", &[y]);
        let fsm = FsmNets {
            state_nets: vec![a],
            codes: vec![0, 1],
            reset_code: 0,
        };
        assert!(matches!(
            fsm_reencode(&mut nl, &fsm, FsmEncoding::Binary),
            Err(SynthError::FsmExtraction(_))
        ));
    }
}
