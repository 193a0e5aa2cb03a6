//! Collapse-and-re-cover resynthesis.
//!
//! For every output and flop-input cone within the effort limit, the cone is
//! collapsed to a two-level cover, minimized with the espresso loop, factored
//! and re-emitted. This is the step that makes a constant-folded table reach
//! the area of a hand-written sum-of-products (Fig. 5): after folding, both
//! styles describe the same function, and re-covering erases most of the
//! structural difference — though not all of it, because the minimizer is
//! seeded with the *structural* cover of the existing netlist, so different
//! starting RTL can land in different local optima, exactly the scatter the
//! paper attributes to the tool's "bumpy" optimization surface.

use crate::conefn::cone_function;
use crate::factor::emit_cover;
use synthir_logic::espresso::{minimize, EspressoOptions};
use synthir_logic::{Cover, Cube, TruthTable};
use synthir_netlist::{topo, GateKind, Library, NetId, Netlist};

/// Maximum cone support for collapse-and-re-cover. Models the tool's
/// effort limit; cones wider than this keep their structural form.
const COLLAPSE_SUPPORT: usize = 14;
/// Rebuilds whose minimized cover exceeds this many cubes are rejected
/// (protects parity-like functions from exponential covers).
const MAX_COVER_CUBES: usize = 96;

/// Re-covers all eligible cones. Returns the number of cones rebuilt.
///
/// Each rebuild is accepted only when the re-covered logic is estimated to
/// be no larger than the logic it retires (under [`Library::vt90`]), so the
/// pass never degrades structurally good implementations such as XOR trees.
///
/// The pass runs in two phases. Phase 1 collapses and minimizes every
/// eligible cone against the pre-pass netlist concurrently (the expensive,
/// pure work). Phase 2 applies the rebuilds serially in root order; until
/// the first mutation the netlist is untouched, so plans apply without any
/// re-collapse, and after a mutation each remaining plan is re-validated
/// against the current netlist — a cone altered by an earlier rebuild is
/// simply re-minimized on the spot. Either way the result is identical to
/// a fully serial pass.
pub fn resynthesize(nl: &mut Netlist) -> usize {
    let mut roots: Vec<NetId> = Vec::new();
    for net in nl.output_nets() {
        roots.push(net);
    }
    for (_, g) in nl.gates() {
        if g.kind.is_sequential() {
            roots.push(g.inputs[0]);
        }
    }
    roots.sort();
    roots.dedup();
    let plans: Vec<Option<ConePlan>> =
        synthir_logic::par::par_map(&roots, |&root| plan_root(nl, root));
    let mut rebuilt = 0;
    let mut mutated = false;
    for (&root, plan) in roots.iter().zip(&plans) {
        if rebuild_root(nl, root, plan.as_ref(), &mut mutated) {
            rebuilt += 1;
        }
    }
    nl.sweep();
    rebuilt
}

/// The precomputed (phase-1) minimization of one cone, valid as long as the
/// cone still collapses to the same function from the same start cover.
struct ConePlan {
    support: Vec<NetId>,
    tt: TruthTable,
    start: Cover,
    minimized: Cover,
}

fn plan_root(nl: &Netlist, root: NetId) -> Option<ConePlan> {
    let driver = nl.driver(root)?;
    let kind = nl.gate(driver).kind;
    if kind.is_sequential() || kind.is_constant() {
        return None;
    }
    let (support, tt) = cone_function(nl, root, COLLAPSE_SUPPORT)?;
    if tt.as_constant().is_some() {
        return None; // cheap: handled directly in phase 2
    }
    let start = structural_cover(nl, root, &support, 4 * MAX_COVER_CUBES)
        .unwrap_or_else(|| Cover::from_truth_table(&tt));
    let minimized = minimize(&start, None, &EspressoOptions::default());
    Some(ConePlan {
        support,
        tt,
        start,
        minimized,
    })
}

fn rebuild_root(
    nl: &mut Netlist,
    root: NetId,
    plan: Option<&ConePlan>,
    mutated: &mut bool,
) -> bool {
    // Until the first mutation the netlist is exactly what phase 1 saw, so
    // the plan needs no re-validation — re-collapsing the cone here would
    // just repeat phase 1's work serially.
    if let Some(p) = plan {
        if !*mutated {
            return apply_rebuild(nl, root, &p.support, &p.tt, &p.minimized, mutated);
        }
    }
    let Some(driver) = nl.driver(root) else {
        return false;
    };
    let kind = nl.gate(driver).kind;
    if kind.is_sequential() || kind.is_constant() {
        return false;
    }
    let Some((support, tt)) = cone_function(nl, root, COLLAPSE_SUPPORT) else {
        return false;
    };
    if let Some(v) = tt.as_constant() {
        let c = nl.constant(v);
        nl.replace_net_uses(root, c);
        *mutated = true;
        return true;
    }
    // Seed the minimizer with the structural cover when it is small enough;
    // otherwise fall back to the canonical minterm cover.
    let start = structural_cover(nl, root, &support, 4 * MAX_COVER_CUBES)
        .unwrap_or_else(|| Cover::from_truth_table(&tt));
    let minimized = match plan {
        Some(p) if p.support == support && p.tt == tt && p.start == start => p.minimized.clone(),
        _ => minimize(&start, None, &EspressoOptions::default()),
    };
    apply_rebuild(nl, root, &support, &tt, &minimized, mutated)
}

/// Accepts or rejects a minimized cover for a cone and stitches it in when
/// it pays off. Sets `mutated` when the netlist changes.
fn apply_rebuild(
    nl: &mut Netlist,
    root: NetId,
    support: &[NetId],
    tt: &TruthTable,
    minimized: &Cover,
    mutated: &mut bool,
) -> bool {
    if minimized.cube_count() > MAX_COVER_CUBES {
        return false; // parity-like function: keep the structural form
    }
    debug_assert_eq!(
        &minimized.to_truth_table(support.len()),
        tt,
        "resynthesis must preserve the cone function"
    );
    // Accept only if the rebuilt logic is no larger than what it retires.
    let lib = Library::vt90();
    let new_cost = {
        let mut scratch = Netlist::new("scratch");
        let fake = scratch.add_input("x", support.len());
        let r = emit_cover(&mut scratch, minimized, &fake);
        let _ = r;
        scratch.area_report(&lib).combinational
    };
    if new_cost > dying_cone_area(nl, root, &lib) {
        return false;
    }
    let new_root = emit_cover(nl, minimized, support);
    // emit_cover adds gates even when the rebuild is then abandoned, so the
    // netlist diverges from the phase-1 snapshot either way.
    *mutated = true;
    if new_root == root {
        return false;
    }
    nl.replace_net_uses(root, new_root);
    true
}

/// The area of the cone gates that would die if every consumer of `root`
/// were rewired away: gates whose fanout lies entirely within the dying
/// set (computed by reverse-topological accumulation from the root driver).
fn dying_cone_area(nl: &Netlist, root: NetId, lib: &Library) -> f64 {
    let cone = topo::cone_gates(nl, root); // topological: inputs first
    let in_cone: std::collections::HashSet<_> = cone.iter().copied().collect();
    let fanout = nl.fanout_map();
    let out_nets: std::collections::HashSet<NetId> = nl.output_nets().into_iter().collect();
    let mut dying: std::collections::HashSet<synthir_netlist::GateId> =
        std::collections::HashSet::new();
    for &g in cone.iter().rev() {
        let out = nl.gate(g).output;
        if out == root {
            dying.insert(g);
            continue;
        }
        // Output ports keep a gate alive; so does any consumer outside the
        // dying set.
        let survives = out_nets.contains(&out)
            || fanout[out.index()]
                .iter()
                .any(|c| !in_cone.contains(c) || !dying.contains(c));
        if !survives {
            dying.insert(g);
        }
    }
    // Sum in cone order: `HashSet` order varies from run to run, and the
    // rounding of an f64 sum depends on its order, which would flip the
    // caller's tie test between runs.
    cone.iter()
        .filter(|g| dying.contains(g))
        .map(|&g| lib.area(nl.gate(g).kind))
        .sum()
}

/// Extracts a sum-of-products cover of the cone by structural collapse
/// (the tool's internal "collapse" operation). Returns `None` if any
/// intermediate cover exceeds `cap` cubes.
pub fn structural_cover(nl: &Netlist, root: NetId, support: &[NetId], cap: usize) -> Option<Cover> {
    let nvars = support.len();
    let var_of = |n: NetId| support.iter().position(|&s| s == n);
    let gates = topo::cone_gates(nl, root);
    // Per-net cover (and its complement where cheap to track).
    let mut covers: std::collections::HashMap<NetId, Cover> = std::collections::HashMap::new();
    let lookup = |covers: &std::collections::HashMap<NetId, Cover>,
                  nl: &Netlist,
                  n: NetId|
     -> Option<Cover> {
        if let Some(v) = var_of(n) {
            return Some(Cover::from_cubes(
                nvars,
                [Cube::new(nvars, 1u64 << v, 1u64 << v)],
            ));
        }
        if let Some(c) = nl.as_constant(n) {
            return Some(if c {
                Cover::tautology_cover(nvars)
            } else {
                Cover::empty(nvars)
            });
        }
        covers.get(&n).cloned()
    };
    for gid in gates {
        let g = nl.gate(gid).clone();
        let ins: Vec<Cover> = g
            .inputs
            .iter()
            .map(|&i| lookup(&covers, nl, i))
            .collect::<Option<Vec<_>>>()?;
        let out = eval_cover(g.kind, &ins, cap)?;
        if out.cube_count() > cap {
            return None;
        }
        covers.insert(g.output, out);
    }
    lookup(&covers, nl, root)
}

fn eval_cover(kind: GateKind, ins: &[Cover], cap: usize) -> Option<Cover> {
    use GateKind::*;
    let and2 = |a: &Cover, b: &Cover| -> Option<Cover> {
        let mut out = Cover::empty(a.nvars());
        for x in a.cubes() {
            for y in b.cubes() {
                if let Some(c) = x.intersect(y) {
                    out.push(c);
                }
                if out.cube_count() > cap {
                    return None;
                }
            }
        }
        out.remove_contained_cubes();
        Some(out)
    };
    let or_all = |cs: &[Cover]| -> Option<Cover> {
        let mut out = cs[0].clone();
        for c in &cs[1..] {
            out = out.union(c);
        }
        out.remove_contained_cubes();
        if out.cube_count() > cap {
            None
        } else {
            Some(out)
        }
    };
    let and_all = |cs: &[Cover]| -> Option<Cover> {
        let mut out = cs[0].clone();
        for c in &cs[1..] {
            out = and2(&out, c)?;
        }
        Some(out)
    };
    let not = |c: &Cover| -> Option<Cover> {
        let r = c.complement();
        if r.cube_count() > cap {
            None
        } else {
            Some(r)
        }
    };
    match kind {
        Const0 => Some(Cover::empty(ins.first().map(|c| c.nvars()).unwrap_or(0))),
        Const1 => Some(Cover::tautology_cover(
            ins.first().map(|c| c.nvars()).unwrap_or(0),
        )),
        Buf => Some(ins[0].clone()),
        Inv => not(&ins[0]),
        And2 | And3 | And4 => and_all(ins),
        Or2 | Or3 | Or4 => or_all(ins),
        Nand2 | Nand3 | Nand4 => not(&and_all(ins)?),
        Nor2 | Nor3 | Nor4 => not(&or_all(ins)?),
        Xor2 => {
            let na = not(&ins[0])?;
            let nb = not(&ins[1])?;
            or_all(&[and2(&ins[0], &nb)?, and2(&na, &ins[1])?])
        }
        Xnor2 => {
            let na = not(&ins[0])?;
            let nb = not(&ins[1])?;
            or_all(&[and2(&ins[0], &ins[1])?, and2(&na, &nb)?])
        }
        Mux2 => {
            let ns = not(&ins[0])?;
            or_all(&[and2(&ns, &ins[1])?, and2(&ins[0], &ins[2])?])
        }
        Aoi21 => not(&or_all(&[and2(&ins[0], &ins[1])?, ins[2].clone()])?),
        Oai21 => not(&and2(&or_all(&[ins[0].clone(), ins[1].clone()])?, &ins[2])?),
        Aoi22 => not(&or_all(&[
            and2(&ins[0], &ins[1])?,
            and2(&ins[2], &ins[3])?,
        ])?),
        Oai22 => not(&and2(
            &or_all(&[ins[0].clone(), ins[1].clone()])?,
            &or_all(&[ins[2].clone(), ins[3].clone()])?,
        )?),
        Dff { .. } => None,
    }
}

/// Convenience: the truth table of the root must survive resynthesis; used
/// by tests and by the flow's internal assertions.
pub fn cone_tt(nl: &Netlist, root: NetId, max_support: usize) -> Option<TruthTable> {
    cone_function(nl, root, max_support).map(|(_, tt)| tt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::Library;

    /// Builds the raw mux-tree netlist for a 3-input truth table (as table
    /// elaboration would) and checks resynthesis collapses it to SOP size.
    #[test]
    fn collapses_constant_mux_tree() {
        let tt = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let mut nl = Netlist::new("t");
        let s = nl.add_input("x", 3);
        let leaves: Vec<NetId> = (0..8).map(|m| nl.constant(tt.eval(m))).collect();
        // Build mux tree.
        fn tree(nl: &mut Netlist, leaves: &[NetId], addr: &[NetId]) -> NetId {
            if addr.is_empty() {
                return leaves[0];
            }
            let half = leaves.len() / 2;
            let msb = addr[addr.len() - 1];
            let lo = tree(nl, &leaves[..half], &addr[..addr.len() - 1]);
            let hi = tree(nl, &leaves[half..], &addr[..addr.len() - 1]);
            nl.add_gate(GateKind::Mux2, &[msb, lo, hi])
        }
        let y = tree(&mut nl, &leaves, &s);
        nl.add_output("y", &[y]);

        let before = nl.num_gates();
        crate::constfold::const_fold(&mut nl);
        resynthesize(&mut nl);
        crate::constfold::const_fold(&mut nl);
        assert!(nl.num_gates() < before);
        // Function preserved.
        let out = nl.output_nets()[0];
        let tt2 = cone_tt(&nl, out, 8).unwrap();
        assert_eq!(tt2, tt);
        // Majority-of-3 factored: at most ~6 gates.
        assert!(nl.num_gates() <= 6, "got {}", nl.num_gates());
        let lib = Library::vt90();
        assert!(nl.area_report(&lib).combinational < 30.0);
    }

    #[test]
    fn skips_parity_blowup() {
        // 10-input parity: espresso cover has 512 cubes > cap; the XOR tree
        // must be left intact.
        let mut nl = Netlist::new("p");
        let xs = nl.add_input("x", 10);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = nl.add_gate(GateKind::Xor2, &[acc, x]);
        }
        nl.add_output("y", &[acc]);
        let before = nl.num_gates();
        resynthesize(&mut nl);
        assert_eq!(nl.num_gates(), before);
    }

    #[test]
    fn structural_cover_matches_function() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let ab = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let cd = nl.add_gate(GateKind::Nand2, &[x[2], x[3]]);
        let y = nl.add_gate(GateKind::Xor2, &[ab, cd]);
        nl.add_output("y", &[y]);
        let cover = structural_cover(&nl, y, &x, 1000).unwrap();
        let tt = cone_tt(&nl, y, 8).unwrap();
        assert_eq!(cover.to_truth_table(4), tt);
    }

    #[test]
    fn rebuilds_flop_input_cones() {
        use synthir_netlist::ResetKind;
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        // Redundant: (a & 1) | (a & a) == a.
        let t1 = nl.add_gate(GateKind::And2, &[a, c1]);
        let t2 = nl.add_gate(GateKind::And2, &[a, a]);
        let d = nl.add_gate(GateKind::Or2, &[t1, t2]);
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[d],
        );
        nl.add_output("q", &[q]);
        resynthesize(&mut nl);
        crate::constfold::const_fold(&mut nl);
        // The D cone should now be the input directly.
        let flop = nl
            .gates()
            .find(|(_, g)| g.kind.is_sequential())
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(nl.gate(flop).inputs[0], a);
    }
}
