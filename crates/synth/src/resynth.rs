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
//!
//! The pass is specified as a serial walk over the roots in `NetId` order:
//! [`decide`] each root against the current netlist, then apply the
//! decision. It runs as *decide once*: every root is decided concurrently
//! against the pre-pass netlist, and the serial walk re-decides only the
//! roots whose cone an earlier rewire has touched ("dirty" cones). A
//! [`FanoutIndex`] kept current through the walk supplies the fanout that
//! the dying-cone (MFFC) area needs, so no step rescans the whole netlist
//! per root.

use crate::conefn::eval_cone;
use crate::factor::emit_cover;
use std::collections::HashSet;
use synthir_logic::espresso::{minimize, EspressoOptions};
use synthir_logic::{Cover, Cube, TruthTable};
use synthir_netlist::{topo, GateId, GateKind, Library, NetId, Netlist};

/// Maximum cone support for collapse-and-re-cover. Models the tool's
/// effort limit; cones wider than this keep their structural form.
const COLLAPSE_SUPPORT: usize = 14;
/// Rebuilds whose minimized cover exceeds this many cubes are rejected
/// (protects parity-like functions from exponential covers).
const MAX_COVER_CUBES: usize = 96;
/// How far the cost floor must exceed the dying area before a cone is
/// kept without minimizing it. The floor is a product and the areas it is
/// compared with are f64 sums, so an exact tie may differ in the last ulp;
/// the margin leaves ties to the full comparison.
const FLOOR_MARGIN: f64 = 1e-6;

/// Re-covers all eligible cones. Returns the number of cones rebuilt.
///
/// Each rebuild is accepted only when the re-covered logic is estimated to
/// be no larger than the logic it retires (under [`Library::vt90`]), so the
/// pass never degrades structurally good implementations such as XOR trees.
///
/// The result is that of deciding and applying each root serially in root
/// order. Phase 1 decides every root against the pre-pass netlist
/// concurrently (the expensive, pure work). Phase 2 applies the decisions
/// serially. Phase 2 only adds gates (which read support nets, constants
/// and each other) and rewires the uses of a root; so a cone none of whose
/// gates consumed a rewired net still has the gates, support, function and
/// dying area that phase 1 saw, and its decision stands. The consumers a
/// rewire moves, and everything combinationally downstream of them, are
/// marked dirty, and a root whose driver is dirty is decided again on the
/// spot.
pub fn resynthesize(nl: &mut Netlist) -> usize {
    run(nl).rebuilt
}

/// What one [`resynthesize`] call did.
struct Outcome {
    /// Roots rebuilt or replaced by a constant.
    rebuilt: usize,
    /// Roots whose phase-1 decision was stale and had to be re-decided.
    redecided: usize,
}

fn run(nl: &mut Netlist) -> Outcome {
    let roots = roots(nl);
    let lib = Library::vt90();
    let mut index = FanoutIndex::new(nl);
    let decisions: Vec<Decision> =
        synthir_logic::par::par_map(&roots, |&root| decide(nl, root, &index, &lib));
    let mut dirty: Vec<bool> = Vec::new();
    let mut out = Outcome {
        rebuilt: 0,
        redecided: 0,
    };
    for (&root, decision) in roots.iter().zip(decisions) {
        let stale = nl
            .driver(root)
            .is_some_and(|g| dirty.get(g.index()) == Some(&true));
        let decision = if stale {
            out.redecided += 1;
            decide(nl, root, &index, &lib)
        } else {
            decision
        };
        let Some(new) = apply(nl, root, decision) else {
            continue;
        };
        out.rebuilt += 1;
        index.extend(nl);
        let moved = index.rewire(root, new);
        nl.replace_net_uses(root, new);
        index.mark_downstream(nl, moved, &mut dirty);
    }
    debug_assert!(index.matches(nl), "fanout index drifted from the netlist");
    nl.sweep();
    out
}

/// The resynthesis roots: output nets and flop D inputs, in `NetId` order.
fn roots(nl: &Netlist) -> Vec<NetId> {
    let mut roots = nl.output_nets();
    for (_, g) in nl.gates() {
        if g.kind.is_sequential() {
            roots.push(g.inputs[0]);
        }
    }
    roots.sort();
    roots.dedup();
    roots
}

/// What to do with one root.
enum Decision {
    Keep,
    /// The cone computes a constant.
    Constant(bool),
    /// Re-emit the cone as `cover` over `support` (already accepted).
    Rebuild {
        support: Vec<NetId>,
        cover: Cover,
    },
}

/// Decides one root against the netlist as it stands, reading fanout from
/// `index` (which must equal `nl.fanout_map()` and `nl.output_nets()`).
fn decide(nl: &Netlist, root: NetId, index: &FanoutIndex, lib: &Library) -> Decision {
    let Some(driver) = nl.driver(root) else {
        return Decision::Keep;
    };
    let kind = nl.gate(driver).kind;
    if kind.is_sequential() || kind.is_constant() {
        return Decision::Keep;
    }
    let Some(support) = topo::comb_support_bounded(nl, root, COLLAPSE_SUPPORT) else {
        return Decision::Keep;
    };
    let cone = topo::cone_gates(nl, root);
    let tt = eval_cone(nl, root, &support, &cone);
    if let Some(v) = tt.as_constant() {
        return Decision::Constant(v);
    }
    let dying = dying_cone_area(nl, root, &cone, index, lib);
    if cost_floor(&tt, lib) > dying + FLOOR_MARGIN {
        return Decision::Keep;
    }
    // Seed the minimizer with the structural cover when it is small enough;
    // otherwise fall back to the canonical minterm cover.
    let start = structural_cover(nl, root, &cone, &support, 4 * MAX_COVER_CUBES)
        .unwrap_or_else(|| Cover::from_truth_table(&tt));
    let cover = minimize(&start, None, &EspressoOptions::default());
    if cover.cube_count() > MAX_COVER_CUBES {
        return Decision::Keep; // parity-like function: keep the structural form
    }
    debug_assert_eq!(
        cover.to_truth_table(support.len()),
        tt,
        "resynthesis must preserve the cone function"
    );
    // Accept only if the rebuilt logic is no larger than what it retires.
    if cover_area(&cover, lib) > dying {
        return Decision::Keep;
    }
    Decision::Rebuild { support, cover }
}

/// Builds the replacement for `root`, returning the net that should take
/// over its uses, or `None` for [`Decision::Keep`].
fn apply(nl: &mut Netlist, root: NetId, decision: Decision) -> Option<NetId> {
    let new = match decision {
        Decision::Keep => return None,
        Decision::Constant(v) => nl.constant(v),
        Decision::Rebuild { support, cover } => emit_cover(nl, &cover, &support),
    };
    // `emit_cover` returns a support net, a constant or a fresh gate, none
    // of which can be the comb-driven root.
    debug_assert_ne!(new, root);
    Some(new)
}

/// The area `emit_cover` spends on `cover`.
fn cover_area(cover: &Cover, lib: &Library) -> f64 {
    let mut scratch = Netlist::new("scratch");
    let fake = scratch.add_input("x", cover.nvars());
    emit_cover(&mut scratch, cover, &fake);
    scratch.area_report(lib).combinational
}

/// A lower bound on the area of any network of `lib` cells computing `tt`
/// (so on [`cover_area`] of any cover of it). Over a *functional* support
/// of `d ≥ 2` variables, every cell of 2–4 inputs merges at most four
/// signals into one, so at least ⌈(d−1)/3⌉ of them are needed. A single
/// variable costs an inverter when it appears negated and nothing
/// otherwise.
fn cost_floor(tt: &TruthTable, lib: &Library) -> f64 {
    match tt.support().len() {
        0 => 0.0,
        // Non-constant over one variable: the negative literal is 1 on
        // minterm 0.
        1 if tt.eval(0) => lib.area(GateKind::Inv),
        1 => 0.0,
        d => {
            let cheapest = lib
                .combinational_cells()
                .iter()
                .filter(|(kind, _)| (2..=4).contains(&kind.arity()))
                .map(|(_, spec)| spec.area)
                .fold(f64::INFINITY, f64::min);
            (d - 1).div_ceil(3) as f64 * cheapest
        }
    }
}

/// The area of the cone gates that would die if every consumer of `root`
/// were rewired away: gates whose fanout lies entirely within the dying
/// set (computed by reverse-topological accumulation from the root driver).
fn dying_cone_area(
    nl: &Netlist,
    root: NetId,
    cone: &[GateId],
    index: &FanoutIndex,
    lib: &Library,
) -> f64 {
    let mut dying: HashSet<GateId> = HashSet::new();
    for &g in cone.iter().rev() {
        let out = nl.gate(g).output;
        // Output ports keep a gate alive; so does any consumer outside the
        // dying set.
        let survives = out != root
            && (index.is_output[out.index()]
                || index.consumers[out.index()]
                    .iter()
                    .any(|c| !dying.contains(c)));
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

/// Per-net consumers and output-port membership, kept equal to
/// `Netlist::fanout_map` / `Netlist::output_nets` through phase 2. Phase 2
/// only adds gates and rewires uses (nothing is removed before the final
/// sweep), so both updates are local: [`FanoutIndex::extend`] indexes the
/// gates added since the last call and [`FanoutIndex::rewire`] moves one
/// net's uses.
struct FanoutIndex {
    consumers: Vec<Vec<GateId>>,
    is_output: Vec<bool>,
}

impl FanoutIndex {
    fn new(nl: &Netlist) -> Self {
        let mut is_output = vec![false; nl.num_nets()];
        for n in nl.output_nets() {
            is_output[n.index()] = true;
        }
        FanoutIndex {
            consumers: nl.fanout_map(),
            is_output,
        }
    }

    /// Indexes the nets created since the last update and the gates that
    /// drive them (every gate phase 2 adds drives a fresh net).
    fn extend(&mut self, nl: &Netlist) {
        let old_nets = self.consumers.len();
        self.consumers.resize(nl.num_nets(), Vec::new());
        self.is_output.resize(nl.num_nets(), false);
        for n in old_nets..nl.num_nets() {
            let Some(g) = nl.driver(NetId(n as u32)) else {
                continue;
            };
            for &i in &nl.gate(g).inputs {
                self.consumers[i.index()].push(g);
            }
        }
    }

    /// Moves every use of `old` to `new`, mirroring
    /// `Netlist::replace_net_uses`. Returns the moved consumers.
    fn rewire(&mut self, old: NetId, new: NetId) -> Vec<GateId> {
        let moved = std::mem::take(&mut self.consumers[old.index()]);
        self.consumers[new.index()].extend_from_slice(&moved);
        if std::mem::take(&mut self.is_output[old.index()]) {
            self.is_output[new.index()] = true;
        }
        moved
    }

    /// Marks `gates` and everything combinationally downstream of them
    /// dirty: exactly the gates whose fan-in cone now contains a rewired
    /// input. Each gate is visited once per pass.
    fn mark_downstream(&self, nl: &Netlist, gates: Vec<GateId>, dirty: &mut Vec<bool>) {
        let mut stack = gates;
        while let Some(g) = stack.pop() {
            if dirty.len() <= g.index() {
                dirty.resize(g.index() + 1, false);
            }
            if std::mem::replace(&mut dirty[g.index()], true) {
                continue;
            }
            let gate = nl.gate(g);
            if !gate.kind.is_sequential() {
                stack.extend_from_slice(&self.consumers[gate.output.index()]);
            }
        }
    }

    /// Whether the index equals a fresh `fanout_map()` / `output_nets()`
    /// (consumer lists compared as multisets).
    fn matches(&self, nl: &Netlist) -> bool {
        let sorted = |mut v: Vec<GateId>| {
            v.sort();
            v
        };
        let fresh = FanoutIndex::new(nl);
        self.is_output == fresh.is_output
            && self.consumers.len() == fresh.consumers.len()
            && self
                .consumers
                .iter()
                .zip(fresh.consumers)
                .all(|(a, b)| sorted(a.clone()) == sorted(b))
    }
}

/// Extracts a sum-of-products cover of the cone by structural collapse
/// (the tool's internal "collapse" operation) over the cone's `gates`
/// (`topo::cone_gates(nl, root)`). Returns `None` if any intermediate cover
/// exceeds `cap` cubes.
fn structural_cover(
    nl: &Netlist,
    root: NetId,
    gates: &[GateId],
    support: &[NetId],
    cap: usize,
) -> Option<Cover> {
    let nvars = support.len();
    let var_of = |n: NetId| support.iter().position(|&s| s == n);
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
    for &gid in gates {
        let g = nl.gate(gid);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conefn::cone_function;
    use synthir_netlist::Library;

    /// The pass as specified: every root decided serially against the
    /// current netlist, with fanout rebuilt from scratch for each root.
    fn resynthesize_reference(nl: &mut Netlist) -> usize {
        let lib = Library::vt90();
        let mut rebuilt = 0;
        for root in roots(nl) {
            let decision = decide(nl, root, &FanoutIndex::new(nl), &lib);
            if let Some(new) = apply(nl, root, decision) {
                nl.replace_net_uses(root, new);
                rebuilt += 1;
            }
        }
        nl.sweep();
        rebuilt
    }

    /// The netlist the flow hands to resynthesis: the cleanup, FSM
    /// re-encoding and state-propagation steps of `compile_netlist`.
    fn pre_resynthesis(module: &synthir_rtl::Module) -> Netlist {
        use crate::aigopt::aig_optimize;
        let e = synthir_rtl::elaborate(module).unwrap();
        let (mut nl, mut fsm, mut annos) = (e.netlist, e.fsm, e.annotations);
        aig_optimize(&mut nl, fsm.as_mut(), &mut annos, false);
        if let Some(f) = &fsm {
            let encoding = crate::SynthOptions::default().fsm_encoding;
            if let Ok(true) = crate::fsmreencode::fsm_reencode(&mut nl, f, encoding) {
                aig_optimize(&mut nl, None, &mut annos, false);
            }
        }
        if crate::stateprop::state_propagate(&mut nl, &annos, 32) > 0 {
            aig_optimize(&mut nl, None, &mut annos, false);
        }
        nl
    }

    /// Runs the pass and the serial reference on copies of `nl`, asserts
    /// byte-identical Verilog, and returns how many roots the pass
    /// re-decided.
    fn assert_matches_reference(nl: &Netlist, what: &str) -> usize {
        let mut reference = nl.clone();
        let expected = resynthesize_reference(&mut reference);
        let mut nl = nl.clone();
        let out = run(&mut nl);
        assert_eq!(out.rebuilt, expected, "{what}");
        assert_eq!(
            synthir_netlist::verilog::to_verilog(&nl),
            synthir_netlist::verilog::to_verilog(&reference),
            "{what}"
        );
        out.redecided
    }

    #[test]
    fn matches_the_serial_reference_on_fsm_lowerings() {
        for seed in 0..6 {
            let spec = synthir_core::random::random_fsm(3, 4, 6, seed);
            for module in [spec.to_table_module(true), spec.to_programmable_module()] {
                // The raw elaboration still has foldable cones to rebuild;
                // the flow's cleanups leave resynthesis little to do.
                let raw = synthir_rtl::elaborate(&module).unwrap().netlist;
                assert_matches_reference(&raw, &format!("seed {seed}, raw"));
                assert_matches_reference(&pre_resynthesis(&module), &format!("seed {seed}"));
            }
        }
    }

    /// xorshift64: the tests' own seeded generator.
    fn next_random(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random netlist whose outputs also feed later logic, with constants
    /// mixed in so that many cones simplify: the shape in which one root's
    /// rewire lands inside a later root's cone.
    fn tangled_netlist(seed: u64) -> Netlist {
        use GateKind::*;
        let mut nl = Netlist::new("tangled");
        let mut nets = nl.add_input("x", 6);
        nets.push(nl.const0());
        nets.push(nl.const1());
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut pick = |bound: usize| (next_random(&mut state) % bound as u64) as usize;
        let kinds = [And2, Or2, Nand2, Nor2, Xor2, Mux2, Inv, Aoi21, Or3];
        let mut outs = Vec::new();
        for i in 0..48 {
            let kind = kinds[pick(kinds.len())];
            let ins: Vec<NetId> = (0..kind.arity()).map(|_| nets[pick(nets.len())]).collect();
            let y = nl.add_gate(kind, &ins);
            nets.push(y);
            if i % 4 == 3 {
                outs.push(y);
            }
        }
        nl.add_output("y", &outs);
        nl
    }

    #[test]
    fn matches_the_serial_reference_when_rewires_dirty_later_cones() {
        let redecided: usize = (0..32)
            .map(|seed| assert_matches_reference(&tangled_netlist(seed), &format!("seed {seed}")))
            .sum();
        assert!(redecided > 0, "no dirty cone was re-decided");
    }

    #[test]
    fn cost_floor_counts_cells_over_the_functional_support() {
        let lib = Library::vt90();
        // Seven of eight variables matter: ⌈6/3⌉ = 2 cells of at least
        // 2.8 µm² (NAND2/NOR2).
        let and7 = TruthTable::from_fn(8, |m| m & 0x7F == 0x7F);
        assert!((cost_floor(&and7, &lib) - 5.6).abs() < 1e-9);
        let not_x2 = TruthTable::from_fn(3, |m| m & 4 == 0);
        assert_eq!(cost_floor(&not_x2, &lib), lib.area(GateKind::Inv));
        assert_eq!(cost_floor(&TruthTable::variable(3, 2), &lib), 0.0);
    }

    #[test]
    fn cost_floor_never_exceeds_the_emitted_area() {
        let lib = Library::vt90();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..400 {
            let n = 1 + case % 8;
            // A random function, with a random subset of its variables
            // made irrelevant so every support size occurs.
            let seed = next_random(&mut state);
            let keep = seed.rotate_left(29);
            let tt = TruthTable::from_fn(n, |m| {
                let m = (m as u64 & keep) + 1;
                m.wrapping_mul(seed | 1).rotate_left(m as u32 % 64) >> 63 != 0
            });
            if tt.as_constant().is_some() {
                continue;
            }
            let cover = minimize(
                &Cover::from_truth_table(&tt),
                None,
                &EspressoOptions::default(),
            );
            let area = cover_area(&cover, &lib);
            let floor = cost_floor(&tt, &lib);
            assert!(floor <= area, "{tt:?}: floor {floor} > area {area}");
        }
    }

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
        crate::aigopt::aig_optimize(&mut nl, None, &mut [], false);
        resynthesize(&mut nl);
        crate::aigopt::aig_optimize(&mut nl, None, &mut [], false);
        assert!(nl.num_gates() < before);
        // Function preserved.
        let out = nl.output_nets()[0];
        let (_, tt2) = cone_function(&nl, out, 8).unwrap();
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
        let cover = structural_cover(&nl, y, &topo::cone_gates(&nl, y), &x, 1000).unwrap();
        let (_, tt) = cone_function(&nl, y, 8).unwrap();
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
        crate::aigopt::aig_optimize(&mut nl, None, &mut [], false);
        // The D cone should now be the input directly.
        let a = nl.input("a").unwrap().nets[0];
        let flop = nl
            .gates()
            .find(|(_, g)| g.kind.is_sequential())
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(nl.gate(flop).inputs[0], a);
    }
}
