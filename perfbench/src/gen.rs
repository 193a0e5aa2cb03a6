//! Seeded workload generation.
//!
//! Every input the program sees is text it would read from a file: KISS2
//! for state machines, espresso PLA for two-level functions. The seed
//! picks the random instances; the shape of each workload (which sizes,
//! styles and how many of each) is fixed, so every seed has the same
//! character. The generator also keeps, next to each input, the reference
//! the outputs are checked against: the [`FsmSpec`] it serialized, the
//! microprogram, or the PLA's cube list.

use smpctrl::{AccessWidth, Flavor, LineSize, MemoryConfig, MemoryMode};
use synthir_cli::fsm::Style;
use synthir_core::format_conv::to_kiss2;
use synthir_core::random::random_fsm;
use synthir_core::{FsmSpec, StateId};

/// BMC unrolling depth of the `equiv_bmc` verdicts (the CLI's default).
pub const BMC_DEPTH: usize = 8;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 random FSMs in all three bound styles.
    Fig6Fsm,
    /// Runtime-programmable FSMs and the Fig. 9 PCtrl flavours.
    FlexibleCtrl,
    /// Equivalence verdicts with known answers.
    EquivBmc,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fig6_fsm" => Some(Workload::Fig6Fsm),
            "flexible_ctrl" => Some(Workload::FlexibleCtrl),
            "equiv_bmc" => Some(Workload::EquivBmc),
            _ => None,
        }
    }
}

/// A two-level function as generated: `(value, care, outputs)` per cube,
/// input bit `i` of a minterm being input column `ni - 1 - i` of the text.
#[derive(Clone, Debug)]
pub struct PlaRef {
    /// Input count.
    pub ni: usize,
    /// Output count.
    pub no: usize,
    /// The ON-set cubes.
    pub cubes: Vec<(u64, u64, u32)>,
}

impl PlaRef {
    /// Evaluates the cover on one input minterm (the check's reference).
    pub fn eval(&self, input: u64) -> u128 {
        self.cubes
            .iter()
            .filter(|&&(v, c, _)| input & c == v)
            .fold(0, |acc, &(_, _, o)| acc | o as u128)
    }

    /// Renders the cover as espresso PLA text.
    pub fn to_text(&self) -> String {
        let mut s = format!(".i {}\n.o {}\n.p {}\n", self.ni, self.no, self.cubes.len());
        for &(v, c, o) in &self.cubes {
            for bit in (0..self.ni).rev() {
                s.push(match (c >> bit & 1, v >> bit & 1) {
                    (0, _) => '-',
                    (_, 1) => '1',
                    _ => '0',
                });
            }
            s.push(' ');
            for out in 0..self.no {
                s.push(if o >> out & 1 != 0 { '1' } else { '0' });
            }
            s.push('\n');
        }
        s.push_str(".e\n");
        s
    }
}

/// What one operation is given, and what its outputs are checked against.
pub enum Input {
    /// `synthir fsm <spec.kiss2> --style <style> --report -o out.v`.
    Fsm {
        text: String,
        style: Style,
        spec: FsmSpec,
    },
    /// `smpctrl::synthesize` for one configuration and flavour.
    Pctrl { cfg: MemoryConfig, flavor: Flavor },
    /// `synthir equiv a.kiss2 b.kiss2 --left table-annotated --right case
    /// --synth --engine sat`.
    SeqPair {
        left: String,
        right: String,
        left_spec: FsmSpec,
        right_spec: FsmSpec,
        equivalent: bool,
    },
    /// `synthir equiv a.pla b.pla --synth --engine sat`.
    PlaPair {
        left: PlaRef,
        right: PlaRef,
        left_text: String,
        right_text: String,
        equivalent: bool,
    },
}

/// One operation of a round: a design to compile or a pair to decide.
pub struct Job {
    /// Stable id, reported with any failure.
    pub id: String,
    /// Family the job's scaling exponent is fitted over (style or kind).
    pub family: &'static str,
    /// The input.
    pub input: Input,
}

/// A shape and how many instances of it a job set holds.
type Point = ((usize, usize, usize), usize);

/// Fig. 6 shape `(m, n, s)` points with instance counts. The bulk at
/// m6/n8/s8 (three styles within 1.5x of each other) holds the median
/// design time, so `op_p50_ms` does not jump between size classes from
/// seed to seed; the three large points (up to 200k elaborated gates) are
/// where `techmap`, case-style lowering and `fsm_reencode` dominate.
const FIG6_POINTS: &[Point] = &[
    ((3, 4, 4), 2),
    ((4, 4, 4), 2),
    ((4, 8, 8), 2),
    ((6, 8, 8), 8),
    ((6, 16, 12), 2),
    ((8, 8, 16), 1),
    ((6, 16, 17), 1),
    ((8, 16, 16), 1),
];

/// Programmable-lowering points; `resynthesize` cost grows steeply with
/// the configuration-memory size, so they stop at m4/n8/s8. The m4/n4/s4
/// bulk holds the median design time and m4/n8/s8 joins the PCtrl Full
/// flavour in the top tenth, so neither percentile sits in the gap
/// between two size classes. The m4/n8/s8 instances are also compiled
/// bound.
const FLEX_POINTS: &[Point] = &[
    ((2, 4, 3), 2),
    ((3, 4, 4), 2),
    ((4, 4, 4), 6),
    ((3, 8, 6), 2),
    ((4, 8, 8), 2),
];

/// Sequential pairs for `equiv_bmc`; every third instance is a mutant.
/// SAT proofs grow steeply with size (m4/n8/s8 takes seconds).
const EQUIV_POINTS: &[Point] = &[
    ((2, 4, 3), 6),
    ((3, 4, 4), 6),
    ((4, 4, 4), 3),
    ((3, 8, 6), 3),
];

/// Wide PLA pairs `(inputs, outputs, cubes)`: beyond the BDD engine's
/// 24-bit limit, so only SAT decides them.
const PLA_POINTS: &[Point] = &[((28, 3, 24), 4), ((32, 4, 32), 4), ((40, 4, 40), 4)];

/// The shipped KISS2 controllers, lowered programmable in `flexible_ctrl`.
const SHIPPED: &[(&str, &str)] = &[
    ("dma_ctrl", include_str!("../../benchmarks/dma_ctrl.kiss2")),
    ("elevator", include_str!("../../benchmarks/elevator.kiss2")),
    (
        "seq_detect",
        include_str!("../../benchmarks/seq_detect.kiss2"),
    ),
    (
        "traffic_light",
        include_str!("../../benchmarks/traffic_light.kiss2"),
    ),
];

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream tag.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds job set number `set` of a workload for a seed. Every set has
/// the same shape with fresh random instances, so a longer run averages
/// over more designs; ids are prefixed with the set number.
pub fn jobs(w: Workload, seed: u64, set: u64) -> Vec<Job> {
    let seed = Rng::new(seed, set).next();
    let mut jobs = match w {
        Workload::Fig6Fsm => fig6_jobs(seed, FIG6_POINTS),
        Workload::FlexibleCtrl => flexible_jobs(seed),
        Workload::EquivBmc => equiv_jobs(seed, EQUIV_POINTS, PLA_POINTS),
    };
    for j in &mut jobs {
        j.id = format!("{set}:{}", j.id);
    }
    jobs
}

/// The warm-up: one fixed mid-sized instance of every code path of the
/// workload (PCtrl compiles run the same passes as the FSM designs), the
/// same for every seed, so allocator and page-table state is at its
/// steady size before timing.
pub fn warmup(w: Workload) -> Vec<Job> {
    match w {
        Workload::Fig6Fsm => fig6_jobs(0, &[((6, 8, 8), 1)]),
        Workload::FlexibleCtrl => programmable_jobs(0, &[((4, 4, 4), 1)], None),
        Workload::EquivBmc => equiv_jobs(0, &[((3, 4, 4), 1)], &[((32, 4, 32), 1)]),
    }
}

/// The instances of a point list: `(m, n, s, instance, instance seed)`.
fn instances(points: &[Point], seed: u64, tag: u64) -> Vec<(usize, usize, usize, usize, u64)> {
    let mut rng = Rng::new(seed, tag);
    let mut out = Vec::new();
    for &((m, n, s), count) in points {
        for i in 0..count {
            out.push((m, n, s, i, rng.next()));
        }
    }
    out
}

fn fsm_job(id: String, family: &'static str, spec: FsmSpec, style: Style) -> Job {
    Job {
        id,
        family,
        input: Input::Fsm {
            text: to_kiss2(&spec),
            style,
            spec,
        },
    }
}

fn fig6_jobs(seed: u64, points: &[Point]) -> Vec<Job> {
    let styles = [
        (Style::Table, "table"),
        (Style::TableAnnotated, "table-annotated"),
        (Style::Case, "case"),
    ];
    let mut jobs = Vec::new();
    for (m, n, s, i, iseed) in instances(points, seed, 6) {
        for (style, name) in styles {
            let spec = random_fsm(m, n, s, iseed);
            jobs.push(fsm_job(
                format!("m{m}n{n}s{s}#{i}/{name}"),
                name,
                spec,
                style,
            ));
        }
    }
    jobs
}

/// Programmable lowerings of random FSMs. Instances of shape `twin` are
/// also compiled bound (`table-annotated`), the Fig. 9 Manual counterpart
/// of a flexible design; their critical paths follow the table contents,
/// which programmable hardware never does.
fn programmable_jobs(seed: u64, points: &[Point], twin: Option<(usize, usize, usize)>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (m, n, s, i, iseed) in instances(points, seed, 9) {
        let spec = random_fsm(m, n, s, iseed);
        if twin == Some((m, n, s)) {
            jobs.push(fsm_job(
                format!("m{m}n{n}s{s}#{i}/table-annotated"),
                "table-annotated",
                spec.clone(),
                Style::TableAnnotated,
            ));
        }
        jobs.push(fsm_job(
            format!("m{m}n{n}s{s}#{i}/programmable"),
            "programmable",
            spec,
            Style::Programmable,
        ));
    }
    jobs
}

fn flexible_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = programmable_jobs(seed, FLEX_POINTS, Some((4, 8, 8)));
    for (name, text) in SHIPPED {
        let spec =
            synthir_core::format_conv::from_kiss2(*name, text).expect("shipped benchmarks parse");
        jobs.push(fsm_job(
            format!("{name}/programmable"),
            "programmable",
            spec,
            Style::Programmable,
        ));
    }
    // One cached and one uncached PCtrl; the seed picks line size and
    // access width, so each seed covers two of the eight configurations.
    let mut rng = Rng::new(seed, 0xF19);
    for mode in [MemoryMode::Cached, MemoryMode::Uncached] {
        let cfg = MemoryConfig {
            mode,
            line: [LineSize::Words4, LineSize::Words8][rng.below(2)],
            access: [AccessWidth::Single, AccessWidth::Double][rng.below(2)],
        };
        for flavor in Flavor::all() {
            jobs.push(Job {
                id: format!("pctrl_{}/{flavor}", cfg.tag()),
                family: "pctrl",
                input: Input::Pctrl { cfg, flavor },
            });
        }
    }
    jobs
}

fn equiv_jobs(seed: u64, points: &[Point], pla_points: &[Point]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (m, n, s, i, iseed) in instances(points, seed, 0xB3C) {
        let spec = random_fsm(m, n, s, iseed);
        let mut rng = Rng::new(iseed, 1);
        let mutant = i % 3 == 2;
        let right = if mutant {
            mutate_reachable_output(&spec, &mut rng)
        } else {
            permute_states(&spec, &mut rng)
        };
        jobs.push(Job {
            id: format!(
                "m{m}n{n}s{s}#{i}/{}",
                if mutant { "mutant" } else { "renamed" }
            ),
            family: if mutant { "seq-mutant" } else { "seq-proof" },
            input: Input::SeqPair {
                left: to_kiss2(&spec),
                right: to_kiss2(&right),
                left_spec: spec,
                right_spec: right,
                equivalent: !mutant,
            },
        });
    }
    for (ni, no, k, i, iseed) in instances(pla_points, seed, 0x91A) {
        let mut rng = Rng::new(iseed, 2);
        let left = random_pla(ni, no, k, &mut rng);
        let mutant = i % 3 == 2;
        let right = if mutant {
            add_offset_minterm(&left, &mut rng)
        } else {
            restate_pla(&left, &mut rng)
        };
        jobs.push(Job {
            id: format!(
                "pla_i{ni}o{no}p{k}#{i}/{}",
                if mutant { "mutant" } else { "restated" }
            ),
            family: if mutant { "pla-mutant" } else { "pla-proof" },
            input: Input::PlaPair {
                left_text: left.to_text(),
                right_text: right.to_text(),
                left,
                right,
                equivalent: !mutant,
            },
        });
    }
    jobs
}

/// The dense `(next, out)` tables of a spec, by state and input minterm.
fn dense(spec: &FsmSpec) -> (Vec<Vec<usize>>, Vec<Vec<u128>>) {
    (0..spec.state_count())
        .map(|s| {
            (0..1u64 << spec.num_inputs())
                .map(|m| {
                    let (n, o) = spec.eval(StateId(s), m);
                    (n.0, o)
                })
                .unzip()
        })
        .unzip()
}

/// The same machine with its non-reset states renumbered: equivalent by
/// construction, but its KISS2 text and binary state codes differ.
fn permute_states(spec: &FsmSpec, rng: &mut Rng) -> FsmSpec {
    let (next, out) = dense(spec);
    let s = next.len();
    let mut perm: Vec<usize> = (0..s).collect();
    for i in (2..s).rev() {
        let j = 1 + rng.below(i);
        perm.swap(i, j);
    }
    let mut pnext = vec![Vec::new(); s];
    let mut pout = vec![Vec::new(); s];
    for old in 0..s {
        pnext[perm[old]] = next[old].iter().map(|&n| perm[n]).collect();
        pout[perm[old]] = out[old].clone();
    }
    FsmSpec::from_dense(
        format!("{}_renamed", spec.name()),
        spec.num_inputs(),
        spec.num_outputs(),
        &pnext,
        &pout,
    )
    .expect("a permuted dense table is well-formed")
}

/// The same machine with one output bit flipped on one (state, input)
/// entry whose state a breadth-first search from reset reaches in at most
/// half the BMC depth, so the pair is inequivalent within the bound.
fn mutate_reachable_output(spec: &FsmSpec, rng: &mut Rng) -> FsmSpec {
    let (next, mut out) = dense(spec);
    let reset = spec.reset_state().0;
    let mut dist = vec![usize::MAX; next.len()];
    dist[reset] = 0;
    let mut frontier = vec![reset];
    while let Some(s) = frontier.first().copied() {
        frontier.remove(0);
        for &n in &next[s] {
            if dist[n] == usize::MAX {
                dist[n] = dist[s] + 1;
                frontier.push(n);
            }
        }
    }
    let near: Vec<usize> = (0..next.len())
        .filter(|&s| dist[s] <= BMC_DEPTH / 2)
        .collect();
    let state = near[rng.below(near.len())];
    let minterm = rng.below(out[state].len());
    out[state][minterm] ^= 1 << rng.below(spec.num_outputs());
    FsmSpec::from_dense(
        format!("{}_mutant", spec.name()),
        spec.num_inputs(),
        spec.num_outputs(),
        &next,
        &out,
    )
    .expect("a mutated dense table is well-formed")
}

/// A random cover: each cube cares about 4–10 inputs and feeds a random
/// non-empty subset of the outputs.
fn random_pla(ni: usize, no: usize, k: usize, rng: &mut Rng) -> PlaRef {
    let cubes = (0..k)
        .map(|_| {
            let mut care = 0u64;
            for _ in 0..4 + rng.below(7) {
                care |= 1 << rng.below(ni);
            }
            let value = rng.next() & care;
            let outs = 1 + rng.below((1 << no) - 1);
            (value, care, outs as u32)
        })
        .collect();
    PlaRef { ni, no, cubes }
}

/// The same function restated: cubes split on a free input, each cube
/// joined by a contained copy with one more literal, order shuffled.
fn restate_pla(p: &PlaRef, rng: &mut Rng) -> PlaRef {
    let mut cubes = Vec::new();
    for &(v, c, o) in &p.cubes {
        let free: Vec<usize> = (0..p.ni).filter(|&b| c >> b & 1 == 0).collect();
        let b = free[rng.below(free.len())];
        if rng.below(2) == 0 {
            cubes.push((v, c | 1 << b, o));
            cubes.push((v | 1 << b, c | 1 << b, o));
        } else {
            cubes.push((v, c, o));
            cubes.push((v | (rng.next() & 1) << b, c | 1 << b, o));
        }
    }
    for i in (1..cubes.len()).rev() {
        cubes.swap(i, rng.below(i + 1));
    }
    PlaRef {
        ni: p.ni,
        no: p.no,
        cubes,
    }
}

/// The cover plus one full minterm on which some output was 0: exactly
/// that output bit flips there, so the pair is inequivalent.
fn add_offset_minterm(p: &PlaRef, rng: &mut Rng) -> PlaRef {
    let full = if p.ni == 64 {
        u64::MAX
    } else {
        (1 << p.ni) - 1
    };
    loop {
        let point = rng.next() & full;
        let out = rng.below(p.no);
        if p.eval(point) >> out & 1 == 0 {
            let mut q = restate_pla(p, rng);
            q.cubes.push((point, full, 1 << out));
            return q;
        }
    }
}
