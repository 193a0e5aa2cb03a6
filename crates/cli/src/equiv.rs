//! `synthir equiv` — the methodology's soundness check, as a command.
//!
//! The paper's central claim only holds if the specialized controller is
//! input/output-equivalent to the flexible one it came from. This
//! subcommand checks exactly that:
//!
//! * for KISS2 specs, two *bound* styles (`table`, `table-annotated`,
//!   `case`) are compared with [`synthir_sim::check_seq_equiv`] — reset
//!   both, drive identical input sequences, compare every output, every
//!   cycle — using the engine selected by `--engine` (random lockstep, or
//!   exact SAT-based bounded model checking);
//! * against the `programmable` style the check becomes
//!   *program-then-compare*: the flexible design's tables are first written
//!   through its config port (one word per cycle), the state register is
//!   re-reset, and only then does the lockstep comparison start — the
//!   hardware analogue of binding the generator parameters;
//! * for a pair of `.pla` files, the ON-set covers are lowered to
//!   two-level gate networks and checked combinationally. This is where
//!   the engine choice matters most: the BDD engine refuses interfaces
//!   beyond 24 input bits, random simulation cannot prove anything, and
//!   the SAT engine proves equivalence (or produces a concrete
//!   counterexample) at any width.
//!
//! `--vcd` dumps the comparison run of the left design as a waveform for
//! debugging failures.

use crate::args::Args;
use crate::fsm::Style;
use crate::{design_name, CliError, CmdResult};
use std::collections::HashMap;
use synthir_core::format_conv::from_kiss2;
use synthir_core::FsmSpec;
use synthir_logic::cube::Literal;
use synthir_logic::pla::Pla;
use synthir_netlist::{GateKind, Library, NetId, Netlist};
use synthir_rtl::elaborate;
use synthir_sim::vcd::VcdRecorder;
use synthir_sim::{
    check_comb_equiv, check_seq_equiv, EquivEngine, EquivOptions, EquivResult, SeqSim,
};
use synthir_synth::{flow::compile, flow::compile_netlist, SynthOptions};

/// Usage text for `synthir equiv`.
pub const USAGE: &str = "\
usage: synthir equiv <spec.kiss2> [options]
   or: synthir equiv <a.kiss2> <b.kiss2> [options]
   or: synthir equiv <a.pla> <b.pla> [options]

Checks input/output equivalence of two lowerings of a KISS2 spec (or of
two specs sharing an interface). Against the `programmable` style the
check programs the config tables first, then compares (program-then-
compare). Two .pla operands are compared combinationally (ON-set covers
under f-type semantics).

options:
  --engine <e>     auto (default), bdd, random, or sat. bdd proves but is
                   limited to 24 shared input bits; random proves nothing;
                   sat proves at any width (miter / bounded model check)
  --left <style>   left coding style (default table; .kiss2 only)
  --right <style>  right coding style (default programmable; .kiss2 only)
  --cycles <n>     comparison cycles for random lockstep (default 256;
                   .kiss2 only — the .pla random engine uses 64 pattern
                   words of 64 patterns each)
  --depth <k>      unrolling depth for the sat sequential engine
                   (default 8; .kiss2 only)
  --seed <s>       RNG seed for input sequences (default 0x5EED)
  --synth          compare synthesized netlists instead of elaborations
  --vcd <file>     dump the left design's comparison run as VCD (.kiss2)
";

/// Boolean flags `synthir equiv` accepts (each documented in [`USAGE`]).
pub const FLAGS: &[&str] = &["synth"];

/// Valued options `synthir equiv` accepts (each documented in [`USAGE`]).
pub const OPTIONS: &[&str] = &["engine", "left", "right", "cycles", "depth", "seed", "vcd"];

/// The verdict line printed on success.
pub const EQUIVALENT: &str = "EQUIVALENT";

/// Runs the subcommand; returns the text for stdout.
///
/// A found counterexample is reported as an error (nonzero exit), with the
/// distinguishing cycle and values in the message.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, unparsable specs, incompatible
/// interfaces, or an inequivalence counterexample.
pub fn run(args: &Args) -> CmdResult {
    let (left_path, right_path) = match args.positionals() {
        [one] => (one.as_str(), one.as_str()),
        [l, r] => (l.as_str(), r.as_str()),
        other => {
            return Err(CliError(format!(
                "expected one or two .kiss2/.pla operands, got {}",
                other.len()
            )))
        }
    };
    let engine = match args.option("engine") {
        None => EquivEngine::Auto,
        Some(s) => EquivEngine::parse(s)
            .ok_or_else(|| CliError(format!("unknown engine `{s}` (auto, bdd, random, sat)")))?,
    };
    let is_pla = |p: &str| p.ends_with(".pla");
    match (is_pla(left_path), is_pla(right_path)) {
        (true, true) => return run_pla_pair(args, left_path, right_path, engine),
        (false, false) => {}
        _ => {
            return Err(CliError(
                "cannot mix .pla and .kiss2 operands in one check".into(),
            ))
        }
    }
    let left_style = Style::parse(args.option("left").unwrap_or("table"))?;
    let right_style = Style::parse(args.option("right").unwrap_or("programmable"))?;
    let cycles: usize = args.option_parsed("cycles", 256)?;
    let seed: u64 = args.option_parsed("seed", 0x5EED)?;
    let depth: usize = args.option_parsed("depth", 8)?;

    let read = |path: &str| -> Result<FsmSpec, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
        Ok(from_kiss2(design_name(path), &text)?)
    };
    let left_spec = read(left_path)?;
    let right_spec = read(right_path)?;
    if left_spec.num_inputs() != right_spec.num_inputs()
        || left_spec.num_outputs() != right_spec.num_outputs()
    {
        return Err(CliError(format!(
            "interface mismatch: {}×{} vs {}×{} input/output bits",
            left_spec.num_inputs(),
            left_spec.num_outputs(),
            right_spec.num_inputs(),
            right_spec.num_outputs()
        )));
    }

    left_style.check(&left_spec)?;
    right_style.check(&right_spec)?;
    let lower = |spec: &FsmSpec, style: Style| -> Result<Netlist, CliError> {
        let elab = elaborate(&style.lower(spec))?;
        if args.flag("synth") {
            Ok(compile(&elab, &Library::vt90(), &SynthOptions::default())?.netlist)
        } else {
            Ok(elab.netlist)
        }
    };
    let left_nl = lower(&left_spec, left_style)?;
    let right_nl = lower(&right_spec, right_style)?;

    let mut out = format!(
        "left  : {} ({:?}, {} gates)\nright : {} ({:?}, {} gates)\n",
        left_spec.name(),
        left_style,
        left_nl.num_gates(),
        right_spec.name(),
        right_style,
        right_nl.num_gates(),
    );

    let programmable = (
        left_style == Style::Programmable,
        right_style == Style::Programmable,
    );
    let verdict = if programmable.0 || programmable.1 {
        if engine != EquivEngine::Auto {
            out.push_str("note: --engine is ignored for program-then-compare (lockstep)\n");
        }
        lockstep_with_programming(
            &left_nl,
            &left_spec,
            programmable.0,
            &right_nl,
            &right_spec,
            programmable.1,
            cycles,
            seed,
            args.option("vcd"),
        )?
    } else {
        let mut opts = EquivOptions::new();
        opts.cycles = cycles;
        opts.seed = seed;
        opts.engine = engine;
        opts.bmc_depth = depth;
        let res = check_seq_equiv(&left_nl, &right_nl, &opts)?;
        if let Some(vcd) = args.option("vcd") {
            record_vcd(&left_nl, cycles, seed, vcd)?;
        }
        match res {
            EquivResult::Equivalent => None,
            EquivResult::Inequivalent(cex) => Some(format!(
                "output `{}` differs: left {:#x} vs right {:#x} (inputs {:?})",
                cex.output, cex.left, cex.right, cex.inputs
            )),
        }
    };

    // Only claim a proof when the BMC engine actually ran: the
    // program-then-compare path ignores --engine and is random lockstep.
    let bmc_ran = engine == EquivEngine::Sat && !programmable.0 && !programmable.1;
    match verdict {
        None => {
            out.push_str(&if bmc_ran {
                format!("{EQUIVALENT} for all input sequences up to {depth} cycles (BMC proof)\n")
            } else {
                format!("{EQUIVALENT} over {cycles} cycles (seed {seed:#x})\n")
            });
            Ok(out)
        }
        Some(msg) => Err(CliError(format!("INEQUIVALENT: {msg}"))),
    }
}

/// The `.pla`-pair path: lower both ON-set covers to two-level gate
/// networks over a shared `in`/`out` bus interface and check
/// combinationally with the selected engine.
fn run_pla_pair(args: &Args, left_path: &str, right_path: &str, engine: EquivEngine) -> CmdResult {
    for opt in ["left", "right", "vcd", "cycles", "depth"] {
        if args.option(opt).is_some() {
            return Err(CliError(format!("--{opt} does not apply to .pla operands")));
        }
    }
    let read = |path: &str| -> Result<Pla, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
        Ok(Pla::parse(&text)?)
    };
    let left = read(left_path)?;
    let right = read(right_path)?;
    if left.num_inputs != right.num_inputs || left.num_outputs != right.num_outputs {
        return Err(CliError(format!(
            "interface mismatch: {}×{} vs {}×{} input/output bits",
            left.num_inputs, left.num_outputs, right.num_inputs, right.num_outputs
        )));
    }
    let lower = |pla: &Pla, name: &str| -> Result<Netlist, CliError> {
        let nl = pla_netlist(name, pla);
        if args.flag("synth") {
            let r = compile_netlist(nl, None, &[], &Library::vt90(), &SynthOptions::default())?;
            Ok(r.netlist)
        } else {
            Ok(nl)
        }
    };
    let left_nl = lower(&left, &design_name(left_path))?;
    let right_nl = lower(&right, &design_name(right_path))?;

    let mut out = format!(
        "left  : {} ({} inputs, {} outputs, {} terms, {} gates)\nright : {} ({} inputs, {} outputs, {} terms, {} gates)\n",
        design_name(left_path),
        left.num_inputs,
        left.num_outputs,
        left.term_count(),
        left_nl.num_gates(),
        design_name(right_path),
        right.num_inputs,
        right.num_outputs,
        right.term_count(),
        right_nl.num_gates(),
    );

    let mut opts = EquivOptions::new();
    opts.engine = engine;
    opts.seed = args.option_parsed("seed", 0x5EED)?;
    match check_comb_equiv(&left_nl, &right_nl, &opts)? {
        EquivResult::Equivalent => {
            out.push_str(&match engine {
                EquivEngine::Random => format!(
                    "NO DIFFERENCE FOUND over {} random words — the random \
                     engine cannot prove equivalence\n",
                    opts.random_words
                ),
                _ => format!("{EQUIVALENT} (proved, engine {engine})\n"),
            });
            Ok(out)
        }
        EquivResult::Inequivalent(cex) => Err(CliError(format!(
            "INEQUIVALENT: output `{}` differs: left {:#x} vs right {:#x} (inputs {:?})",
            cex.output, cex.left, cex.right, cex.inputs
        ))),
    }
}

/// Lowers a PLA's ON-set covers (f-type semantics) to a flat two-level
/// gate network: one `in` bus, one `out` bus, an AND per product term and
/// an OR per output. Public so tests (and other front ends) can reuse the
/// exact lowering the `equiv` subcommand checks.
pub fn pla_netlist(name: &str, pla: &Pla) -> Netlist {
    let mut nl = Netlist::new(name);
    let ins = nl.add_input("in", pla.num_inputs);
    let fold = |nl: &mut Netlist, kind: GateKind, nets: &[NetId]| -> NetId {
        let mut acc = nets[0];
        for &n in &nets[1..] {
            acc = nl.add_gate(kind, &[acc, n]);
        }
        acc
    };
    let mut outs = Vec::with_capacity(pla.num_outputs);
    for cover in &pla.on {
        let mut terms: Vec<NetId> = Vec::with_capacity(cover.cubes().len());
        for cube in cover.cubes() {
            let mut lits: Vec<NetId> = Vec::new();
            for (v, &net) in ins.iter().enumerate() {
                match cube.literal(v) {
                    Literal::DontCare => {}
                    Literal::Positive => lits.push(net),
                    Literal::Negative => {
                        let inv = nl.add_gate(GateKind::Inv, &[net]);
                        lits.push(inv);
                    }
                }
            }
            terms.push(match lits.len() {
                0 => nl.const1(),
                _ => fold(&mut nl, GateKind::And2, &lits),
            });
        }
        outs.push(match terms.len() {
            0 => nl.const0(),
            _ => fold(&mut nl, GateKind::Or2, &terms),
        });
    }
    nl.add_output("out", &outs);
    nl
}

/// Lockstep comparison where at least one side is the programmable style:
/// program each flexible side through its config port, re-reset the state
/// registers, then drive identical random inputs and compare `out` each
/// cycle. Returns `None` on success or a counterexample description.
#[allow(clippy::too_many_arguments)]
fn lockstep_with_programming(
    left_nl: &Netlist,
    left_spec: &FsmSpec,
    left_programmable: bool,
    right_nl: &Netlist,
    right_spec: &FsmSpec,
    right_programmable: bool,
    cycles: usize,
    seed: u64,
    vcd: Option<&str>,
) -> Result<Option<String>, CliError> {
    let mut left = SeqSim::new(left_nl)?;
    let mut right = SeqSim::new(right_nl)?;

    // Phase 1: program each flexible side, one table word per cycle. The
    // bound side idles at reset (we simply don't step it).
    let program = |sim: &mut SeqSim, spec: &FsmSpec| {
        let (next_words, out_words) = spec.to_table_words();
        for addr in 0..next_words.len() {
            let mut m = HashMap::new();
            m.insert("cfg_addr".to_string(), addr as u128);
            m.insert("cfg_next".to_string(), next_words[addr]);
            m.insert("cfg_out".to_string(), out_words[addr]);
            m.insert("cfg_wen".to_string(), 1);
            sim.step(&m);
        }
        // Re-reset: the µ-state register wandered during programming; the
        // config memory flops have no reset wiring and keep their contents.
        let mut rst = HashMap::new();
        rst.insert("rst".to_string(), 1u128);
        sim.step(&rst);
    };
    if left_programmable {
        program(&mut left, left_spec);
    }
    if right_programmable {
        program(&mut right, right_spec);
    }

    // Phase 2: lockstep with identical random input sequences.
    let mut recorder = vcd.map(|_| VcdRecorder::new(left_nl, "1ns"));
    let mut rng = seed;
    let mask = if left_spec.num_inputs() >= 64 {
        u64::MAX
    } else {
        (1u64 << left_spec.num_inputs()) - 1
    };
    let mut verdict = None;
    for cycle in 0..cycles.max(1) {
        let input = (splitmix_next(&mut rng) & mask) as u128;
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), input);
        let lout = left.step(&inputs);
        let rout = right.step(&inputs);
        if let Some(rec) = recorder.as_mut() {
            rec.sample(&inputs, &lout);
        }
        if lout["out"] != rout["out"] {
            verdict = Some(format!(
                "cycle {cycle}: in={input:#x} → left out {:#x} vs right out {:#x}",
                lout["out"], rout["out"]
            ));
            break;
        }
    }
    if let (Some(rec), Some(path)) = (recorder, vcd) {
        std::fs::write(path, rec.finish())
            .map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
    }
    Ok(verdict)
}

/// Records a standalone run of one design for `--vcd` in the bound-vs-bound
/// case (the equivalence itself is checked by `check_seq_equiv`).
fn record_vcd(nl: &Netlist, cycles: usize, seed: u64, path: &str) -> Result<(), CliError> {
    let in_width = nl
        .inputs()
        .iter()
        .find(|p| p.name == "in")
        .map(|p| p.nets.len())
        .unwrap_or(1);
    let mask = if in_width >= 64 {
        u64::MAX
    } else {
        (1u64 << in_width) - 1
    };
    let mut rng = seed;
    let text = synthir_sim::vcd::record_run(nl, cycles, |_| {
        let mut m = HashMap::new();
        m.insert("in".to_string(), (splitmix_next(&mut rng) & mask) as u128);
        m
    })?;
    std::fs::write(path, text).map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
    Ok(())
}

/// One SplitMix64 step — the same generator as the sim crate's random
/// equivalence checks, so VCD dumps and lockstep runs share stimulus.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = ".i 1\n.o 1\n.r off\n1 off on 1\n- off off 0\n1 on off 0\n- on on 1\n.e\n";
    /// Like TOGGLE but the `on` state drives 0 — behaviourally different.
    const BROKEN: &str = ".i 1\n.o 1\n.r off\n1 off on 1\n- off off 0\n1 on off 0\n- on on 0\n.e\n";

    fn write_temp(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn parse(raw: &[&str]) -> Args {
        Args::parse(
            raw,
            &["synth"],
            &["engine", "left", "right", "cycles", "depth", "seed", "vcd"],
        )
        .unwrap()
    }

    #[test]
    fn table_vs_case_is_equivalent() {
        let p = write_temp("cli_eq_tc.kiss2", TOGGLE);
        let out = run(&parse(&[&p, "--left", "table", "--right", "case"])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    #[test]
    fn table_vs_programmable_programs_then_compares() {
        let p = write_temp("cli_eq_tp.kiss2", TOGGLE);
        let out = run(&parse(&[&p, "--left", "table", "--right", "programmable"])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    #[test]
    fn synthesized_vs_programmable_is_equivalent() {
        let p = write_temp("cli_eq_sp.kiss2", TOGGLE);
        let out = run(&parse(&[
            &p,
            "--left",
            "table",
            "--right",
            "programmable",
            "--synth",
        ]))
        .unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    #[test]
    fn different_specs_are_caught() {
        let a = write_temp("cli_eq_a.kiss2", TOGGLE);
        let b = write_temp("cli_eq_b.kiss2", BROKEN);
        let e = run(&parse(&[&a, &b, "--left", "table", "--right", "table"])).unwrap_err();
        assert!(e.to_string().contains("INEQUIVALENT"), "{e}");
        // And against the programmed flexible design too.
        let e = run(&parse(&[
            &a,
            &b,
            "--left",
            "table",
            "--right",
            "programmable",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("INEQUIVALENT"), "{e}");
    }

    #[test]
    fn vcd_is_dumped() {
        let p = write_temp("cli_eq_vcd.kiss2", TOGGLE);
        let vcd = std::env::temp_dir().join("cli_eq_dump.vcd");
        let vcd_s = vcd.to_string_lossy().into_owned();
        let out = run(&parse(&[&p, "--right", "programmable", "--vcd", &vcd_s])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
        let text = std::fs::read_to_string(&vcd).unwrap();
        assert!(text.contains("$enddefinitions"), "{text}");
        // Bound-vs-bound path writes one too.
        let out = run(&parse(&[&p, "--right", "case", "--vcd", &vcd_s])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = write_temp("cli_eq_w1.kiss2", TOGGLE);
        let b = write_temp("cli_eq_w2.kiss2", ".i 2\n.o 1\n.r s\n-- s s 0\n");
        let e = run(&parse(&[&a, &b])).unwrap_err();
        assert!(e.to_string().contains("interface mismatch"), "{e}");
    }

    #[test]
    fn bmc_engine_on_kiss2_bound_styles() {
        let p = write_temp("cli_eq_bmc.kiss2", TOGGLE);
        let out = run(&parse(&[
            &p, "--left", "table", "--right", "case", "--engine", "sat", "--depth", "5",
        ]))
        .unwrap();
        assert!(out.contains("BMC proof"), "{out}");
        // A behavioural difference is caught within the unrolling.
        let a = write_temp("cli_eq_bmc_a.kiss2", TOGGLE);
        let b = write_temp("cli_eq_bmc_b.kiss2", BROKEN);
        let e = run(&parse(&[
            &a, &b, "--left", "table", "--right", "table", "--engine", "sat",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("INEQUIVALENT"), "{e}");
    }

    /// `--engine sat` on the program-then-compare path is ignored (with a
    /// note) — the verdict must not overclaim a BMC proof for what was a
    /// random lockstep run.
    #[test]
    fn programmable_path_never_claims_a_bmc_proof() {
        let p = write_temp("cli_eq_noclaim.kiss2", TOGGLE);
        let out = run(&parse(&[&p, "--right", "programmable", "--engine", "sat"])).unwrap();
        assert!(out.contains("--engine is ignored"), "{out}");
        assert!(!out.contains("BMC proof"), "{out}");
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    const PLA_A: &str = ".i 3\n.o 1\n11- 1\n1-1 1\n-11 1\n.e\n";
    /// Same majority function, restated with minterm cubes.
    const PLA_B: &str = ".i 3\n.o 1\n110 1\n101 1\n011 1\n111 1\n.e\n";
    /// AND3 — differs from majority.
    const PLA_C: &str = ".i 3\n.o 1\n111 1\n.e\n";

    #[test]
    fn pla_pairs_are_checked_combinationally() {
        let a = write_temp("cli_eq_maj_a.pla", PLA_A);
        let b = write_temp("cli_eq_maj_b.pla", PLA_B);
        for engine in ["auto", "bdd", "sat"] {
            let out = run(&parse(&[&a, &b, "--engine", engine])).unwrap();
            assert!(out.contains(EQUIVALENT), "{engine}: {out}");
        }
        let c = write_temp("cli_eq_and3.pla", PLA_C);
        let e = run(&parse(&[&a, &c, "--engine", "sat"])).unwrap_err();
        assert!(e.to_string().contains("INEQUIVALENT"), "{e}");
        // Random reports the honest non-verdict.
        let out = run(&parse(&[&a, &b, "--engine", "random"])).unwrap();
        assert!(out.contains("cannot prove"), "{out}");
    }

    #[test]
    fn pla_and_kiss2_operands_cannot_mix() {
        let a = write_temp("cli_eq_mix.kiss2", TOGGLE);
        let b = write_temp("cli_eq_mix.pla", PLA_A);
        let e = run(&parse(&[&a, &b])).unwrap_err();
        assert!(e.to_string().contains("cannot mix"), "{e}");
        // And kiss2-only options do not apply to PLA pairs — including the
        // sequential knobs, which would otherwise be silently ignored.
        let c = write_temp("cli_eq_mix2.pla", PLA_B);
        for bad in [["--left", "table"], ["--depth", "3"], ["--cycles", "9"]] {
            let e = run(&parse(&[&b, &c, bad[0], bad[1]])).unwrap_err();
            assert!(e.to_string().contains("does not apply"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn unknown_engine_is_an_error() {
        let a = write_temp("cli_eq_engine.kiss2", TOGGLE);
        let e = run(&parse(&[&a, "--engine", "quantum"])).unwrap_err();
        assert!(e.to_string().contains("unknown engine"), "{e}");
    }
}
