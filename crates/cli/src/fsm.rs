//! `synthir fsm` — KISS2 state machine to synthesized Verilog.
//!
//! The full paper pipeline as one command: read a `.kiss2` FSM spec, lower
//! it in one of the coding styles the paper compares, run the
//! partial-evaluating synthesis flow, and emit structural Verilog plus an
//! area/timing/power report.

use crate::args::Args;
use crate::report::{render, ReportOptions};
use crate::{design_name, CliError, CmdResult};
use synthir_core::format_conv::from_kiss2;
use synthir_core::FsmSpec;
use synthir_netlist::{verilog, Library};
use synthir_rtl::{elaborate, Module};
use synthir_synth::{flow::compile, Mapper, SynthOptions};

/// Usage text for `synthir fsm`.
pub const USAGE: &str = "\
usage: synthir fsm <spec.kiss2> [options]

Reads a KISS2 FSM specification, lowers it in a coding style, synthesizes
it with the partial-evaluating flow, and writes structural Verilog.

options:
  --style <s>     coding style: table (default), table-annotated, case,
                  programmable
  -o <file>       write structural Verilog to <file> ('-' for stdout)
  --report        print the area/timing/power report
  --json          print the synthesis result (cells, area, timing, pass
                  statistics) as JSON instead of prose
  --clock <ns>    clock period for the slack line (default 2.0)
  --mapper <m>    technology mapper: rules (default; greedy peephole
                  NAND/NOR/AOI rewrites) or cuts (k-feasible cuts on the
                  AIG, NPN-matched against the cell library, with
                  depth-oriented and area-recovery cover selection)
  --no-synth      elaborate only; skip the synthesis flow
  --sat-sweep     enable SAT sweeping inside the AIG cleanup pass
  --verify-passes SAT-check the netlist after every synthesis pass against
                  its predecessor (slow; debug aid)
";

/// Boolean flags `synthir fsm` accepts (each documented in [`USAGE`]).
pub const FLAGS: &[&str] = &["report", "json", "no-synth", "verify-passes", "sat-sweep"];

/// Valued options `synthir fsm` accepts (each documented in [`USAGE`]).
pub const OPTIONS: &[&str] = &["style", "o", "clock", "mapper"];

/// The FSM coding styles the CLI can lower to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Bound lookup tables (next-state + output memories), no annotation.
    Table,
    /// Bound lookup tables with the `fsm_state_vector` annotation attached.
    TableAnnotated,
    /// Minimized sum-of-products ("direct" / case-statement) style.
    Case,
    /// Runtime-programmable tables behind a config write port.
    Programmable,
}

impl Style {
    /// Parses a `--style` value.
    pub fn parse(s: &str) -> Result<Style, CliError> {
        match s {
            "table" => Ok(Style::Table),
            "table-annotated" | "annotated" => Ok(Style::TableAnnotated),
            "case" | "direct" => Ok(Style::Case),
            "programmable" | "flexible" | "full" => Ok(Style::Programmable),
            other => Err(CliError(format!(
                "unknown style `{other}` (expected table, table-annotated, case, programmable)"
            ))),
        }
    }

    /// Lowers a spec in this style.
    ///
    /// # Panics
    ///
    /// Panics if the spec is too wide for the case style; [`Style::check`]
    /// reports that as an error instead.
    pub fn lower(self, spec: &FsmSpec) -> Module {
        match self {
            Style::Table => spec.to_table_module(false),
            Style::TableAnnotated => spec.to_table_module(true),
            Style::Case => spec.to_case_module(),
            Style::Programmable => spec.to_programmable_module(),
        }
    }

    /// Checks that [`Style::lower`] can lower `spec` in this style.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the case style would exceed its minimizer's
    /// width limit ([`FsmSpec::CASE_MAX_VARS`] state plus input bits).
    pub fn check(self, spec: &FsmSpec) -> Result<(), CliError> {
        let vars = spec.state_bits() + spec.num_inputs();
        if self == Style::Case && vars > FsmSpec::CASE_MAX_VARS {
            return Err(CliError(format!(
                "`{}` is too wide for the case style: {} state bits + {} inputs \
                 = {vars} variables, over the limit of {}",
                spec.name(),
                spec.state_bits(),
                spec.num_inputs(),
                FsmSpec::CASE_MAX_VARS
            )));
        }
        Ok(())
    }
}

/// Runs the subcommand; returns the text for stdout.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, unreadable/unparsable input, or
/// elaboration/synthesis failures.
pub fn run(args: &Args) -> CmdResult {
    let [path] = args.expect_positionals(1, "one <spec.kiss2> operand")? else {
        unreachable!()
    };
    let style = Style::parse(args.option("style").unwrap_or("table"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let spec = from_kiss2(design_name(path), &text)?;
    style.check(&spec)?;
    let module = style.lower(&spec);

    let json = args.flag("json");
    if json && args.flag("no-synth") {
        return Err(CliError(
            "--json reports the synthesis result; drop --no-synth".into(),
        ));
    }
    let mut out = String::new();
    if !json {
        out.push_str(&format!(
            "{}: {} states ({} reachable), {} inputs, {} outputs → {}\n",
            spec.name(),
            spec.state_count(),
            spec.reachable_states().len(),
            spec.num_inputs(),
            spec.num_outputs(),
            module.name(),
        ));
    }

    let elab = elaborate(&module)?;
    let lib = Library::vt90();
    let report_opts = ReportOptions {
        clock_ns: args.option_parsed("clock", ReportOptions::default().clock_ns)?,
        ..Default::default()
    };

    let netlist = if args.flag("no-synth") {
        out.push_str(&format!(
            "elaborated: {} gates ({} flops), synthesis skipped\n",
            elab.netlist.num_gates(),
            elab.netlist.flop_count()
        ));
        if args.flag("report") {
            out.push_str(&crate::report::render_netlist_stats(
                &elab.netlist,
                &lib,
                &report_opts,
            ));
        }
        elab.netlist
    } else {
        let mut sopts = SynthOptions::default();
        if args.flag("verify-passes") {
            sopts.verify_each_pass = true;
        }
        if args.flag("sat-sweep") {
            sopts.sat_sweep = true;
        }
        if let Some(m) = args.option("mapper") {
            sopts.mapper = Mapper::parse(m).map_err(|bad| {
                CliError(format!("unknown mapper `{bad}` (expected rules or cuts)"))
            })?;
        }
        let r = compile(&elab, &lib, &sopts)?;
        if json {
            out.push_str(&format!(
                "{{\n  \"design\": \"{}\",\n  \"states\": {},\n  \"reachable_states\": {},\n  \
                 \"mapper\": \"{}\",\n  \
                 \"gates\": {},\n  \"flops\": {},\n  \"area_um2\": {:.2},\n  \
                 \"area_sequential_um2\": {:.2},\n  \"critical_ns\": {:.4},\n  \"passes\": {}\n}}\n",
                crate::report::json_escape(module.name()),
                spec.state_count(),
                spec.reachable_states().len(),
                sopts.mapper.name(),
                r.netlist.num_gates(),
                r.netlist.flop_count(),
                r.area.total(),
                r.area.sequential,
                r.timing.critical_delay,
                crate::report::pass_stats_json(&r.stats),
            ));
        } else if args.flag("report") {
            out.push_str(&render(module.name(), &r, &lib, &report_opts));
        } else {
            out.push_str(&format!(
                "synthesized: {} gates ({} flops), area {:.1} µm², critical {:.3} ns\n",
                r.netlist.num_gates(),
                r.netlist.flop_count(),
                r.area.total(),
                r.timing.critical_delay
            ));
        }
        r.netlist
    };

    if let Some(vpath) = args.option("o") {
        let v = verilog::to_verilog(&netlist);
        if vpath == "-" {
            out.push_str(&v);
        } else {
            std::fs::write(vpath, &v)
                .map_err(|e| CliError(format!("cannot write `{vpath}`: {e}")))?;
            out.push_str(&format!("wrote {vpath} ({} lines)\n", v.lines().count()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = ".i 1\n.o 1\n.r off\n1 off on 1\n- off off 0\n1 on off 0\n- on on 1\n.e\n";

    fn write_temp(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fsm_pipeline_runs_and_reports() {
        let path = write_temp("cli_fsm_toggle.kiss2", TOGGLE);
        let args = Args::parse(
            &[path.as_str(), "--style", "table", "--report", "-o", "-"],
            FLAGS,
            OPTIONS,
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("2 states"), "{out}");
        assert!(out.contains("area"), "{out}");
        assert!(out.contains("module cli_fsm_toggle_table"), "{out}");
    }

    #[test]
    fn all_styles_lower() {
        let path = write_temp("cli_fsm_styles.kiss2", TOGGLE);
        for style in ["table", "table-annotated", "case", "programmable"] {
            let args = Args::parse(&[path.as_str(), "--style", style], FLAGS, OPTIONS).unwrap();
            let out = run(&args).unwrap();
            assert!(out.contains("synthesized"), "style {style}: {out}");
        }
    }

    #[test]
    fn no_synth_skips_the_flow() {
        let path = write_temp("cli_fsm_nosynth.kiss2", TOGGLE);
        let args = Args::parse(&[path.as_str(), "--no-synth"], FLAGS, OPTIONS).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("synthesis skipped"), "{out}");
        // --report still works without the synthesis flow: it renders the
        // netlist-only statistics.
        let args = Args::parse(&[path.as_str(), "--no-synth", "--report"], FLAGS, OPTIONS).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("area"), "{out}");
        assert!(out.contains("power"), "{out}");
    }

    #[test]
    fn verify_passes_flag_runs_the_checked_flow() {
        let path = write_temp("cli_fsm_verify.kiss2", TOGGLE);
        let args = Args::parse(&[path.as_str(), "--verify-passes"], FLAGS, OPTIONS).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("synthesized"), "{out}");
    }

    #[test]
    fn json_output_carries_pass_stats() {
        let path = write_temp("cli_fsm_json.kiss2", TOGGLE);
        let args = Args::parse(&[path.as_str(), "--json"], FLAGS, OPTIONS).unwrap();
        let out = run(&args).unwrap();
        for needle in [
            "\"design\"",
            "\"gates\"",
            "\"area_um2\"",
            "\"passes\"",
            "\"aig_opt\"",
            "\"rewrites\"",
        ] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
        // The sweep flag parses and runs too.
        let args = Args::parse(&[path.as_str(), "--json", "--sat-sweep"], FLAGS, OPTIONS).unwrap();
        assert!(run(&args).unwrap().contains("\"passes\""));
    }

    /// A valid spec too wide for the case style's minimizer (16 inputs and
    /// 32 states: 21 variables) is refused with an error naming the limit,
    /// by both subcommands that lower it, instead of panicking.
    #[test]
    fn case_style_too_wide_is_an_error() {
        let mut kiss = String::from(".i 16\n.o 1\n.r s0\n");
        for i in 0..32 {
            kiss.push_str(&format!(
                "{} s{i} s{} {}\n",
                "-".repeat(16),
                (i + 1) % 32,
                i % 2
            ));
        }
        let path = write_temp("cli_fsm_wide.kiss2", &kiss);
        let args = Args::parse(&[path.as_str(), "--style", "case"], FLAGS, OPTIONS).unwrap();
        let err = run(&args).unwrap_err().0;
        assert!(err.contains("limit of 20"), "{err}");
        for side in ["--left", "--right"] {
            let args = Args::parse(
                &[path.as_str(), path.as_str(), side, "case"],
                crate::equiv::FLAGS,
                crate::equiv::OPTIONS,
            )
            .unwrap();
            let err = crate::equiv::run(&args).unwrap_err().0;
            assert!(err.contains("limit of 20"), "{side}: {err}");
        }
    }

    #[test]
    fn missing_file_and_bad_style_error() {
        let args = Args::parse(&["/nonexistent.kiss2"], FLAGS, OPTIONS).unwrap();
        assert!(run(&args).is_err());
        assert!(Style::parse("bogus").is_err());
    }
}
