//! The timed operations: the same public calls the `synthir` CLI makes,
//! each wrapped in a span named after the layer it enters.

use crate::gen::{Input, Job, BMC_DEPTH};
use crate::trace::{Span, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use synthir_cli::equiv::pla_netlist;
use synthir_cli::fsm::Style;
use synthir_cli::report::{render, ReportOptions};
use synthir_core::format_conv::from_kiss2;
use synthir_logic::pla::Pla;
use synthir_netlist::{verilog, Library, Netlist};
use synthir_rtl::elaborate;
use synthir_sim::{check_comb_equiv, check_seq_equiv, EquivEngine, EquivOptions, EquivResult};
use synthir_synth::flow::{compile, compile_netlist, CompileResult};
use synthir_synth::SynthOptions;

/// One compiled netlist and what the flow reported about it.
pub struct Compiled {
    /// The mapped netlist.
    pub netlist: Netlist,
    /// Total area in µm².
    pub area: f64,
    /// Critical path in ns.
    pub critical_ns: f64,
    /// Gates in the elaborated (pre-synthesis) netlist, when the benchmark
    /// sees it.
    pub elab_gates: Option<usize>,
    /// Gates entering and leaving `fsm_reencode`.
    pub reencode_gates: (usize, usize),
    /// Gates entering and leaving `resynthesize`.
    pub resynth_gates: (usize, usize),
}

/// What one operation produced.
pub struct OpResult {
    /// Every netlist the operation compiled (one per design, two per
    /// verdict).
    pub compiled: Vec<Compiled>,
    /// The verdict, for pairs.
    pub equivalent: Option<bool>,
    /// Hash of everything that must repeat exactly for a seed: gate
    /// counts, area, critical path, Verilog text and verdict.
    pub digest: u64,
    /// Recorded spans (empty with tracing off).
    pub spans: Vec<Span>,
}

fn summarize(r: CompileResult, elab_gates: Option<usize>) -> Compiled {
    let gates_of = |name: &str| {
        r.stats
            .iter()
            .filter(|p| p.name == name)
            .fold((0, 0), |(a, b), p| (a + p.gates_before, b + p.gates_after))
    };
    Compiled {
        area: r.area.total(),
        critical_ns: r.timing.critical_delay,
        elab_gates,
        reencode_gates: gates_of("fsm_reencode"),
        resynth_gates: gates_of("resynthesize"),
        netlist: r.netlist,
    }
}

/// Runs one job. `Err` carries the failure message (an error from any
/// layer); panics are caught by the caller.
pub fn run(job: &Job, lib: &Library, traced: bool, epoch: Instant) -> Result<OpResult, String> {
    let mut tr = Tracer::new(traced, epoch);
    let mut h = DefaultHasher::new();
    let root = tr.open();
    let result = match &job.input {
        Input::Fsm { text, style, .. } => design(&mut tr, &mut h, text, *style, lib),
        Input::Pctrl { cfg, flavor } => pctrl(&mut tr, &mut h, cfg, *flavor, lib),
        Input::SeqPair { left, right, .. } => seq_pair(&mut tr, &mut h, left, right, lib),
        Input::PlaPair {
            left_text,
            right_text,
            ..
        } => pla_pair(&mut tr, &mut h, left_text, right_text, lib),
    };
    tr.close(root, "bench.op");
    let (compiled, equivalent) = result?;
    equivalent.hash(&mut h);
    Ok(OpResult {
        compiled,
        equivalent,
        digest: h.finish(),
        spans: tr.finish(),
    })
}

type Produced = Result<(Vec<Compiled>, Option<bool>), String>;

fn err<E: std::fmt::Display>(layer: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{layer}: {e}")
}

/// Reads, lowers, elaborates and synthesizes one KISS2 spec, as
/// `synthir fsm` and `synthir equiv --synth` do; also returns the
/// elaborated gate count.
fn kiss2_netlist(
    tr: &mut Tracer,
    name: &str,
    text: &str,
    style: Style,
    lib: &Library,
) -> Result<(CompileResult, usize), String> {
    let spec = tr
        .span("core.parse", || from_kiss2(name, text))
        .map_err(err("core.parse"))?;
    let module = tr.span("core.lower", || style.lower(&spec));
    let elab = tr
        .span("rtl.elaborate", || elaborate(&module))
        .map_err(err("rtl.elaborate"))?;
    let r = tr
        .compile("synth.compile", || {
            compile(&elab, lib, &SynthOptions::default())
        })
        .map_err(err("synth.compile"))?;
    Ok((r, elab.netlist.num_gates()))
}

/// `synthir fsm <spec.kiss2> --style <s> --report -o out.v`.
fn design(
    tr: &mut Tracer,
    h: &mut DefaultHasher,
    text: &str,
    style: Style,
    lib: &Library,
) -> Produced {
    let (r, elab_gates) = kiss2_netlist(tr, "spec", text, style, lib)?;
    emit(tr, h, &r, lib);
    Ok((vec![summarize(r, Some(elab_gates))], None))
}

/// `smpctrl::synthesize` for one configuration and flavour, then the same
/// Verilog and report as a design.
fn pctrl(
    tr: &mut Tracer,
    h: &mut DefaultHasher,
    cfg: &smpctrl::MemoryConfig,
    flavor: smpctrl::Flavor,
    lib: &Library,
) -> Produced {
    let r = tr
        .compile("pctrl.synthesize", || {
            smpctrl::synthesize(cfg, flavor, lib, &SynthOptions::default())
        })
        .map_err(err("pctrl.synthesize"))?;
    emit(tr, h, &r, lib);
    Ok((vec![summarize(r, None)], None))
}

/// Structural Verilog plus the area/timing/power report, as `-o` and
/// `--report` produce them.
fn emit(tr: &mut Tracer, h: &mut DefaultHasher, r: &CompileResult, lib: &Library) {
    let v = tr.span("netlist.verilog", || verilog::to_verilog(&r.netlist));
    let report = tr.span("netlist.report", || {
        render(r.netlist.name(), r, lib, &ReportOptions::default())
    });
    std::hint::black_box(report);
    v.hash(h);
    hash_result(h, r);
}

fn hash_result(h: &mut DefaultHasher, r: &CompileResult) {
    r.netlist.num_gates().hash(h);
    r.area.total().to_bits().hash(h);
    r.timing.critical_delay.to_bits().hash(h);
}

fn sat_options() -> EquivOptions {
    let mut opts = EquivOptions::new();
    opts.engine = EquivEngine::Sat;
    opts.bmc_depth = BMC_DEPTH;
    opts
}

fn verdict_layer<E>(r: &Result<EquivResult, E>) -> &'static str {
    match r {
        Ok(EquivResult::Inequivalent(_)) => "sim.equiv_cex",
        _ => "sim.equiv_proved",
    }
}

/// `synthir equiv a.kiss2 b.kiss2 --left table-annotated --right case
/// --synth --engine sat`.
fn seq_pair(
    tr: &mut Tracer,
    h: &mut DefaultHasher,
    left: &str,
    right: &str,
    lib: &Library,
) -> Produced {
    let mut compiled = Vec::new();
    for (name, text, style) in [
        ("left", left, Style::TableAnnotated),
        ("right", right, Style::Case),
    ] {
        let (r, elab_gates) = kiss2_netlist(tr, name, text, style, lib)?;
        hash_result(h, &r);
        compiled.push(summarize(r, Some(elab_gates)));
    }
    let opts = sat_options();
    let res = tr
        .span_named(verdict_layer, || {
            check_seq_equiv(&compiled[0].netlist, &compiled[1].netlist, &opts)
        })
        .map_err(err("sim.equiv"))?;
    Ok((compiled, Some(res.is_equivalent())))
}

/// `synthir equiv a.pla b.pla --synth --engine sat`.
fn pla_pair(
    tr: &mut Tracer,
    h: &mut DefaultHasher,
    left: &str,
    right: &str,
    lib: &Library,
) -> Produced {
    let mut compiled = Vec::new();
    for (name, text) in [("left", left), ("right", right)] {
        let pla = tr
            .span("core.parse", || Pla::parse(text))
            .map_err(err("core.parse"))?;
        let nl = tr.span("core.lower", || pla_netlist(name, &pla));
        let elab_gates = nl.num_gates();
        let r = tr
            .compile("synth.compile", || {
                compile_netlist(nl, None, &[], lib, &SynthOptions::default())
            })
            .map_err(err("synth.compile"))?;
        hash_result(h, &r);
        compiled.push(summarize(r, Some(elab_gates)));
    }
    let opts = sat_options();
    let res = tr
        .span_named(verdict_layer, || {
            check_comb_equiv(&compiled[0].netlist, &compiled[1].netlist, &opts)
        })
        .map_err(err("sim.equiv"))?;
    Ok((compiled, Some(res.is_equivalent())))
}
