//! End-to-end runs of every shipped benchmark through the CLI pipelines —
//! the offline demonstration the README promises, as a test.

use synthir_cli::args::Args;
use synthir_cli::{equiv, fsm, pla, ucode};

fn bench_path(name: &str) -> String {
    format!("{}/../../benchmarks/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn kiss2_benchmarks() -> Vec<String> {
    let dir = format!("{}/../../benchmarks", env!("CARGO_MANIFEST_DIR"));
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .expect("benchmarks/ exists")
        .filter_map(|e| Some(e.ok()?.path().to_string_lossy().into_owned()))
        .filter(|p| p.ends_with(".kiss2"))
        .collect();
    v.sort();
    assert!(
        v.len() >= 3,
        "expected at least 3 KISS2 benchmarks, got {v:?}"
    );
    v
}

/// The ISSUE's acceptance flow: `synthir fsm <x>.kiss2 --style table -o
/// out.v --report` runs end-to-end, and the emitted module is equivalent to
/// the programmable baseline under `synthir equiv`.
#[test]
fn every_kiss2_benchmark_synthesizes_and_matches_programmable_baseline() {
    for path in kiss2_benchmarks() {
        let out_v = std::env::temp_dir().join(format!(
            "bench_{}.v",
            std::path::Path::new(&path)
                .file_stem()
                .unwrap()
                .to_string_lossy()
        ));
        let out_v = out_v.to_string_lossy().into_owned();
        let args = Args::parse(
            &[
                path.as_str(),
                "--style",
                "table",
                "-o",
                out_v.as_str(),
                "--report",
            ],
            &["report", "no-synth"],
            &["style", "o", "clock"],
        )
        .unwrap();
        let out = fsm::run(&args).unwrap();
        assert!(out.contains("area"), "{path}: {out}");
        let verilog = std::fs::read_to_string(&out_v).unwrap();
        assert!(verilog.contains("module "), "{path}: no module in {out_v}");

        let eq_args = Args::parse(
            &[
                path.as_str(),
                "--left",
                "table",
                "--right",
                "programmable",
                "--synth",
            ],
            &["synth"],
            &["left", "right", "cycles", "seed", "vcd"],
        )
        .unwrap();
        let eq = equiv::run(&eq_args).unwrap();
        assert!(eq.contains(equiv::EQUIVALENT), "{path}: {eq}");
    }
}

/// Every KISS2 benchmark also agrees across all three bound styles.
#[test]
fn kiss2_benchmarks_agree_across_bound_styles() {
    for path in kiss2_benchmarks() {
        for style in ["table-annotated", "case"] {
            let args = Args::parse(
                &[path.as_str(), "--left", "table", "--right", style],
                &["synth"],
                &["left", "right", "cycles", "seed", "vcd"],
            )
            .unwrap();
            let out = equiv::run(&args).unwrap();
            assert!(out.contains(equiv::EQUIVALENT), "{path} vs {style}: {out}");
        }
    }
}

#[test]
fn pla_benchmarks_minimize() {
    for (name, expect_fewer) in [("majority.pla", false), ("one_hot.pla", true)] {
        let path = bench_path(name);
        let args = Args::parse(&[path.as_str(), "--stats"], &["stats", "echo"], &["o"]).unwrap();
        let out = pla::run(&args).unwrap();
        assert!(out.contains("terms"), "{name}: {out}");
        if expect_fewer {
            // The fr-type benchmark has exploitable don't-cares.
            let nums: Vec<usize> = out
                .lines()
                .find(|l| l.starts_with("terms"))
                .unwrap()
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect();
            assert!(nums[1] < nums[0], "{name}: {out}");
        }
    }
}

fn equiv_args(raw: &[&str]) -> Args {
    Args::parse(
        raw,
        &["synth"],
        &["engine", "left", "right", "cycles", "depth", "seed", "vcd"],
    )
    .unwrap()
}

/// The wide pair: 32 shared input bits, beyond the BDD engine's 24-bit
/// limit. The SAT engine proves equivalence, the BDD engine refuses, and
/// the random engine cannot prove (it reports only the absence of a found
/// difference).
#[test]
fn wide_pla_pair_is_proved_by_sat_only() {
    let a = bench_path("wide_ctrl_a.pla");
    let b = bench_path("wide_ctrl_b.pla");

    let out = equiv::run(&equiv_args(&[&a, &b, "--engine", "sat"])).unwrap();
    assert!(out.contains("EQUIVALENT (proved, engine sat)"), "{out}");

    // Auto routes to SAT beyond the BDD limit and still proves.
    let out = equiv::run(&equiv_args(&[&a, &b])).unwrap();
    assert!(out.contains("proved"), "{out}");

    let err = equiv::run(&equiv_args(&[&a, &b, "--engine", "bdd"])).unwrap_err();
    assert!(err.to_string().contains("engine limit"), "{err}");

    let out = equiv::run(&equiv_args(&[&a, &b, "--engine", "random"])).unwrap();
    assert!(out.contains("cannot prove"), "{out}");
}

/// Injecting an inequivalence (dropping one product term) yields a concrete
/// SAT counterexample.
#[test]
fn wide_pla_injected_inequivalence_yields_counterexample() {
    let a = bench_path("wide_ctrl_a.pla");
    let text = std::fs::read_to_string(bench_path("wide_ctrl_b.pla")).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let last_term = lines
        .iter()
        .rposition(|l| !l.is_empty() && !l.starts_with('.') && !l.starts_with('#'))
        .expect("term lines");
    lines.remove(last_term);
    let broken: String = lines
        .iter()
        .map(|l| if l.starts_with(".p") { ".p 39" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    let path = std::env::temp_dir().join("bench_wide_ctrl_b_broken.pla");
    std::fs::write(&path, broken + "\n").unwrap();
    let path = path.to_string_lossy().into_owned();

    let err = equiv::run(&equiv_args(&[&a, &path, "--engine", "sat"])).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("INEQUIVALENT"), "{msg}");
    assert!(msg.contains("inputs"), "{msg}");
}

/// The wide pair stays equivalent through the full synthesis flow
/// (`--synth`), SAT-checked — partial evaluation is sound at widths the
/// BDD engine cannot reach.
#[test]
fn wide_pla_pair_survives_synthesis() {
    let a = bench_path("wide_ctrl_a.pla");
    let b = bench_path("wide_ctrl_b.pla");
    let out = equiv::run(&equiv_args(&[&a, &b, "--engine", "sat", "--synth"])).unwrap();
    assert!(out.contains("proved"), "{out}");
}

/// BMC (`--engine sat`) agrees with random lockstep on the KISS2
/// benchmarks' bound styles.
#[test]
fn kiss2_benchmarks_bmc_proves_bound_styles() {
    for path in kiss2_benchmarks() {
        let out = equiv::run(&equiv_args(&[
            &path, "--left", "table", "--right", "case", "--engine", "sat", "--depth", "5",
        ]))
        .unwrap();
        assert!(out.contains("BMC proof"), "{path}: {out}");
    }
}

#[test]
fn ucode_benchmark_assembles_and_synthesizes() {
    let path = bench_path("dma_copy.uasm");
    let args = Args::parse(
        &[path.as_str(), "--report", "--disasm"],
        &[
            "report",
            "flexible",
            "register-outputs",
            "annotate",
            "disasm",
        ],
        &["o", "clock"],
    )
    .unwrap();
    let out = ucode::run(&args).unwrap();
    assert!(out.contains("instructions"), "{out}");
    assert!(out.contains("area"), "{out}");
}

/// The verified flow (`verify_each_pass`) stays green on every shipped
/// controller: every pass, the AIG passes included, is SAT-checked against
/// its predecessor, with and without SAT sweeping.
#[test]
fn verified_flows_pass_on_all_benchmarks() {
    use synthir_core::format_conv::from_kiss2;
    use synthir_netlist::Library;
    use synthir_rtl::elaborate;
    use synthir_synth::{compile, SynthOptions};

    let lib = Library::vt90();
    for path in kiss2_benchmarks() {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = from_kiss2("bench", &text).unwrap();
        let elab = elaborate(&spec.to_table_module(true)).unwrap();
        let verified = SynthOptions::default().with_verify_each_pass();
        compile(&elab, &lib, &verified).unwrap();
        let swept = SynthOptions::default()
            .with_sat_sweep()
            .with_verify_each_pass();
        compile(&elab, &lib, &swept).unwrap();
    }
}

/// The ISSUE 5 acceptance bar: on every shipped controller, the cut-based
/// mapper (`--mapper cuts`) produces a netlist proved equivalent to the
/// rule mapper's by the exact engines — SAT for sequential designs, SAT
/// *and* BDD for combinational ones within the BDD width limit — and its
/// area is equal or smaller on at least half of the workloads.
#[test]
fn cut_mapper_matches_rule_mapper_on_every_controller() {
    use synthir_cli::equiv::pla_netlist;
    use synthir_core::format_conv::from_kiss2;
    use synthir_logic::pla::Pla;
    use synthir_netlist::Library;
    use synthir_rtl::elaborate;
    use synthir_sim::{check_comb_equiv, check_seq_equiv, EquivEngine, EquivOptions};
    use synthir_synth::{compile, flow::compile_netlist, SynthOptions};

    let lib = Library::vt90();
    let rules = SynthOptions::default();
    let cuts = SynthOptions::default().with_cut_mapper();
    let mut sat = EquivOptions::new();
    sat.engine = EquivEngine::Sat;
    let mut bdd = EquivOptions::new();
    bdd.engine = EquivEngine::Bdd;

    let mut total = 0usize;
    let mut cuts_wins_or_ties = 0usize;

    // KISS2 controllers, bound and programmable lowerings: sequential
    // SAT proof (BMC from reset).
    for path in kiss2_benchmarks() {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = from_kiss2("bench", &text).unwrap();
        for (style, module) in [
            ("table", spec.to_table_module(true)),
            ("programmable", spec.to_programmable_module()),
        ] {
            let elab = elaborate(&module).unwrap();
            let r_rules = compile(&elab, &lib, &rules).unwrap();
            let r_cuts = compile(&elab, &lib, &cuts).unwrap();
            assert!(
                r_cuts.stats.iter().any(|s| s.name == "cutmap"),
                "{path} {style}: cutmap pass missing from stats"
            );
            let res = check_seq_equiv(&r_rules.netlist, &r_cuts.netlist, &sat).unwrap();
            assert!(res.is_equivalent(), "{path} {style}: mappers diverge");
            total += 1;
            if r_cuts.area.total() <= r_rules.area.total() + 1e-9 {
                cuts_wins_or_ties += 1;
            }
        }
    }

    // PLA controllers: combinational SAT proof, plus the BDD engine
    // wherever the interface fits under its 24-bit limit.
    let dir = format!("{}/../../benchmarks", env!("CARGO_MANIFEST_DIR"));
    let mut plas: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path().to_string_lossy().into_owned()))
        .filter(|p| p.ends_with(".pla"))
        .collect();
    plas.sort();
    assert!(plas.len() >= 2, "expected PLA benchmarks, got {plas:?}");
    for path in plas {
        let text = std::fs::read_to_string(&path).unwrap();
        let pla = Pla::parse(&text).unwrap();
        let nl = pla_netlist("ctrl", &pla);
        let r_rules = compile_netlist(nl.clone(), None, &[], &lib, &rules).unwrap();
        let r_cuts = compile_netlist(nl, None, &[], &lib, &cuts).unwrap();
        let res = check_comb_equiv(&r_rules.netlist, &r_cuts.netlist, &sat).unwrap();
        assert!(res.is_equivalent(), "{path}: mappers diverge (SAT)");
        if pla.num_inputs <= 24 {
            let res = check_comb_equiv(&r_rules.netlist, &r_cuts.netlist, &bdd).unwrap();
            assert!(res.is_equivalent(), "{path}: mappers diverge (BDD)");
        }
        total += 1;
        if r_cuts.area.total() <= r_rules.area.total() + 1e-9 {
            cuts_wins_or_ties += 1;
        }
    }

    assert!(
        cuts_wins_or_ties * 2 >= total,
        "cut mapper larger on too many controllers: {cuts_wins_or_ties}/{total} equal-or-smaller"
    );
}

/// The verified flow stays green with the cut mapper in the loop: every
/// pass, `cutmap` included, is SAT-checked against its predecessor on
/// every KISS2 benchmark.
#[test]
fn cut_mapper_survives_verify_each_pass_on_all_benchmarks() {
    use synthir_core::format_conv::from_kiss2;
    use synthir_netlist::Library;
    use synthir_rtl::elaborate;
    use synthir_synth::{compile, SynthOptions};

    let lib = Library::vt90();
    let opts = SynthOptions::default()
        .with_cut_mapper()
        .with_verify_each_pass();
    for path in kiss2_benchmarks() {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = from_kiss2("bench", &text).unwrap();
        let elab = elaborate(&spec.to_table_module(true)).unwrap();
        let r = compile(&elab, &lib, &opts).unwrap();
        assert!(r.netlist.num_gates() > 0);
    }
}

/// The `--mapper` flag is plumbed through the CLI: both values run, the
/// JSON report names the mapper and the `cutmap` pass, and a bogus value
/// is a parse error.
#[test]
fn mapper_flag_reaches_the_flow() {
    let path = &kiss2_benchmarks()[0];
    // Parse with the same FLAGS/OPTIONS tables the `synthir` binary uses,
    // so this test cannot drift from the real argument handling.
    let parse = |raw: &[&str]| Args::parse(raw, fsm::FLAGS, fsm::OPTIONS).unwrap();
    let out = fsm::run(&parse(&[path, "--json", "--mapper", "cuts"])).unwrap();
    assert!(out.contains("\"mapper\": \"cuts\""), "{out}");
    assert!(out.contains("\"cutmap\""), "{out}");
    let out = fsm::run(&parse(&[path, "--json", "--mapper", "rules"])).unwrap();
    assert!(out.contains("\"mapper\": \"rules\""), "{out}");
    assert!(out.contains("\"techmap\""), "{out}");
    assert!(fsm::run(&parse(&[path, "--mapper", "bogus"])).is_err());
}

/// `synthir help <command>` long help covers every flag and option the
/// dispatcher accepts — the FLAGS/OPTIONS tables the binary parses with
/// must each be documented in the corresponding USAGE text.
#[test]
fn long_help_covers_every_flag() {
    let commands: [(&str, &str, &[&str], &[&str]); 4] = [
        ("fsm", fsm::USAGE, fsm::FLAGS, fsm::OPTIONS),
        ("pla", pla::USAGE, pla::FLAGS, pla::OPTIONS),
        ("ucode", ucode::USAGE, ucode::FLAGS, ucode::OPTIONS),
        ("equiv", equiv::USAGE, equiv::FLAGS, equiv::OPTIONS),
    ];
    for (cmd, usage, flags, options) in commands {
        for name in flags.iter().chain(options.iter()) {
            let spelled = if name.len() == 1 {
                format!("-{name}")
            } else {
                format!("--{name}")
            };
            assert!(
                usage.contains(&spelled),
                "`synthir {cmd}` help does not document `{spelled}`"
            );
        }
    }
}
