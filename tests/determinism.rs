//! Repeatability: compiling the same design twice in one process must give
//! byte-identical Verilog. Hash-ordered iteration anywhere in the flow
//! (e.g. summing floating-point areas in `HashSet` order) breaks this.

use synthir::core::random::random_fsm;
use synthir::netlist::{verilog::to_verilog, Library};
use synthir::rtl::elaborate;
use synthir::synth::flow::compile;
use synthir::synth::SynthOptions;

#[test]
fn compile_is_repeatable_within_a_process() {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    for m in [4, 6] {
        for seed in 0..6u64 {
            let spec = random_fsm(m, 8, 8, seed);
            for (style, module) in [
                ("table", spec.to_table_module(false)),
                ("table-annotated", spec.to_table_module(true)),
                ("case", spec.to_case_module()),
            ] {
                let elab = elaborate(&module).unwrap();
                let first = to_verilog(&compile(&elab, &lib, &opts).unwrap().netlist);
                let second = to_verilog(&compile(&elab, &lib, &opts).unwrap().netlist);
                assert!(
                    first == second,
                    "m{m}/n8/s8 seed {seed} {style}: two compiles differ"
                );
            }
        }
    }
}
