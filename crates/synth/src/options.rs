//! Synthesis options: only the knobs some caller varies. Retiming is
//! Fig. 8's "Retimed" variant, the FSM encoding is swept by the encoding
//! ablation, and the mapper, SAT sweeping and per-pass verification are
//! CLI flags. The recipe's effort limits (resynthesis cone support and
//! cover size, the value-set cap `k = 32`, the FSM enumeration budget) are
//! constants inside the passes that use them.

/// State-encoding styles for FSM re-encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FsmEncoding {
    /// Minimum-length binary codes `0..n` (the default).
    #[default]
    Binary,
    /// One flop per state.
    OneHot,
    /// Binary-reflected Gray codes.
    Gray,
    /// Keep the original codes (prune unreachables only).
    Keep,
}

/// Which technology mapper [`crate::flow::compile`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Mapper {
    /// The greedy peephole rule mapper ([`crate::techmap`]): local
    /// NAND/NOR/AOI/OAI pattern rewrites on the flat netlist. The
    /// default, and the A/B baseline the cut mapper is measured against.
    #[default]
    Rules,
    /// The cut-based mapper ([`crate::cutmap`]): k-feasible cut
    /// enumeration on the AIG, NPN matching against the library's cell
    /// metadata, and depth/area-flow/exact-local-area cover selection,
    /// emitting the mapped netlist directly from the chosen cuts.
    Cuts,
}

impl Mapper {
    /// Parses a mapper name (the CLI `--mapper` values).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input as the error value.
    pub fn parse(s: &str) -> Result<Mapper, String> {
        match s {
            "rules" | "rule" => Ok(Mapper::Rules),
            "cuts" | "cut" => Ok(Mapper::Cuts),
            other => Err(other.to_string()),
        }
    }

    /// The canonical name (`rules` / `cuts`).
    pub fn name(&self) -> &'static str {
        match self {
            Mapper::Rules => "rules",
            Mapper::Cuts => "cuts",
        }
    }
}

/// Options controlling [`crate::flow::compile`]: only what the paper's
/// experiments and the CLI vary. Everything else in the recipe is fixed.
#[derive(Clone, Debug, Default)]
pub struct SynthOptions {
    /// Run forward and backward retiming before optimization (Fig. 8's
    /// "Retimed" variants).
    pub retime: bool,
    /// Encoding used by FSM re-encoding.
    pub fsm_encoding: FsmEncoding,
    /// Which technology mapper to run: the rule mapper (default) or the
    /// cut-based mapper.
    pub mapper: Mapper,
    /// Run SAT sweeping inside the AIG cleanup: candidate equivalences
    /// from random-simulation signatures, proved by the CDCL solver and
    /// merged on proof. Off by default (it trades compile time for the
    /// sharing structural methods cannot see).
    pub sat_sweep: bool,
    /// Debug option: after every pass, SAT-check the netlist against its
    /// predecessor (combinational miter for pure logic, bounded model check
    /// from reset for sequential designs) and abort the flow if a pass
    /// changed observable behaviour. Expensive; off by default.
    pub verify_each_pass: bool,
}

impl SynthOptions {
    /// The default `compile` recipe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns options with retiming enabled.
    pub fn with_retime(mut self) -> Self {
        self.retime = true;
        self
    }

    /// Returns options with a specific FSM encoding.
    pub fn with_fsm_encoding(mut self, enc: FsmEncoding) -> Self {
        self.fsm_encoding = enc;
        self
    }

    /// Returns options with per-pass SAT verification enabled.
    pub fn with_verify_each_pass(mut self) -> Self {
        self.verify_each_pass = true;
        self
    }

    /// Returns options with SAT sweeping enabled inside the AIG cleanup.
    pub fn with_sat_sweep(mut self) -> Self {
        self.sat_sweep = true;
        self
    }

    /// Returns options using the cut-based technology mapper
    /// ([`Mapper::Cuts`]).
    pub fn with_cut_mapper(mut self) -> Self {
        self.mapper = Mapper::Cuts;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_limits() {
        let o = SynthOptions::default();
        assert!(!o.retime);
        assert_eq!(o.fsm_encoding, FsmEncoding::Binary);
        assert!(!o.sat_sweep && !o.verify_each_pass);
    }

    #[test]
    fn builder_methods() {
        let o = SynthOptions::new()
            .with_retime()
            .with_fsm_encoding(FsmEncoding::OneHot);
        assert!(o.retime);
        assert_eq!(o.fsm_encoding, FsmEncoding::OneHot);
        assert_eq!(o.mapper, Mapper::Rules);
        assert_eq!(o.with_cut_mapper().mapper, Mapper::Cuts);
    }

    #[test]
    fn mapper_names_round_trip() {
        for m in [Mapper::Rules, Mapper::Cuts] {
            assert_eq!(Mapper::parse(m.name()), Ok(m));
        }
        assert!(Mapper::parse("bogus").is_err());
    }
}
