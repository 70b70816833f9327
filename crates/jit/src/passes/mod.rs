//! Optimization passes over the MIR.
//!
//! Every pass is a function `fn(&mut MirFunction, &mut PassContext)`; the
//! pipeline in [`crate::pipeline`] sequences them into 32 slots (some
//! passes run more than once, as IonMonkey does).

pub mod checks;
pub mod dce;
pub mod gvn;
pub mod licm;
pub mod linear;
pub mod loadelim;
pub mod phis;
pub mod prune;
pub mod range;
pub mod renumber;
pub mod reorder;
pub mod simplify;
pub mod sink;
pub mod splitedges;
pub mod typespec;
pub mod util;

use jitbull_mir::dense::IdMap;
use jitbull_mir::InstrId;

use crate::vuln::{CveId, VulnConfig};

/// A conservative integer range `[lo, hi]` attached to an instruction by
/// the range-analysis pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

/// Shared state threaded through the pipeline.
#[derive(Debug)]
pub struct PassContext<'a> {
    /// Which modeled vulnerabilities are active in this engine build.
    pub vulns: &'a VulnConfig,
    /// Ranges computed by [`range::range_analysis`], consumed by
    /// bounds-check elimination.
    pub ranges: IdMap<InstrId, Range>,
    /// Log of (vulnerability, pipeline slot) incorrect transforms that
    /// actually fired during this compilation.
    pub triggered: Vec<(CveId, usize)>,
    /// Set by the coherency pass if the graph went bad (compilation is
    /// then abandoned, like `OptimizeMIR` returning `FAILURE`).
    pub broken: Option<String>,
}

impl<'a> PassContext<'a> {
    /// Creates a context for one compilation.
    pub fn new(vulns: &'a VulnConfig) -> Self {
        PassContext {
            vulns,
            ranges: IdMap::new(),
            triggered: Vec::new(),
            broken: None,
        }
    }
}
