//! The go / no-go policy (paper §V, scenarios 1–3).

use jitbull_mir::SlotSet;

/// JITBULL's verdict for one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Scenario 1: no dangerous passes — use the optimized code as-is.
    Go,
    /// Scenario 2: all dangerous passes can be disabled — recompile the
    /// function with exactly these pipeline slots turned off.
    Recompile(SlotSet),
    /// Scenario 3: at least one dangerous pass is mandatory — abandon
    /// optimized compilation for this function only.
    NoJit(SlotSet),
}

impl Decision {
    /// Whether the function may run its fully-optimized code.
    pub fn is_go(&self) -> bool {
        matches!(self, Decision::Go)
    }

    /// The dangerous pass slots (empty for [`Decision::Go`]).
    pub fn dangerous_passes(&self) -> SlotSet {
        match *self {
            Decision::Go => SlotSet::new(),
            Decision::Recompile(p) | Decision::NoJit(p) => p,
        }
    }
}

/// Applies the paper's three-scenario policy to the dangerous passes.
/// `disableable` holds the pipeline slots the engine can turn off.
pub fn decide(dangerous: SlotSet, disableable: SlotSet) -> Decision {
    if dangerous.is_empty() {
        Decision::Go
    } else if dangerous.is_subset(disableable) {
        Decision::Recompile(dangerous)
    } else {
        Decision::NoJit(dangerous)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitbull_mir::N_SLOTS;

    fn slots(list: impl IntoIterator<Item = usize>) -> SlotSet {
        list.into_iter().collect()
    }

    #[test]
    fn empty_list_is_go() {
        let d = decide(SlotSet::new(), slots(0..N_SLOTS));
        assert_eq!(d, Decision::Go);
        assert!(d.is_go());
        assert!(d.dangerous_passes().is_empty());
    }

    #[test]
    fn all_disableable_recompiles() {
        let d = decide(slots([3, 7]), slots(0..N_SLOTS));
        assert_eq!(d, Decision::Recompile(slots([3, 7])));
        assert_eq!(d.dangerous_passes(), slots([3, 7]));
    }

    #[test]
    fn any_mandatory_forces_nojit() {
        let d = decide(slots([0, 7]), slots(1..N_SLOTS));
        assert_eq!(d, Decision::NoJit(slots([0, 7])));
        assert!(!d.is_go());
    }
}
