//! JIT DNA types: per-pass deltas and whole-function DNA vectors.
//!
//! A [`Chain`] is a sequence of opcode labels along instruction-dependency
//! edges. A [`PassDelta`] (`Δ_i` in the paper) is the pair
//! `(δ_i^-, δ_i^+)` of removed and added sub-chains for pass `i`, and a
//! [`Dna`] is the vector `(Δ_1 … Δ_n)` over all pipeline slots.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::DbError;

/// A dependency chain: opcode labels from a user instruction down through
/// its operands (e.g. `["boundscheck", "initializedlength", "unbox:array"]`).
pub type Chain = Vec<Arc<str>>;

/// The modifications one optimization pass made: removed (`δ^-`) and added
/// (`δ^+`) sub-chains.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassDelta {
    /// Sub-chains present before the pass but gone after (`δ_i^-`).
    pub removed: BTreeSet<Chain>,
    /// Sub-chains introduced by the pass (`δ_i^+`).
    pub added: BTreeSet<Chain>,
}

impl PassDelta {
    /// Whether the pass changed nothing (chain-wise).
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// A function's JIT DNA: one [`PassDelta`] per pipeline slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dna {
    /// `deltas[i]` is `Δ_{i+1}` for pipeline slot `i`.
    pub deltas: Vec<PassDelta>,
}

impl Dna {
    /// Creates a DNA vector with `n` empty deltas.
    pub fn with_slots(n: usize) -> Self {
        Dna {
            deltas: vec![PassDelta::default(); n],
        }
    }

    /// Number of pipeline slots covered.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether no slots are covered.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Whether every delta is empty (compilation that changed nothing).
    pub fn is_trivial(&self) -> bool {
        self.deltas.iter().all(PassDelta::is_empty)
    }

    /// Sub-chains across every slot and side (comparison cost accounting).
    #[must_use]
    pub fn chain_count(&self) -> u64 {
        self.deltas
            .iter()
            .map(|d| (d.removed.len() + d.added.len()) as u64)
            .sum()
    }

    /// Serialises to the compact line-oriented text format used for
    /// maintainer-shipped DNA updates. Inverse of [`Dna::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.deltas.iter().enumerate() {
            if d.is_empty() {
                continue;
            }
            for chain in &d.removed {
                out.push_str(&format!("{i} - {}\n", chain.join(">")));
            }
            for chain in &d.added {
                out.push_str(&format!("{i} + {}\n", chain.join(">")));
            }
        }
        out
    }

    /// Parses the [`Dna::to_text`] format. `n_slots` sizes the vector
    /// (lines referencing larger slots are rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`DbError::Parse`] pinned to the first malformed line.
    pub fn from_text(text: &str, n_slots: usize) -> Result<Self, DbError> {
        let mut dna = Dna::with_slots(n_slots);
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let slot: usize = parts
                .next()
                .ok_or_else(|| DbError::parse(ln + 1, "missing slot"))?
                .parse()
                .map_err(|_| DbError::parse(ln + 1, "bad slot index"))?;
            if slot >= n_slots {
                return Err(DbError::parse(ln + 1, format!("slot {slot} out of range")));
            }
            let sign = parts
                .next()
                .ok_or_else(|| DbError::parse(ln + 1, "missing sign"))?;
            let chain_text = parts
                .next()
                .ok_or_else(|| DbError::parse(ln + 1, "missing chain"))?;
            let chain: Chain = chain_text.split('>').map(Arc::from).collect();
            match sign {
                "-" => {
                    dna.deltas[slot].removed.insert(chain);
                }
                "+" => {
                    dna.deltas[slot].added.insert(chain);
                }
                other => return Err(DbError::parse(ln + 1, format!("bad sign `{other}`"))),
            }
        }
        Ok(dna)
    }
}

impl fmt::Display for Dna {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.deltas.iter().enumerate() {
            if d.is_empty() {
                continue;
            }
            writeln!(f, "pass {i}: -{} +{}", d.removed.len(), d.added.len())?;
        }
        Ok(())
    }
}

/// Builds a chain from `&str` labels (test/bench convenience).
pub fn chain(labels: &[&str]) -> Chain {
    labels.iter().map(|l| Arc::from(*l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let mut dna = Dna::with_slots(4);
        dna.deltas[1]
            .removed
            .insert(chain(&["boundscheck", "initializedlength"]));
        dna.deltas[1].added.insert(chain(&["constant:number"]));
        dna.deltas[3].removed.insert(chain(&["add", "parameter0"]));
        let text = dna.to_text();
        let back = Dna::from_text(&text, 4).unwrap();
        assert_eq!(dna, back);
    }

    #[test]
    fn from_text_rejects_bad_input() {
        assert!(Dna::from_text("9 - a>b", 4).is_err());
        assert!(Dna::from_text("x - a", 4).is_err());
        assert!(Dna::from_text("1 ? a", 4).is_err());
        assert!(Dna::from_text("1 -", 4).is_err());
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let dna = Dna::from_text("# comment\n\n0 - a>b\n", 2).unwrap();
        assert_eq!(dna.deltas[0].removed.len(), 1);
    }

    #[test]
    fn triviality() {
        assert!(Dna::with_slots(3).is_trivial());
        let mut d = Dna::with_slots(3);
        d.deltas[0].added.insert(chain(&["x"]));
        assert!(!d.is_trivial());
        assert!(!d.deltas[0].is_empty());
    }

    #[test]
    fn display_summarises() {
        let mut d = Dna::with_slots(2);
        d.deltas[1].removed.insert(chain(&["a"]));
        assert_eq!(d.to_string(), "pass 1: -1 +0\n");
    }
}
