//! JIT DNA types: per-pass deltas and whole-function DNA vectors.
//!
//! A [`Chain`] is a sequence of opcode [`Label`]s along
//! instruction-dependency edges. A [`PassDelta`] (`Δ_i` in the paper) is
//! the pair `(δ_i^-, δ_i^+)` of removed and added sub-chains for pass
//! `i`, and a [`Dna`] is the vector `(Δ_1 … Δ_n)` over all pipeline
//! slots. Chains hold labels everywhere — oracle, incremental extractor,
//! compile cache and comparator; label names appear only in the text
//! format ([`Dna::to_text`], [`Dna::from_text`], [`chain_text`]).
//! Labels order by name, so a `BTreeSet<Chain>` iterates in the order
//! the same chains spelled as names would.

use std::collections::BTreeSet;
use std::fmt;

use jitbull_mir::Label;

use crate::error::DbError;

/// A dependency chain: opcode labels from a user instruction down through
/// its operands (e.g. `boundscheck>initializedlength>unbox:array`).
pub type Chain = Vec<Label>;

/// A chain in the text format: its label names joined by `>`.
#[must_use]
pub fn chain_text(chain: &[Label]) -> String {
    let names: Vec<&str> = chain.iter().map(|l| l.name()).collect();
    names.join(">")
}

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
                out.push_str(&format!("{i} - {}\n", chain_text(chain)));
            }
            for chain in &d.added {
                out.push_str(&format!("{i} + {}\n", chain_text(chain)));
            }
        }
        out
    }

    /// Parses the [`Dna::to_text`] format. `n_slots` sizes the vector
    /// (lines referencing larger slots are rejected), and every chain
    /// element must be a label name. A line is checked slot first, then
    /// sign, then labels.
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
            let side = match sign {
                "-" => &mut dna.deltas[slot].removed,
                "+" => &mut dna.deltas[slot].added,
                other => return Err(DbError::parse(ln + 1, format!("bad sign `{other}`"))),
            };
            let chain = chain_text
                .split('>')
                .map(|name| {
                    Label::from_name(name)
                        .ok_or_else(|| DbError::parse(ln + 1, format!("unknown label `{name}`")))
                })
                .collect::<Result<Chain, DbError>>()?;
            side.insert(chain);
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

/// Builds a chain from label names (test/bench convenience).
///
/// # Panics
///
/// If a name is not a label's.
pub fn chain(names: &[&str]) -> Chain {
    names
        .iter()
        .map(|n| Label::from_name(n).unwrap_or_else(|| panic!("`{n}` is not a label")))
        .collect()
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
        assert!(Dna::from_text("9 - add>bitor", 4).is_err());
        assert!(Dna::from_text("x - add", 4).is_err());
        assert!(Dna::from_text("1 ? add", 4).is_err());
        assert!(Dna::from_text("1 -", 4).is_err());
    }

    fn parse_error(text: &str) -> (usize, String) {
        match Dna::from_text(text, 4) {
            Err(DbError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn from_text_rejects_names_outside_the_label_table() {
        let (line, msg) = parse_error("0 - add>bitor\n2 + add>guardshape>bitor\n");
        assert_eq!(line, 2);
        assert_eq!(msg, "unknown label `guardshape`");
        // An empty element (a stray `>`) is not a label either.
        assert_eq!(parse_error("1 - add>").1, "unknown label ``");
        // Slot and sign are checked before labels.
        assert_eq!(parse_error("9 - nope").1, "slot 9 out of range");
        assert_eq!(parse_error("1 & nope").1, "bad sign `&`");
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let dna = Dna::from_text("# comment\n\n0 - add>bitor\n", 2).unwrap();
        assert_eq!(dna.deltas[0].removed.len(), 1);
    }

    #[test]
    fn text_spells_chains_with_label_names() {
        let c = chain(&["loadelement", "boundscheck", "parameter1"]);
        assert_eq!(chain_text(&c), "loadelement>boundscheck>parameter1");
        assert_eq!(chain_text(&[]), "");
    }

    #[test]
    fn triviality() {
        assert!(Dna::with_slots(3).is_trivial());
        let mut d = Dna::with_slots(3);
        d.deltas[0].added.insert(chain(&["mul"]));
        assert!(!d.is_trivial());
        assert!(!d.deltas[0].is_empty());
    }

    #[test]
    fn display_summarises() {
        let mut d = Dna::with_slots(2);
        d.deltas[1].removed.insert(chain(&["add"]));
        assert_eq!(d.to_string(), "pass 1: -1 +0\n");
    }
}
