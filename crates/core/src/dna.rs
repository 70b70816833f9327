//! JIT DNA types: per-pass deltas and whole-function DNA vectors.
//!
//! A [`Chain`] is a sequence of opcode [`Label`]s along
//! instruction-dependency edges. A [`PassDelta`] (`Δ_i` in the paper) is
//! the pair `(δ_i^-, δ_i^+)` of removed and added sub-chains for pass
//! `i`, and a [`Dna`] is the vector `(Δ_1 … Δ_n)` over all pipeline
//! slots: an array of [`N_SLOTS`] deltas, so every DNA has the
//! pipeline's length by type. Chains hold labels everywhere — oracle,
//! incremental extractor, compile cache and comparator; label names
//! appear only in the text format ([`Dna::to_text`], [`Dna::from_text`],
//! [`chain_text`]). Labels order by name, so a `BTreeSet<Chain>` iterates
//! in the order the same chains spelled as names would.

use std::collections::BTreeSet;
use std::fmt;

use jitbull_mir::{Label, N_SLOTS};

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
/// [`Dna::default`] has every delta empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dna {
    /// `deltas[i]` is `Δ_{i+1}` for pipeline slot `i`.
    pub deltas: [PassDelta; N_SLOTS],
}

impl Dna {
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

    /// Parses the [`Dna::to_text`] format. A line's slot must be below
    /// [`N_SLOTS`], and every chain element must be a label name. A line
    /// is checked slot first, then sign, then labels.
    ///
    /// # Errors
    ///
    /// Returns a [`DbError::Parse`] pinned to the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, DbError> {
        let mut dna = Dna::default();
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
            if slot >= N_SLOTS {
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
        let mut dna = Dna::default();
        dna.deltas[1]
            .removed
            .insert(chain(&["boundscheck", "initializedlength"]));
        dna.deltas[1].added.insert(chain(&["constant:number"]));
        dna.deltas[3].removed.insert(chain(&["add", "parameter0"]));
        let text = dna.to_text();
        let back = Dna::from_text(&text).unwrap();
        assert_eq!(dna, back);
    }

    #[test]
    fn from_text_rejects_bad_input() {
        assert!(Dna::from_text("32 - add>bitor").is_err());
        assert!(Dna::from_text("x - add").is_err());
        assert!(Dna::from_text("1 ? add").is_err());
        assert!(Dna::from_text("1 -").is_err());
    }

    fn parse_error(text: &str) -> (usize, String) {
        match Dna::from_text(text) {
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
        assert_eq!(parse_error("32 - nope").1, "slot 32 out of range");
        assert_eq!(parse_error("1 & nope").1, "bad sign `&`");
    }

    #[test]
    fn from_text_skips_comments_and_blanks() {
        let dna = Dna::from_text("# comment\n\n0 - add>bitor\n").unwrap();
        assert_eq!(dna.deltas[0].removed.len(), 1);
    }

    #[test]
    fn from_text_accepts_the_last_slot() {
        let dna = Dna::from_text("31 + add>bitor\n").unwrap();
        assert_eq!(N_SLOTS, 32);
        assert_eq!(dna.deltas[31].added.len(), 1);
    }

    #[test]
    fn text_spells_chains_with_label_names() {
        let c = chain(&["loadelement", "boundscheck", "parameter1"]);
        assert_eq!(chain_text(&c), "loadelement>boundscheck>parameter1");
        assert_eq!(chain_text(&[]), "");
    }

    #[test]
    fn triviality() {
        assert!(Dna::default().is_trivial());
        let mut d = Dna::default();
        d.deltas[0].added.insert(chain(&["mul"]));
        assert!(!d.is_trivial());
        assert!(!d.deltas[0].is_empty());
    }

    #[test]
    fn display_summarises() {
        let mut d = Dna::default();
        d.deltas[1].removed.insert(chain(&["add"]));
        assert_eq!(d.to_string(), "pass 1: -1 +0\n");
    }
}
