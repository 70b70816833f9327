//! # jitbull — Go/No-Go policy for JIT engines
//!
//! Reproduction of the core contribution of *JITBULL: Securing JavaScript
//! Runtime with a Go/No-Go Policy for JIT Engine* (DSN 2024): protect a JS
//! runtime during a vulnerability window by fingerprinting what each JIT
//! optimization pass *did* to a function's IR (its **JIT DNA**) and
//! comparing it against the DNA of known vulnerability demonstrator codes
//! (VDCs).
//!
//! The analysis reads only [`jitbull_mir::PassTrace`] — the IR snapshots
//! `IR_0 … IR_n` entering the pipeline and after each pass — mirroring
//! the paper's claim that the approach ports to any pass-based JIT
//! (IonMonkey, TurboFan, Chakra). The compile cache in front of it also
//! stores this repository's pipeline output ([`PipelineOutput`], holding
//! `jitbull_lir` code), so the crate as a whole is tied to that pipeline.
//!
//! Modules map one-to-one onto the paper's architecture:
//!
//! * [`extract`] — the **Δ extractor** (§IV-D, Algorithm 1): dependency
//!   graph → root-to-leaf chains → removed/added sub-chains per pass.
//!   [`extract::incremental`] is the fast structural-diff implementation
//!   and [`extract::memo`] the shared compile cache in front of it (DNA,
//!   last verdict and pipeline output per compilation, keyed before the
//!   pipeline runs); the top-level functions remain the normative oracle.
//! * [`dna`] — `Δ_i` / DNA vector types and their textual serialisation
//!   (the update format a maintainer would ship to users).
//! * [`compare`] — the **Δ comparator** (§IV-E, Algorithm 2) with the
//!   paper's `Thr = 3`, `Ratio = 50 %` defaults.
//! * [`db`] — the VDC DNA database (install on disclosure, remove on
//!   patch).
//! * [`policy`] — the go / recompile-without-passes / no-JIT decision
//!   (§V's three scenarios).
//! * [`index`] — the fast comparator (chain interner, Bloom-style
//!   fingerprint prefilter) that must agree with [`compare`] on every
//!   verdict.
//! * [`guard`] — the engine-facing facade gluing the above together, with
//!   the analysis cycle-cost accounting used by the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use jitbull::{Guard, DnaDatabase, CompareConfig};
//!
//! let mut guard = Guard::new(DnaDatabase::new(), CompareConfig::default());
//! // With an empty database the guard is disabled: zero overhead.
//! assert!(!guard.enabled());
//! ```

pub mod compare;
pub mod db;
pub mod dna;
pub mod error;
pub mod extract;
pub mod guard;
pub mod index;
pub mod policy;

pub use compare::{compare_chains, CompareConfig};
pub use db::{DnaDatabase, LoadMode, LoadReport, VdcEntry};
pub use dna::{Chain, Dna, PassDelta};
pub use error::DbError;
pub use extract::incremental::{ExtractReceipt, IncrementalExtractor, IncrementalStats};
pub use extract::memo::{DnaMemo, MemoEntry, MemoLookup, MemoStats, PipelineOutput, VerdictStamp};
pub use extract::{extract_delta, extract_dna};
pub use guard::{Analysis, ComparatorMode, ExtractorMode, Guard, Lookup};
pub use index::{ChainInterner, ComparatorIndex, IndexStats, QueryReceipt};
pub use policy::{decide, Decision};
