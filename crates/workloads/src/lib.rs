//! # jitbull-workloads — the harmless-application corpus
//!
//! The paper evaluates JITBULL's false-positive rate and overhead on the
//! Octane suite plus two micro-benchmarks. Octane's real sources need a
//! full JS engine, so this crate provides *analogues*: minijs programs
//! exercising the same computational shapes (OO scheduling, constraint
//! propagation, stream ciphers with masked indexes, floating-point ray
//! math, stencil grids, pointer-chasing trees, bit-stream decoding,
//! particle physics, many-small-functions, tokenization), sized so their
//! hot functions cross the optimizing-JIT threshold (1500 invocations)
//! many times over.
//!
//! These workloads are what Figures 4–6 of the paper are regenerated
//! from; see `jitbull-bench`.
//!
//! All programs are deterministic and print a final checksum, so
//! correctness across execution tiers (interpreter / baseline / Ion /
//! Ion-with-disabled-passes) is testable by output comparison.

pub mod runner;
pub mod suite;

pub use runner::{run_workload, run_workload_guarded, run_workload_observed, Measurement};
pub use suite::{all_workloads, microbenches, octane_analogues, serving_mix, workload, Workload};
