//! # jitbull-jit — the optimizing JIT engine ("RoninMonkey")
//!
//! The IonMonkey-analogue of the JITBULL reproduction: a tiered execution
//! engine for the minijs VM with a 32-slot optimization pipeline over the
//! SSA MIR of `jitbull-mir`.
//!
//! * [`passes`] — the optimization passes (GVN, LICM, DCE, bounds-check
//!   elimination, type specialization, …). Each pipeline slot is either
//!   *disableable* or *mandatory*, which is what gives JITBULL's policy its
//!   three scenarios.
//! * [`pipeline`] — pass ordering (`OptimizeMIR`), per-slot disabling,
//!   snapshot tracing for the Δ extractor, and vulnerability hooks.
//! * [`vuln`] — faithful models of eight real IonMonkey CVEs as *incorrect
//!   transforms* injected into specific passes under specific IR-pattern
//!   triggers. With a vulnerability enabled, the corresponding exploit
//!   pattern really does lose its `boundscheck`/`unbox` guard and really
//!   does corrupt the simulated heap.
//! * [`engine`] — invocation counting, tier promotion (interpreter at
//!   cost 10/op → baseline at 100 calls, cost 4/op → optimizing tier at
//!   1500 calls, cost 1/op), compile-cost charging, JITBULL guard
//!   integration, and the per-function statistics behind the paper's
//!   Figures 4–6. The optimizing tier runs the register-allocated LIR of
//!   `jitbull-lir`, whose executor turns removed guards into raw
//!   (unchecked) element accesses.
//!
//! # Examples
//!
//! ```
//! use jitbull_jit::engine::{Engine, EngineConfig};
//!
//! let outcome = Engine::run_source(
//!     "function f(x) { return x * 2; }
//!      var t = 0;
//!      for (var i = 0; i < 3000; i++) { t = f(i); }
//!      print(t);",
//!     EngineConfig::default(),
//! )?;
//! assert_eq!(outcome.outcome.printed, vec!["5998"]);
//! # Ok::<(), jitbull_vm::VmError>(())
//! ```

pub mod engine;
pub mod passes;
pub mod pipeline;
pub mod vuln;

pub use engine::{Engine, EngineConfig, EngineOutcome, FunctionStats, TierStats};
pub use pipeline::{optimize, OptimizeOptions, OptimizeResult, PIPELINE};
pub use vuln::{CveId, VulnConfig};
