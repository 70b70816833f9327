//! # jitbull-mir — the SSA mid-level intermediate representation
//!
//! This crate reproduces the substrate JITBULL instruments in the paper:
//! IonMonkey's **MIR**, the graph of SSA instructions the optimizing JIT's
//! passes transform. It provides:
//!
//! * [`opcode::MOpcode`] / [`instr::Instruction`] / [`graph::MirFunction`] —
//!   the IR itself: basic blocks of numbered instructions in static
//!   single-assignment form, each referencing its operands by instruction
//!   id (the `num opcode operand1 operand2` shape of the paper's
//!   Listing 1);
//! * [`build`] — construction of MIR from the VM's stack bytecode by
//!   abstract interpretation (the paper's step ③, bytecode → MIR);
//! * [`analysis`] — CFG utilities (reverse postorder, dominators, natural
//!   loops) used by the optimization passes in `jitbull-jit`;
//! * [`snapshot`] — cheap, engine-agnostic IR snapshots
//!   ([`snapshot::MirSnapshot`]): the *only* type the `jitbull` core crate
//!   consumes, keeping JITBULL decoupled from this particular engine just
//!   as the paper argues the approach ports to TurboFan.
//!
//! # Examples
//!
//! ```
//! use jitbull_frontend::parse_program;
//! use jitbull_vm::compile_program;
//! use jitbull_mir::build::build_mir;
//!
//! let program = parse_program("function f(a) { return a + 1; }")?;
//! let module = compile_program(&program)?;
//! let fid = module.function_id("f").unwrap();
//! let mir = build_mir(&module, fid)?;
//! assert!(mir.block_count() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod build;
pub mod graph;
pub mod instr;
pub mod opcode;
pub mod snapshot;

pub use build::build_mir;
pub use graph::{Block, BlockId, MirFunction};
pub use instr::{InstrId, Instruction};
pub use opcode::{CmpOp, ConstVal, MOpcode, TypeHint};
pub use snapshot::{literals, Literal, MirSnapshot, PassRecord, PassTrace, SnapInstr};
