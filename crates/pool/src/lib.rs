//! # jitbull-pool — concurrent script-serving with hot-swappable VDC DNA
//!
//! The paper evaluates JITBULL inside one browser process; this crate
//! lifts it to the server-side shape the same mechanism would take in
//! production: N worker threads, each owning a JIT [`Engine`], serve
//! scripts from a bounded queue while the operator installs and removes
//! VDC DNA **mid-traffic** as vulnerability windows open and close.
//!
//! Hand-rolled on `std::thread` / `Mutex` / `Condvar` / atomics — no
//! external dependencies, consistent with the repo's offline-build
//! stance.
//!
//! Three guarantees, each independently tested:
//!
//! 1. **No lost responses.** Every accepted request resolves its
//!    [`Ticket`] — normally with a [`PoolResponse`], or with a typed
//!    [`PoolError`] on overload, script failure, worker panic, or
//!    shutdown. The worker-side responder reports on drop, so even an
//!    unwinding panic answers.
//! 2. **No stale verdicts.** Database changes publish copy-on-write
//!    snapshots through [`swap::SnapshotCell`], each under a fresh
//!    [`DnaDatabase::generation`] — the one version number the guard's
//!    index, the compile cache's verdicts and the pool all read. Every
//!    response carries the generation it was served under, provably
//!    `>=` the generation published at submit time.
//! 3. **Graceful degradation.** Requests that outwait their deadline
//!    fall back to interpreter-only execution (the paper's no-JIT
//!    scenario generalized to load shedding), over-capacity submissions
//!    are refused fast, and a panicking worker is isolated and respawned
//!    without dropping the pool.
//!
//! # Examples
//!
//! ```
//! use jitbull_pool::{Pool, PoolConfig, Request};
//! use jitbull::DnaDatabase;
//!
//! let pool = Pool::new(PoolConfig { workers: 2, ..Default::default() },
//!                      DnaDatabase::new());
//! let ticket = pool.submit(Request::new("print(1 + 2);")).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.printed, vec!["3"]);
//! pool.shutdown();
//! ```
//!
//! [`Engine`]: jitbull_jit::engine::Engine
//! [`DnaDatabase::generation`]: jitbull::DnaDatabase::generation

pub mod error;
pub mod pool;
pub mod queue;
pub mod swap;
mod worker;

pub use error::PoolError;
pub use pool::{Pool, PoolConfig, PoolResponse, PoolStats, Request, SharedCollector, Ticket};
pub use swap::SnapshotCell;
