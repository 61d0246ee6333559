//! # cluster — the simulated EC2 cluster
//!
//! The paper evaluates on 10 Amazon EC2 `g2.2xlarge` instances (8 vCPUs,
//! 15 GB each). This crate replaces that hardware with a two-part
//! substrate, as documented in DESIGN.md:
//!
//! 1. **Real execution** ([`pool`]): join work runs for real on a local
//!    thread pool — real geometry, real indexes, real result pairs — and
//!    every task's wall-clock cost is measured.
//! 2. **Replay simulation** ([`sim`]): the measured task costs are
//!    replayed through a discrete-event simulator against a
//!    [`ClusterSpec`] topology, a [`NetworkModel`] for broadcast and
//!    coordination costs, and a [`Scheduler`] policy — dynamic work-queue scheduling
//!    (Spark) or static pre-assignment (Impala / OpenMP-static).
//!
//! This preserves exactly what the paper measures: relative runtimes,
//! scalability curves (Figs. 4–5) and the load-imbalance effects of
//! static scheduling on skewed spatial data (§V.B–C).

pub mod chaos;
pub mod network;
pub mod pool;
pub mod sim;
pub mod topology;

pub use chaos::{Chaos, ChaosConfig, ChaosEvent, ChaosSite, FaultKind};
pub use network::NetworkModel;
pub use pool::{dispatch, Dispatch, Dispatched, ScheduleMode, TaskFailure, TaskTiming};
pub use sim::{scan_range_assignment, simulate, Scheduler, SimReport, TaskSpec};
pub use topology::ClusterSpec;
