//! # impalite — a SQL row-batch query engine
//!
//! A from-scratch stand-in for Cloudera Impala with the architecture the
//! paper's ISP-MC plugs into (§IV):
//!
//! * a **frontend** ([`sql`]) that parses the paper's SQL dialect —
//!   including the `SPATIAL JOIN` keyword extension and the
//!   `ST_WITHIN` / `ST_NearestD` predicates of Fig. 1 — against a
//!   [`catalog::Catalog`] of HDFS-backed tables;
//! * a **planner** ([`plan`]) that lowers the query to a physical plan:
//!   an AST of plan nodes (HDFS scans, a broadcast exchange for the
//!   right side, the `SpatialJoin` node, a sink) grouped into plan
//!   fragments, fixed before execution starts — Impala "makes the
//!   execution plan at the frontend … no changes on the plan are made
//!   after the plan starts to execute";
//! * the **backend's model** ([`exec`]): its configuration, the
//!   [`QueryMetrics`] one execution records — per-block scan tasks, the
//!   per-instance build, and row batches ([`row`]) probed in *static
//!   OpenMP-style chunks* across cores — and their replay on any
//!   cluster size under Impala's **static scheduling** (scan ranges
//!   pinned to the node holding the block).
//!
//! The backend's fragments run in `spatialjoin::IspMc`: they build and
//! probe the broadcast R-tree through the same prepared set as the
//! other query paths and refine with the GEOS-like
//! [`geom::engine::NaiveEngine`].
//!
//! A `standalone` mode runs the same join logic without the engine
//! machinery, reproducing the ISP-MC-standalone column of Table 1.

pub mod catalog;
pub mod error;
pub mod exec;
pub mod plan;
pub mod row;
pub mod sql;

pub use catalog::{Catalog, TableDef};
pub use error::ImpalaError;
pub use exec::{ImpaladConf, QueryMetrics, QueryResult};
pub use plan::{ExchangeMode, PhysicalPlan, PlanNode};
pub use sql::{parse_query, Query};
