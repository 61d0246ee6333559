//! # sparklet — an RDD-style dataflow engine
//!
//! A from-scratch stand-in for Apache Spark with the properties the
//! paper's SpatialSpark relies on (§III):
//!
//! * datasets are collections of **partitions** distributed over the
//!   cluster ([`Dataset`]), created from minihdfs text files with one
//!   partition per block (locality preserved) or by parallelising a
//!   local collection;
//! * functional transformations (`map`, `map_partitions`,
//!   `flat_map_with`, `filter`, `zip_with_index`) execute as **stages of
//!   per-partition tasks** under *dynamic* scheduling — any free core
//!   takes the next task, which is what gives Spark its good load
//!   balance on skewed spatial data;
//! * read-only values can be **broadcast** to every node
//!   ([`Broadcast`]), which is how the R-tree of the join's right side
//!   is shipped;
//! * every stage records its measured task costs and broadcast volume
//!   ([`StageMetrics`]), so a finished job can be replayed on any
//!   simulated cluster size ([`JobReport::simulate_runtime`]) —
//!   including Spark's per-stage actor-system reconstruction overhead
//!   and the per-run jar-shipping cost the paper discusses.
//!
//! Transformations here are eager rather than lazily DAG-scheduled;
//! what matters for the reproduction is the per-stage task/cost
//! structure, which is identical.

pub mod broadcast;
pub mod context;
pub mod dataset;
pub mod metrics;

pub use broadcast::Broadcast;
pub use context::{SparkConf, SparkContext};
pub use dataset::Dataset;
pub use metrics::{JobReport, StageMetrics};
