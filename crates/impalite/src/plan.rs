//! Query planning: the physical plan AST and its fragments.
//!
//! Impala's physical execution plan "is represented as an Abstract
//! Syntax Tree (AST) where each node corresponds to an action, e.g.,
//! reading data from HDFS, evaluating a … clause or exchanging data
//! among multiple distributed Impala instances. Multiple AST nodes can
//! be grouped as a plan fragment" (§IV). ISP-MC inserts a `SpatialJoin`
//! node, a subclass of BlockJoin, with the right side broadcast to all
//! instances.

use geom::engine::SpatialPredicate;

use crate::catalog::Catalog;
use crate::error::ImpalaError;
use crate::sql::Query;

/// How an exchange node moves row batches between instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Every batch goes to all instances (the spatial join's right side).
    Broadcast,
}

/// One node of the physical plan AST.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan a table's HDFS blocks; scan ranges are assigned to the
    /// instance co-located with each block.
    HdfsScan { table: String, path: String },
    /// Move the child's output between instances.
    Exchange {
        mode: ExchangeMode,
        input: Box<PlanNode>,
    },
    /// The ISP-MC spatial join: build an R-tree from the (broadcast)
    /// right child, probe with the left child's row batches.
    SpatialJoin {
        predicate: SpatialPredicate,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Return rows to the coordinator.
    Sink { input: Box<PlanNode> },
}

impl PlanNode {
    fn render(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self {
            PlanNode::HdfsScan { table, path } => {
                out.push_str(&format!("{pad}HDFS_SCAN {table} [{path}]\n"));
            }
            PlanNode::Exchange { mode, input } => {
                out.push_str(&format!("{pad}EXCHANGE {mode:?}\n"));
                input.render(indent + 1, out);
            }
            PlanNode::SpatialJoin {
                predicate,
                left,
                right,
            } => {
                out.push_str(&format!("{pad}SPATIAL_JOIN {predicate:?}\n"));
                left.render(indent + 1, out);
                right.render(indent + 1, out);
            }
            PlanNode::Sink { input } => {
                out.push_str(&format!("{pad}SINK\n"));
                input.render(indent + 1, out);
            }
        }
    }
}

/// A plan fragment: a subtree executed by a set of instances.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    pub id: usize,
    pub description: String,
    pub root: PlanNode,
}

/// The full physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    pub fragments: Vec<Fragment>,
    pub predicate: SpatialPredicate,
    pub left_path: String,
    pub right_path: String,
    pub left_geom_col: usize,
    pub right_geom_col: usize,
}

impl PhysicalPlan {
    /// `EXPLAIN`-style rendering of the plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for f in &self.fragments {
            out.push_str(&format!("F{:02} ({}):\n", f.id, f.description));
            f.root.render(1, &mut out);
        }
        out
    }
}

/// Lowers a parsed query to the two-fragment broadcast spatial join plan
/// after resolving tables against the catalog (Impala's
/// frontend-consults-metastore step).
///
/// # Errors
/// Fails when a referenced table is not registered.
pub fn plan_query(query: &Query, catalog: &Catalog) -> Result<PhysicalPlan, ImpalaError> {
    let left = catalog.resolve(&query.left_table)?;
    let right = catalog.resolve(&query.right_table)?;

    let right_scan = PlanNode::HdfsScan {
        table: right.name.clone(),
        path: right.path.clone(),
    };
    let broadcast = PlanNode::Exchange {
        mode: ExchangeMode::Broadcast,
        input: Box::new(right_scan.clone()),
    };
    let left_scan = PlanNode::HdfsScan {
        table: left.name.clone(),
        path: left.path.clone(),
    };
    let join = PlanNode::SpatialJoin {
        predicate: query.predicate,
        left: Box::new(left_scan),
        right: Box::new(broadcast),
    };
    let sink = PlanNode::Sink {
        input: Box::new(join),
    };

    Ok(PhysicalPlan {
        fragments: vec![
            Fragment {
                id: 0,
                description: format!("scan {} and broadcast", right.name),
                root: right_scan,
            },
            Fragment {
                id: 1,
                description: format!(
                    "scan {}, build R-tree from broadcast, probe, sink",
                    left.name
                ),
                root: sink,
            },
        ],
        predicate: query.predicate,
        left_path: left.path.clone(),
        right_path: right.path.clone(),
        left_geom_col: left.geom_col,
        right_geom_col: right.geom_col,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use crate::sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(TableDef::id_geom("pnt", "/data/pnt"));
        c.register(TableDef::id_geom("poly", "/data/poly"));
        c
    }

    #[test]
    fn plans_the_fig1_query() {
        let q = parse_query(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
             WHERE ST_WITHIN (pnt.geom, poly.geom)",
        )
        .unwrap();
        let plan = plan_query(&q, &catalog()).unwrap();
        assert_eq!(plan.fragments.len(), 2);
        assert_eq!(plan.left_path, "/data/pnt");
        assert_eq!(plan.right_path, "/data/poly");
        let explain = plan.explain();
        assert!(explain.contains("SPATIAL_JOIN Within"));
        assert!(explain.contains("EXCHANGE Broadcast"));
        assert!(explain.contains("HDFS_SCAN pnt"));
        assert!(explain.contains("SINK"));
    }

    #[test]
    fn unknown_table_fails_at_planning() {
        let q = parse_query(
            "SELECT a.id, poly.id FROM a SPATIAL JOIN poly \
             WHERE ST_WITHIN (a.geom, poly.geom)",
        )
        .unwrap();
        assert!(matches!(
            plan_query(&q, &catalog()),
            Err(ImpalaError::UnknownTable(_))
        ));
    }

    #[test]
    fn nearestd_predicate_reaches_the_plan() {
        let q = parse_query(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
             WHERE ST_NearestD (pnt.geom, poly.geom, 100)",
        )
        .unwrap();
        let plan = plan_query(&q, &catalog()).unwrap();
        assert_eq!(plan.predicate, SpatialPredicate::NearestD(100.0));
    }
}
