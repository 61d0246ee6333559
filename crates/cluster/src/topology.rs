//! Cluster topology description.

/// The shape of the (simulated) cluster.
///
/// Defaults mirror the paper's testbed: 10 EC2 `g2.2xlarge` instances
/// with 8 vCPUs and 15 GB of memory each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub num_nodes: usize,
    /// CPU cores per node.
    pub cores_per_node: usize,
    /// Memory per node in bytes (the paper could not run on fewer than
    /// 4 nodes "due to the memory limitation of the EC2 instances (15 GB
    /// per node)").
    pub mem_per_node: u64,
}

impl ClusterSpec {
    /// The paper's 10-node EC2 cluster.
    pub fn ec2_paper_cluster() -> ClusterSpec {
        ClusterSpec {
            num_nodes: 10,
            cores_per_node: 8,
            mem_per_node: 15 * (1 << 30),
        }
    }

    /// Same node type, different node count (for the Fig. 4/5 sweeps).
    pub fn ec2_with_nodes(num_nodes: usize) -> ClusterSpec {
        ClusterSpec {
            num_nodes,
            ..Self::ec2_paper_cluster()
        }
    }

    /// The paper's in-house single-node machine (16 cores, 128 GB).
    pub fn single_node_highend() -> ClusterSpec {
        ClusterSpec {
            num_nodes: 1,
            cores_per_node: 16,
            mem_per_node: 128 * (1 << 30),
        }
    }

    /// Total core count across the cluster.
    pub fn total_cores(&self) -> usize {
        self.num_nodes * self.cores_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterSpec::ec2_paper_cluster();
        assert_eq!(c.num_nodes, 10);
        assert_eq!(c.total_cores(), 80);
        assert_eq!(c.mem_per_node, 15 * (1 << 30));
    }

    #[test]
    fn node_sweep_keeps_node_type() {
        let c = ClusterSpec::ec2_with_nodes(4);
        assert_eq!(c.num_nodes, 4);
        assert_eq!(c.cores_per_node, 8);
    }
}
