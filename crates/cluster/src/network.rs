//! Network and coordination cost model.
//!
//! Calibrated to commodity EC2 networking of the paper's era (~1 Gbit/s
//! effective point-to-point, sub-millisecond in-rack latency) plus the
//! software overheads the paper singles out:
//!
//! * Spark "selects a new leader and reconstructs an actor system to
//!   exchange the metadata of partitions for every job stage that
//!   involves shuffling", with cost growing in the number of partitions
//!   (§III) — modelled by [`NetworkModel::stage_coordination_cost`].
//! * Spark has "a per-run overhead to pack Jar files and send them to
//!   work instances" (§VI) — modelled by
//!   [`NetworkModel::job_startup_cost`].

/// Parameters of the simulated interconnect and coordination layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in seconds.
    pub latency: f64,
    /// Point-to-point bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed cost of setting up one distributed stage (actor system
    /// reconstruction, leader election).
    pub stage_setup: f64,
    /// Additional coordination cost per partition per stage (metadata
    /// exchange).
    pub per_partition_meta: f64,
    /// Fixed per-job startup cost on top of a per-node shipping cost
    /// (jar packing and distribution for Spark; zero for Impala where
    /// binaries are pre-installed).
    pub job_startup_fixed: f64,
    /// Per-node component of job startup.
    pub job_startup_per_node: f64,
}

impl NetworkModel {
    /// EC2-era gigabit network with Spark-like coordination overheads.
    pub fn ec2_spark() -> NetworkModel {
        NetworkModel {
            latency: 0.5e-3,
            bandwidth: 110.0e6, // ~1 Gbit/s effective
            stage_setup: 0.15,
            per_partition_meta: 2.0e-3,
            job_startup_fixed: 2.0,
            job_startup_per_node: 0.4,
        }
    }

    /// EC2-era gigabit network with Impala-like coordination: the plan
    /// is made once at the frontend, "no changes on the plan are made
    /// after the plan starts to execute", so stages are cheap; binaries
    /// are pre-installed so job startup is negligible.
    pub fn ec2_impala() -> NetworkModel {
        NetworkModel {
            latency: 0.5e-3,
            bandwidth: 110.0e6,
            stage_setup: 0.02,
            per_partition_meta: 0.2e-3,
            job_startup_fixed: 0.1,
            job_startup_per_node: 0.0,
        }
    }

    /// Time to move `bytes` point-to-point.
    pub fn transfer_cost(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Time to broadcast `bytes` from one node to `num_nodes - 1` peers.
    ///
    /// Modelled as a pipelined chain (how Spark's torrent broadcast and
    /// Impala's exchange behave at this scale): one full transfer plus a
    /// per-hop latency per extra node.
    pub fn broadcast_cost(&self, bytes: u64, num_nodes: usize) -> f64 {
        if num_nodes <= 1 || bytes == 0 {
            return 0.0;
        }
        self.transfer_cost(bytes) + (num_nodes as f64 - 2.0).max(0.0) * self.latency
    }

    /// Coordination cost to launch one stage of `num_partitions` tasks.
    pub fn stage_coordination_cost(&self, num_partitions: usize) -> f64 {
        self.stage_setup + self.per_partition_meta * num_partitions as f64
    }

    /// One-time job startup cost on a cluster of `num_nodes`.
    pub fn job_startup_cost(&self, num_nodes: usize) -> f64 {
        self.job_startup_fixed + self.job_startup_per_node * num_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_bytes() {
        let n = NetworkModel::ec2_spark();
        let small = n.transfer_cost(1_000);
        let big = n.transfer_cost(1_000_000_000);
        assert!(big > small);
        assert!(big > 8.0, "1 GB over ~1 Gbit/s takes several seconds");
        assert_eq!(n.transfer_cost(0), 0.0);
    }

    #[test]
    fn broadcast_to_single_node_is_free() {
        let n = NetworkModel::ec2_spark();
        assert_eq!(n.broadcast_cost(1 << 20, 1), 0.0);
        assert!(n.broadcast_cost(1 << 20, 10) >= n.transfer_cost(1 << 20));
    }

    #[test]
    fn spark_coordination_grows_with_partitions() {
        let n = NetworkModel::ec2_spark();
        assert!(n.stage_coordination_cost(1000) > n.stage_coordination_cost(10));
        let i = NetworkModel::ec2_impala();
        assert!(
            i.stage_coordination_cost(1000) < n.stage_coordination_cost(1000),
            "Impala's static planning has lower per-stage overheads"
        );
    }

    #[test]
    fn spark_jar_shipping_grows_with_nodes() {
        let n = NetworkModel::ec2_spark();
        assert!(n.job_startup_cost(10) > n.job_startup_cost(4));
        assert_eq!(NetworkModel::ec2_impala().job_startup_cost(10), 0.1);
    }
}
