//! Partitioned datasets and their transformations.

use crate::context::SparkContext;

/// One partition of a dataset, with its preferred node if the data came
/// from a DFS block.
#[derive(Debug, Clone)]
pub struct Partition<T> {
    pub data: Vec<T>,
    pub locality: Option<usize>,
}

/// A distributed collection, the analogue of Spark's RDD.
///
/// Transformations execute eagerly as one stage of per-partition tasks
/// on the context's thread pool under dynamic scheduling, recording the
/// measured cost of every task for later cluster replay.
pub struct Dataset<T> {
    ctx: SparkContext,
    partitions: Vec<Partition<T>>,
}

impl<T: Send + Sync> Dataset<T> {
    pub(crate) fn from_partitions(ctx: SparkContext, partitions: Vec<Partition<T>>) -> Dataset<T> {
        Dataset { ctx, partitions }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Records per partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.data.len()).collect()
    }

    /// Locality hints per partition.
    pub fn localities(&self) -> Vec<Option<usize>> {
        self.partitions.iter().map(|p| p.locality).collect()
    }

    /// Total number of records. Free of stage overhead — counting is
    /// metadata in this engine.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(|p| p.data.len()).sum()
    }

    /// Core stage runner: applies `f` to each partition in parallel
    /// (dynamic scheduling), measures per-partition cost, records the
    /// stage, and rewraps the outputs with the same localities.
    pub fn map_partitions<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        let inputs: Vec<&[T]> = self.partitions.iter().map(|p| p.data.as_slice()).collect();
        let outputs = self
            .ctx
            .execute_stage(name, inputs, self.localities(), |part| f(part));
        self.with_outputs(outputs)
    }

    /// Element-wise transformation — Spark's `map`.
    pub fn map<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&T) -> U + Sync,
    {
        self.map_partitions(name, |part| part.iter().map(&f).collect())
    }

    /// `flatMap` with a sink argument: `f` appends its outputs to the
    /// partition's output buffer directly. Equivalent to real Spark's
    /// lazy `flatMap` iterators, which never materialise a per-element
    /// collection — the shape hot join probes need.
    pub fn flat_map_with<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&T, &mut Vec<U>) + Sync,
    {
        self.map_partitions(name, |part| {
            let mut out = Vec::new();
            for t in part {
                f(t, &mut out);
            }
            out
        })
    }

    /// Keeps elements satisfying the predicate — Spark's `filter`.
    pub fn filter<F>(&self, name: &str, f: F) -> Dataset<T>
    where
        T: Clone,
        F: Fn(&T) -> bool + Sync,
    {
        self.map_partitions(name, |part| part.iter().filter(|t| f(t)).cloned().collect())
    }

    /// Pairs every element with a globally unique, partition-contiguous
    /// index — Spark's `zipWithIndex` (which likewise needs partition
    /// counts before it can run).
    pub fn zip_with_index(&self) -> Dataset<(u64, T)>
    where
        T: Clone,
    {
        let sizes = self.partition_sizes();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0u64;
        for s in &sizes {
            offsets.push(acc);
            acc += *s as u64;
        }
        // Offsets vary per partition, which map_partitions cannot see,
        // so enumerate partitions through an index-tagged input stage.
        let inputs: Vec<(usize, &[T])> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.data.as_slice()))
            .collect();
        let outputs = self.ctx.execute_stage(
            "zipWithIndex",
            inputs,
            self.localities(),
            |(pi, part): &(usize, &[T])| {
                part.iter()
                    .enumerate()
                    .map(|(i, t)| (offsets[*pi] + i as u64, t.clone()))
                    .collect::<Vec<_>>()
            },
        );
        self.with_outputs(outputs)
    }

    /// Wraps one stage's per-partition outputs as a dataset with this
    /// dataset's localities.
    fn with_outputs<U: Send + Sync>(&self, outputs: Vec<Vec<U>>) -> Dataset<U> {
        let partitions = outputs
            .into_iter()
            .zip(&self.partitions)
            .map(|(data, p)| Partition {
                data,
                locality: p.locality,
            })
            .collect();
        Dataset::from_partitions(self.ctx.clone(), partitions)
    }

    /// Materialises the dataset on the driver — Spark's `collect`.
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.partitions
            .iter()
            .flat_map(|p| p.data.iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SparkConf;
    use minihdfs::MiniDfs;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::default(), MiniDfs::new(4, 256).unwrap())
    }

    #[test]
    fn map_filter_flatmap_pipeline() {
        let c = ctx();
        let ds = c.parallelize((0..100i64).collect(), 7);
        let result = ds
            .map("x3", |x| x * 3)
            .filter("even", |x| x % 2 == 0)
            .flat_map_with("dup", |&x, out| out.extend([x, x]))
            .collect();
        let expected: Vec<i64> = (0..100)
            .map(|x| x * 3)
            .filter(|x| x % 2 == 0)
            .flat_map(|x| vec![x, x])
            .collect();
        assert_eq!(result, expected);
        assert_eq!(c.job_report().stages.len(), 3);
    }

    #[test]
    fn zip_with_index_is_global_and_ordered() {
        let c = ctx();
        let ds = c.parallelize((100..200i64).collect(), 9);
        let indexed = ds.zip_with_index().collect();
        assert_eq!(indexed.len(), 100);
        for (i, (idx, val)) in indexed.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*val, 100 + i as i64);
        }
    }

    #[test]
    fn stage_preserves_locality() {
        let c = ctx();
        let lines: Vec<String> = (0..100).map(|i| format!("{i:0>20}")).collect();
        c.dfs().write_lines("/loc", &lines).unwrap();
        let ds = c.text_file("/loc").unwrap();
        let mapped = ds.map("len", |s| s.len());
        assert_eq!(mapped.localities(), ds.localities());
        assert!(ds.localities().iter().all(Option::is_some));
        // Stage metrics carry those localities too.
        let report = c.job_report();
        let stage = report.stages.last().unwrap();
        assert!(stage.tasks.iter().all(|t| t.locality.is_some()));
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let c = ctx();
        let ds = c.parallelize((0..40i32).collect(), 4);
        let sums = ds.map_partitions("sum", |part| vec![part.iter().sum::<i32>()]);
        assert_eq!(sums.count(), 4);
        assert_eq!(sums.collect().iter().sum::<i32>(), (0..40).sum());
    }
}
