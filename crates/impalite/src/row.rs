//! Rows and row batches.
//!
//! "Tuples are sent, received and processed in row batches" (§IV); the
//! batch is the unit the backend pulls through operators and the unit
//! whose rows are statically chunked across cores during the join.

/// Rows per batch — Impala's default.
pub const BATCH_SIZE: usize = 1024;

/// One tuple: a record id plus the geometry column kept as a WKT string
/// (the paper's systems "represent geometry as strings" and parse on
/// use).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub id: i64,
    pub wkt: String,
}

/// A batch of rows.
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    pub rows: Vec<Row>,
}

impl RowBatch {
    /// Splits an iterator of rows into batches of [`BATCH_SIZE`].
    pub fn batches_from<I: IntoIterator<Item = Row>>(rows: I) -> Vec<RowBatch> {
        let mut out = Vec::new();
        let mut current = Vec::with_capacity(BATCH_SIZE);
        for row in rows {
            current.push(row);
            if current.len() == BATCH_SIZE {
                out.push(RowBatch {
                    rows: std::mem::replace(&mut current, Vec::with_capacity(BATCH_SIZE)),
                });
            }
        }
        if !current.is_empty() {
            out.push(RowBatch { rows: current });
        }
        out
    }

    /// Number of rows in this batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_respects_batch_size() {
        let rows: Vec<Row> = (0..(BATCH_SIZE * 2 + 10) as i64)
            .map(|id| Row {
                id,
                wkt: String::new(),
            })
            .collect();
        let batches = RowBatch::batches_from(rows);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), BATCH_SIZE);
        assert_eq!(batches[2].len(), 10);
        assert!(!batches[2].is_empty());
        assert!(RowBatch::batches_from(Vec::new()).is_empty());
    }
}
