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

impl Row {
    /// Parses a tab-separated text record: `id \t wkt [\t ...]`.
    /// Returns `None` for malformed records (both systems in the paper
    /// silently drop unparsable rows).
    pub fn from_line(line: &str, geom_col: usize) -> Option<Row> {
        let (id, wkt) = split_record(line, geom_col)?;
        Some(Row {
            id,
            wkt: wkt.to_string(),
        })
    }
}

/// Splits a tab-separated text record `id \t wkt [\t ...]` once into
/// its id and the borrowed geometry column, for callers that parse the
/// WKT in place instead of keeping a [`Row`]. `None` exactly when
/// [`Row::from_line`] drops the record.
pub(crate) fn split_record(line: &str, geom_col: usize) -> Option<(i64, &str)> {
    // Column 0 is the id by convention.
    let wkt_skip = geom_col.checked_sub(1)?;
    let mut cols = line.split('\t');
    let id = cols.next()?.trim().parse::<i64>().ok()?;
    Some((id, cols.nth(wkt_skip)?))
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
    fn parses_tab_separated_records() {
        let r = Row::from_line("42\tPOINT (1 2)", 1).unwrap();
        assert_eq!(r.id, 42);
        assert_eq!(r.wkt, "POINT (1 2)");
        // Extra columns are fine; geometry can sit anywhere but 0.
        let r2 = Row::from_line("7\tfoo\tPOINT (3 4)", 2).unwrap();
        assert_eq!(r2.wkt, "POINT (3 4)");
    }

    #[test]
    fn malformed_records_are_dropped() {
        assert_eq!(
            split_record("7\tfoo\tPOINT (3 4)", 2),
            Some((7, "POINT (3 4)"))
        );
        assert!(split_record("7\tPOINT (3 4)", 0).is_none());
        assert!(Row::from_line("notanid\tPOINT (1 2)", 1).is_none());
        assert!(Row::from_line("42", 1).is_none());
        assert!(Row::from_line("42\tPOINT (1 2)", 0).is_none());
        assert!(Row::from_line("", 1).is_none());
    }

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
