//! Record parsing with per-line error reporting.
//!
//! The paper's Fig. 2 drops malformed rows silently
//! (`Try(...).filter(_.isSuccess)`). A [`RecordReader`] instead returns
//! a typed [`RecordError`] per line and counts parsed/skipped lines
//! into `obs`, so a run's record-drop rate shows up in its `RunStats`
//! instead of disappearing. Callers that only want the survivors take
//! `read_point(line).ok()`.

use geom::error::GeomError;
use geom::Geometry;

use crate::{GeomRecord, PointRecord};

/// Why one input line failed to parse into a record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The id column did not parse as an `i64`.
    BadId,
    /// The line has no column at the configured geometry index.
    MissingColumn,
    /// The geometry column is not valid WKT.
    Wkt(GeomError),
    /// The geometry parsed but is not a point (point readers only).
    NotAPoint,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::BadId => write!(f, "id column is not an integer"),
            RecordError::MissingColumn => write!(f, "geometry column missing"),
            RecordError::Wkt(e) => write!(f, "bad WKT: {e}"),
            RecordError::NotAPoint => write!(f, "geometry is not a point"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Parses the paper's `id \t … \t wkt` record layout, one line at a
/// time, reporting a [`RecordError`] per malformed line and counting
/// parsed/skipped lines into `obs`.
#[derive(Debug, Clone, Copy)]
pub struct RecordReader {
    geom_col: usize,
}

impl RecordReader {
    /// A reader expecting the WKT in tab-separated column `geom_col`
    /// (the paper's layout is `id \t wkt`, i.e. `geom_col == 1`).
    pub fn new(geom_col: usize) -> RecordReader {
        RecordReader { geom_col }
    }

    /// Splits one line exactly once, returning the parsed id and the
    /// raw WKT column, without parsing the WKT or touching obs. The
    /// dominant layout (`geom_col == 1`) takes a direct fast path; other
    /// layouts skip ahead on the same iterator instead of re-splitting
    /// the line.
    #[inline]
    pub fn split<'l>(&self, line: &'l str) -> Result<(i64, &'l str), RecordError> {
        let mut cols = line.split('\t');
        let id_col = cols.next().unwrap_or("");
        let id = id_col
            .trim()
            .parse::<i64>()
            .map_err(|_| RecordError::BadId)?;
        let wkt = match self.geom_col {
            0 => id_col,
            1 => cols.next().ok_or(RecordError::MissingColumn)?,
            n => cols.nth(n - 1).ok_or(RecordError::MissingColumn)?,
        };
        Ok((id, wkt))
    }

    /// Parses one line into a point record, without touching obs — the
    /// counting entry points below wrap this.
    fn parse_point(&self, line: &str) -> Result<PointRecord, RecordError> {
        let (id, wkt) = self.split(line)?;
        let g = geom::wkt::parse(wkt).map_err(RecordError::Wkt)?;
        g.as_point().map(|p| (id, p)).ok_or(RecordError::NotAPoint)
    }

    /// Parses one line into a geometry record, without touching obs.
    fn parse_geom(&self, line: &str) -> Result<GeomRecord, RecordError> {
        let (id, wkt) = self.split(line)?;
        let g: Geometry = geom::wkt::parse(wkt).map_err(RecordError::Wkt)?;
        Ok((id, g))
    }

    /// Parses one `id \t wkt` line into a point record, counting the
    /// outcome into obs.
    pub fn read_point(&self, line: &str) -> Result<PointRecord, RecordError> {
        let r = self.parse_point(line);
        match &r {
            Ok(_) => obs::records(1, 0),
            Err(_) => obs::records(0, 1),
        }
        r
    }

    /// Parses one `id \t wkt` line into a geometry record, counting the
    /// outcome into obs.
    pub fn read_geom(&self, line: &str) -> Result<GeomRecord, RecordError> {
        let r = self.parse_geom(line);
        match &r {
            Ok(_) => obs::records(1, 0),
            Err(_) => obs::records(0, 1),
        }
        r
    }

    /// Parses many lines into point records, dropping malformed lines.
    /// Takes any line source, such as a `&Vec<String>` or the borrowed
    /// view `MiniDfs::read_all_lines` returns. Returns the records plus
    /// the number of lines skipped; one obs flush for the whole batch.
    pub fn read_points<I>(&self, lines: I) -> (Vec<PointRecord>, usize)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.read_all(lines, |line| self.parse_point(line))
    }

    /// Parses many lines into geometry records, dropping malformed
    /// lines, like [`RecordReader::read_points`].
    pub fn read_geoms<I>(&self, lines: I) -> (Vec<GeomRecord>, usize)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.read_all(lines, |line| self.parse_geom(line))
    }

    /// The batch loop behind both readers. The output is sized by the
    /// source's record count (its size hint) before the first parse.
    fn read_all<I, R>(
        &self,
        lines: I,
        parse: impl Fn(&str) -> Result<R, RecordError>,
    ) -> (Vec<R>, usize)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let lines = lines.into_iter();
        let mut out = Vec::with_capacity(lines.size_hint().0);
        let mut skipped = 0usize;
        for line in lines {
            match parse(line.as_ref()) {
                Ok(rec) => out.push(rec),
                Err(_) => skipped += 1,
            }
        }
        obs::records(out.len() as u64, skipped as u64);
        (out, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    #[test]
    fn reader_reports_typed_errors() {
        let r = RecordReader::new(1);
        assert_eq!(
            r.read_point("0\tPOINT (1 2)"),
            Ok((0, Point::new(1.0, 2.0)))
        );
        assert_eq!(r.read_point("x\tPOINT (1 2)"), Err(RecordError::BadId));
        assert_eq!(r.read_point("3"), Err(RecordError::MissingColumn));
        assert!(matches!(
            r.read_point("3\tPOINT (banana)"),
            Err(RecordError::Wkt(_))
        ));
        assert_eq!(
            r.read_point("3\tLINESTRING (0 0, 1 1)"),
            Err(RecordError::NotAPoint)
        );
        // Geometry reads accept any valid WKT.
        assert!(r.read_geom("3\tLINESTRING (0 0, 1 1)").is_ok());
        assert!(matches!(r.read_geom("3\tnope"), Err(RecordError::Wkt(_))));
    }

    #[test]
    fn reader_honours_geom_column() {
        let line = "7\tpayload\tPOINT (1 2)";
        assert_eq!(
            RecordReader::new(2).read_point(line),
            Ok((7, Point::new(1.0, 2.0)))
        );
        assert_eq!(
            RecordReader::new(9).read_point(line),
            Err(RecordError::MissingColumn)
        );
        // geom_col == 0 asks the id column to parse as WKT too, which
        // an i64 never does.
        assert!(matches!(
            RecordReader::new(0).read_point(line),
            Err(RecordError::Wkt(_))
        ));
    }

    #[test]
    fn batch_reads_count_skips() {
        let lines = vec![
            "0\tPOINT (1 2)".to_string(),
            "not-a-record".to_string(),
            "1\tPOLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))".to_string(),
            "2\tPOINT (3 4)".to_string(),
        ];
        let r = RecordReader::new(1);
        let (pts, skipped) = r.read_points(&lines);
        assert_eq!(pts.len(), 2);
        assert_eq!(skipped, 2); // garbage line + polygon
        let (geoms, skipped) = r.read_geoms(&lines);
        assert_eq!(geoms.len(), 3); // polygon parses as a geometry
        assert_eq!(skipped, 1);
    }

    #[test]
    fn non_finite_coordinates_are_skipped_and_counted() {
        std::thread::spawn(|| {
            let before = obs::thread_snapshot();
            let r = RecordReader::new(1);
            let lines = vec![
                "0\tPOLYGON ((100 100, 1e999 100, 1e999 200, 100 200, 100 100))".to_string(),
                "1\tPOLYGON ((100 100, 200 100, 200 200, 100 200, 100 100))".to_string(),
            ];
            let (geoms, skipped) = r.read_geoms(&lines);
            assert_eq!(geoms.len(), 1);
            assert_eq!(geoms[0].0, 1);
            assert_eq!(skipped, 1);
            assert!(matches!(
                r.read_point("2\tPOINT (-1e999 150)"),
                Err(RecordError::Wkt(_))
            ));
            let delta = obs::thread_snapshot().minus(&before);
            assert_eq!(delta.records_parsed, 1);
            assert_eq!(delta.records_skipped, 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reads_count_into_obs() {
        std::thread::spawn(|| {
            let before = obs::thread_snapshot();
            let r = RecordReader::new(1);
            let lines = vec!["0\tPOINT (1 2)".to_string(), "garbage".to_string()];
            let _ = r.read_points(&lines);
            let _ = r.read_point("1\tPOINT (0 0)");
            let _ = r.read_point("broken");
            let delta = obs::thread_snapshot().minus(&before);
            assert_eq!(delta.records_parsed, 2);
            assert_eq!(delta.records_skipped, 2);
        })
        .join()
        .unwrap();
    }
}
