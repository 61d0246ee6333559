//! Compact binary geometry encoding.
//!
//! The paper stores geometry as WKT strings "to provide a fair
//! comparison … as well as make it compatible with existing
//! Hadoop-based systems", noting that "it is technically possible to
//! represent geometry … as binary both in-memory and on HDFS to avoid
//! string parsing overheads … This is left for our future work" (§III).
//! This module implements that future work: a little-endian,
//! WKB-flavoured tagged encoding. perfbench's traced layers measure
//! the parse-cost gap against WKT on every run (`reader.parse_right_s`
//! for WKT, `exchange.decode_s` for this encoding).
//!
//! Layout (all integers little-endian `u32`, coordinates `f64`):
//!
//! ```text
//! tag:u8, then per type —
//!   1 POINT            x y
//!   2 LINESTRING       n, then n × (x y)
//!   3 POLYGON          rings, then per ring: n, n × (x y)
//!   4 MULTIPOINT       n, then n × (x y)
//!   5 MULTILINESTRING  parts, then per part: n, n × (x y)
//!   6 MULTIPOLYGON     parts, then per part: rings, per ring: n, n × (x y)
//! ```

use crate::error::GeomError;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::multi::{MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};

const TAG_POINT: u8 = 1;
const TAG_LINESTRING: u8 = 2;
const TAG_POLYGON: u8 = 3;
const TAG_MULTIPOINT: u8 = 4;
const TAG_MULTILINESTRING: u8 = 5;
const TAG_MULTIPOLYGON: u8 = 6;

/// Encodes a geometry to a fresh buffer.
pub fn encode(geom: &Geometry) -> Vec<u8> {
    let mut out = Vec::with_capacity(geom.num_points() * 16 + 8);
    encode_into(geom, &mut out);
    out
}

/// Encodes a geometry, appending to `out`.
///
/// This is the shuffle/broadcast serialization hot path: one call per
/// record written, so the writers below only ever append to the
/// caller's buffer — the single allocation happens in [`encode`].
// tidy:alloc-free:start
pub fn encode_into(geom: &Geometry, out: &mut Vec<u8>) {
    match geom {
        Geometry::Point(p) => {
            out.push(TAG_POINT);
            put_f64(out, p.x);
            put_f64(out, p.y);
        }
        Geometry::LineString(l) => {
            out.push(TAG_LINESTRING);
            put_coords(out, l.coords());
        }
        Geometry::Polygon(poly) => {
            out.push(TAG_POLYGON);
            put_polygon(out, poly);
        }
        Geometry::MultiPoint(mp) => {
            out.push(TAG_MULTIPOINT);
            put_u32(out, mp.points.len() as u32);
            for p in &mp.points {
                put_f64(out, p.x);
                put_f64(out, p.y);
            }
        }
        Geometry::MultiLineString(ml) => {
            out.push(TAG_MULTILINESTRING);
            put_u32(out, ml.lines.len() as u32);
            for l in &ml.lines {
                put_coords(out, l.coords());
            }
        }
        Geometry::MultiPolygon(mp) => {
            out.push(TAG_MULTIPOLYGON);
            put_u32(out, mp.polygons.len() as u32);
            for poly in &mp.polygons {
                put_polygon(out, poly);
            }
        }
    }
}

/// Decodes one geometry from the front of `bytes`, returning the
/// geometry and the number of bytes consumed.
///
/// # Errors
/// Returns [`GeomError::Invalid`] on truncated or malformed input.
pub fn decode(bytes: &[u8]) -> Result<(Geometry, usize), GeomError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let geom = cur.geometry()?;
    Ok((geom, cur.pos))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_coords(out: &mut Vec<u8>, coords: &[f64]) {
    put_u32(out, (coords.len() / 2) as u32);
    for &c in coords {
        put_f64(out, c);
    }
}

fn put_polygon(out: &mut Vec<u8>, poly: &Polygon) {
    put_u32(out, 1 + poly.holes().len() as u32);
    put_coords(out, poly.exterior().coords());
    for h in poly.holes() {
        put_coords(out, h.coords());
    }
}
// tidy:alloc-free:end

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn truncated(&self) -> GeomError {
        GeomError::Invalid(format!("binary geometry truncated at byte {}", self.pos))
    }

    // The fixed-width readers and coordinate fill loops run once per
    // coordinate of every decoded geometry — the per-record shuffle
    // decode cost perfbench's `exchange.decode_s` measures — so they must
    // not allocate or panic; buffers are sized before entering them.
    // tidy:alloc-free:start
    fn u8(&mut self) -> Result<u8, GeomError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, GeomError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(slice);
        self.pos = end;
        Ok(u32::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Result<f64, GeomError> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(slice);
        self.pos = end;
        Ok(f64::from_le_bytes(buf))
    }

    // The per-coordinate fill loops: callers reserve capacity up
    // front, so the loop body itself never grows the buffer.
    fn fill_coords(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), GeomError> {
        for _ in 0..n {
            out.push(self.f64()?);
            out.push(self.f64()?);
        }
        Ok(())
    }

    fn fill_points(&mut self, n: usize, out: &mut Vec<Point>) -> Result<(), GeomError> {
        for _ in 0..n {
            let x = self.f64()?;
            let y = self.f64()?;
            out.push(Point::new(x, y));
        }
        Ok(())
    }
    // tidy:alloc-free:end

    fn coords(&mut self) -> Result<Vec<f64>, GeomError> {
        let n = self.u32()? as usize;
        // Sanity bound: refuse counts beyond the remaining bytes.
        if n > (self.bytes.len() - self.pos) / 16 + 1 {
            return Err(GeomError::Invalid(format!(
                "implausible coordinate count {n}"
            )));
        }
        let mut out = Vec::with_capacity(n * 2);
        self.fill_coords(n, &mut out)?;
        Ok(out)
    }

    fn polygon(&mut self) -> Result<Polygon, GeomError> {
        let rings = self.u32()? as usize;
        if rings == 0 {
            return Err(GeomError::Invalid("polygon with zero rings".into()));
        }
        let exterior = Ring::new(self.coords()?)?;
        let mut holes = Vec::with_capacity(rings - 1);
        for _ in 1..rings {
            holes.push(Ring::new(self.coords()?)?);
        }
        Ok(Polygon::new(exterior, holes))
    }

    fn geometry(&mut self) -> Result<Geometry, GeomError> {
        match self.u8()? {
            TAG_POINT => {
                let x = self.f64()?;
                let y = self.f64()?;
                Ok(Geometry::Point(Point::new(x, y)))
            }
            TAG_LINESTRING => Ok(Geometry::LineString(LineString::new(self.coords()?)?)),
            TAG_POLYGON => Ok(Geometry::Polygon(self.polygon()?)),
            TAG_MULTIPOINT => {
                let n = self.u32()? as usize;
                let mut points = Vec::with_capacity(n.min(1 << 20));
                self.fill_points(n, &mut points)?;
                Ok(Geometry::MultiPoint(MultiPoint::new(points)))
            }
            TAG_MULTILINESTRING => {
                let n = self.u32()? as usize;
                let mut lines = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    lines.push(LineString::new(self.coords()?)?);
                }
                Ok(Geometry::MultiLineString(MultiLineString::new(lines)))
            }
            TAG_MULTIPOLYGON => {
                let n = self.u32()? as usize;
                let mut polygons = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    polygons.push(self.polygon()?);
                }
                Ok(Geometry::MultiPolygon(MultiPolygon::new(polygons)))
            }
            other => Err(GeomError::Invalid(format!(
                "unknown binary geometry tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt;

    fn round_trip(wkt_str: &str) {
        let g = wkt::parse(wkt_str).unwrap();
        let bytes = encode(&g);
        let (back, consumed) = decode(&bytes).unwrap();
        assert_eq!(back, g, "round trip failed for {wkt_str}");
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn all_types_round_trip() {
        round_trip("POINT (1.5 -2.5)");
        round_trip("LINESTRING (0 0, 1 1, 2 0)");
        round_trip("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))");
        round_trip("MULTIPOINT ((1 2), (3 4))");
        round_trip("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))");
        round_trip("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))");
    }

    #[test]
    fn binary_is_smaller_than_wkt_for_big_polygons() {
        let g = Geometry::Polygon(
            crate::Polygon::from_coords(
                (0..100)
                    .flat_map(|i| {
                        let t = std::f64::consts::TAU * i as f64 / 100.0;
                        // Long decimals make WKT verbose, like real data.
                        [t.cos() * 1.234567, t.sin() * 7.654321]
                    })
                    .collect(),
                vec![],
            )
            .unwrap(),
        );
        let bin = encode(&g).len();
        let txt = wkt::write(&g).len();
        assert!(bin < txt, "binary {bin} should be < WKT {txt}");
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let g = wkt::parse("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap();
        let bytes = encode(&g);
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        assert!(decode(&[99, 0, 0]).is_err());
        // Implausible coordinate count.
        let mut evil = vec![TAG_LINESTRING];
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&evil).is_err());
    }

    #[test]
    fn decode_reports_consumed_bytes_for_concatenated_records() {
        let a = wkt::parse("POINT (1 2)").unwrap();
        let b = wkt::parse("LINESTRING (0 0, 1 1)").unwrap();
        let mut buf = encode(&a);
        encode_into(&b, &mut buf);
        let (g1, used) = decode(&buf).unwrap();
        assert_eq!(g1, a);
        let (g2, used2) = decode(&buf[used..]).unwrap();
        assert_eq!(g2, b);
        assert_eq!(used + used2, buf.len());
    }
}
