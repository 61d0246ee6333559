//! Well-Known Text reader and writer.
//!
//! Both prototype systems in the paper store geometry as WKT strings in
//! HDFS text files and parse them at run time ("we represent geometry as
//! strings in the Well-Known-Text format", §IV), so the parser here is a
//! hot path and written as a single-pass recursive-descent scanner over
//! the input bytes with no intermediate token vector.
//!
//! Coordinates, nearly all of the bytes, are read in that same pass: the
//! number kernel (`decimal`) accumulates each token's significand while
//! it scans it and converts it exactly (Clinger's fast path, else
//! Eisel–Lemire), so no byte is looked at twice. A token outside the
//! kernel's strict grammar (a leading `+`, more than 19 significant
//! digits, a subnormal or non-finite value) is scanned again and handed
//! to `str::parse`, which yields the same double and the same errors at
//! the same offsets as before the kernel existed.

use crate::decimal;
use crate::error::GeomError;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::multi::{MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};

/// Parses one WKT geometry from `input`.
///
/// Accepts the six types used by the paper's datasets, case-insensitively,
/// plus `EMPTY` collections.
///
/// # Errors
/// Returns [`GeomError::WktParse`] with a byte offset on malformed input.
pub fn parse(input: &str) -> Result<Geometry, GeomError> {
    let mut p = Parser::new(input);
    let geom = p.parse_geometry()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after geometry"));
    }
    Ok(geom)
}

/// Serialises a geometry to WKT.
pub fn write(geom: &Geometry) -> String {
    let mut out = String::with_capacity(geom.num_points() * 16 + 16);
    write_into(geom, &mut out);
    out
}

/// Serialises a geometry to WKT, appending to an existing buffer (lets
/// callers reuse one allocation per record batch).
pub fn write_into(geom: &Geometry, out: &mut String) {
    use std::fmt::Write;
    match geom {
        Geometry::Point(p) => {
            let _ = write!(out, "POINT ({} {})", p.x, p.y);
        }
        Geometry::LineString(l) => {
            out.push_str("LINESTRING ");
            write_coord_list(l.coords(), out);
        }
        Geometry::Polygon(poly) => {
            out.push_str("POLYGON ");
            write_polygon_body(poly, out);
        }
        Geometry::MultiPoint(mp) => {
            if mp.points.is_empty() {
                out.push_str("MULTIPOINT EMPTY");
                return;
            }
            out.push_str("MULTIPOINT (");
            for (i, p) in mp.points.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "({} {})", p.x, p.y);
            }
            out.push(')');
        }
        Geometry::MultiLineString(ml) => {
            if ml.lines.is_empty() {
                out.push_str("MULTILINESTRING EMPTY");
                return;
            }
            out.push_str("MULTILINESTRING (");
            for (i, l) in ml.lines.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_coord_list(l.coords(), out);
            }
            out.push(')');
        }
        Geometry::MultiPolygon(mp) => {
            if mp.polygons.is_empty() {
                out.push_str("MULTIPOLYGON EMPTY");
                return;
            }
            out.push_str("MULTIPOLYGON (");
            for (i, poly) in mp.polygons.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_polygon_body(poly, out);
            }
            out.push(')');
        }
    }
}

fn write_coord_list(coords: &[f64], out: &mut String) {
    use std::fmt::Write;
    out.push('(');
    for (i, pair) in coords.chunks_exact(2).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", pair[0], pair[1]);
    }
    out.push(')');
}

fn write_polygon_body(poly: &Polygon, out: &mut String) {
    out.push('(');
    write_coord_list(poly.exterior().coords(), out);
    for h in poly.holes() {
        out.push_str(", ");
        write_coord_list(h.coords(), out);
    }
    out.push(')');
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> GeomError {
        GeomError::WktParse {
            message: message.into(),
            offset: self.pos,
        }
    }

    // The per-coordinate scanning primitives. Every coordinate of every
    // record funnels through these, so they must never touch the
    // allocator; the allocating helper (`consume`'s error message)
    // lives below, outside the region.
    // tidy:alloc-free:start
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume_if(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// True (and consumed) when the next keyword is `EMPTY`.
    fn try_empty(&mut self) -> bool {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        if rest.len() >= 5 && rest[..5].eq_ignore_ascii_case(b"EMPTY") {
            self.pos += 5;
            true
        } else {
            false
        }
    }

    /// Reads one finite coordinate in a single pass over its bytes
    /// ([`decimal::parse`]); a token that pass declines takes
    /// [`Parser::general_number`].
    #[inline]
    fn number(&mut self) -> Result<f64, GeomError> {
        self.skip_ws();
        match decimal::parse(&self.bytes[self.pos..]) {
            Some((v, len)) => {
                self.pos += len;
                Ok(v)
            }
            None => self.general_number(),
        }
    }

    /// Scans the longest run of number bytes and hands it to
    /// `str::parse`. A token that overflows `f64` (say `1e999`) would
    /// parse as an infinity, which no envelope, index or predicate
    /// handles, so it is malformed like any other bad number.
    #[cold]
    fn general_number(&mut self) -> Result<f64, GeomError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && decimal::is_number_byte(self.bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        // Every byte matched above is ASCII, so both ends of the token
        // are char boundaries of the source and no UTF-8 check is needed.
        match self.src[start..self.pos].parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(GeomError::WktParse {
                message: "malformed number".into(),
                offset: start,
            }),
        }
    }

    /// Reads the next alphabetic keyword, as written in the source.
    fn keyword(&mut self) -> Result<&'a str, GeomError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a keyword"));
        }
        // ASCII letters only, so both ends are char boundaries.
        Ok(&self.src[start..self.pos])
    }
    // tidy:alloc-free:end

    fn consume(&mut self, b: u8) -> Result<(), GeomError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    /// `( x y, x y, ... )` — a parenthesised coordinate list, returned flat.
    fn coord_list(&mut self) -> Result<Vec<f64>, GeomError> {
        self.consume(b'(')?;
        let mut coords = Vec::with_capacity(16);
        loop {
            let x = self.number()?;
            let y = self.number()?;
            coords.push(x);
            coords.push(y);
            if !self.consume_if(b',') {
                break;
            }
        }
        self.consume(b')')?;
        Ok(coords)
    }

    /// `( (ring), (ring), ... )` — a polygon body.
    fn polygon_body(&mut self) -> Result<Polygon, GeomError> {
        self.consume(b'(')?;
        let exterior = Ring::new(self.coord_list()?)?;
        let mut holes = Vec::new();
        while self.consume_if(b',') {
            holes.push(Ring::new(self.coord_list()?)?);
        }
        self.consume(b')')?;
        Ok(Polygon::new(exterior, holes))
    }

    fn parse_geometry(&mut self) -> Result<Geometry, GeomError> {
        let kw = self.keyword()?;
        let is = |name: &str| kw.eq_ignore_ascii_case(name);
        if is("POINT") {
            self.consume(b'(')?;
            let x = self.number()?;
            let y = self.number()?;
            self.consume(b')')?;
            Ok(Geometry::Point(Point::new(x, y)))
        } else if is("LINESTRING") {
            let coords = self.coord_list()?;
            Ok(Geometry::LineString(LineString::new(coords)?))
        } else if is("POLYGON") {
            Ok(Geometry::Polygon(self.polygon_body()?))
        } else if is("MULTIPOINT") {
            if self.try_empty() {
                return Ok(Geometry::MultiPoint(MultiPoint::new(vec![])));
            }
            self.consume(b'(')?;
            let mut points = Vec::new();
            loop {
                // Both `(x y)` and bare `x y` member syntax are legal WKT.
                let parenthesised = self.consume_if(b'(');
                let x = self.number()?;
                let y = self.number()?;
                if parenthesised {
                    self.consume(b')')?;
                }
                points.push(Point::new(x, y));
                if !self.consume_if(b',') {
                    break;
                }
            }
            self.consume(b')')?;
            Ok(Geometry::MultiPoint(MultiPoint::new(points)))
        } else if is("MULTILINESTRING") {
            if self.try_empty() {
                return Ok(Geometry::MultiLineString(MultiLineString::new(vec![])));
            }
            self.consume(b'(')?;
            let mut lines = Vec::new();
            loop {
                lines.push(LineString::new(self.coord_list()?)?);
                if !self.consume_if(b',') {
                    break;
                }
            }
            self.consume(b')')?;
            Ok(Geometry::MultiLineString(MultiLineString::new(lines)))
        } else if is("MULTIPOLYGON") {
            if self.try_empty() {
                return Ok(Geometry::MultiPolygon(MultiPolygon::new(vec![])));
            }
            self.consume(b'(')?;
            let mut polygons = Vec::new();
            loop {
                polygons.push(self.polygon_body()?);
                if !self.consume_if(b',') {
                    break;
                }
            }
            self.consume(b')')?;
            Ok(Geometry::MultiPolygon(MultiPolygon::new(polygons)))
        } else {
            Err(GeomError::WktParse {
                message: format!("unknown geometry type '{}'", kw.to_ascii_uppercase()),
                offset: 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HasEnvelope;

    #[test]
    fn point_round_trip() {
        let g = parse("POINT (-73.97 40.75)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-73.97, 40.75)));
        assert_eq!(write(&g), "POINT (-73.97 40.75)");
        // 17 significant digits, negative values and extreme exponents
        // must survive write -> parse bit for bit.
        for (x, y) in [
            (-73.985_428_380_966_19, 40.748_440_170_288_086),
            (0.1 + 0.2, -1.0 / 3.0),
            (-1.234_567_890_123_456_7e-300, 9.876_543_210_987_654e300),
            (-0.0, f64::MIN_POSITIVE),
            (123_456.789_012_345_67, -119_999.999_999_999_99),
        ] {
            let g = Geometry::Point(Point::new(x, y));
            let p = parse(&write(&g)).unwrap().as_point().unwrap();
            assert_eq!(
                (p.x.to_bits(), p.y.to_bits()),
                (x.to_bits(), y.to_bits()),
                "{x} {y}"
            );
        }
    }

    #[test]
    fn case_and_whitespace_insensitive() {
        let g = parse("  point(1 2)  ").unwrap();
        assert_eq!(g.as_point(), Some(Point::new(1.0, 2.0)));
        let g2 = parse("LineString ( 0 0 , 1 1 )").unwrap();
        assert!(matches!(g2, Geometry::LineString(_)));
        let poly = parse("Polygon((0 0,1 0,1 1,0 0))").unwrap();
        assert_eq!(poly, parse("POLYGON ((0 0, 1 0, 1 1, 0 0))").unwrap());
        let multi = parse("multiPOLYGON (((0 0, 1 0, 1 1, 0 0)))").unwrap();
        assert!(matches!(multi, Geometry::MultiPolygon(_)));
        assert_eq!(
            parse("multipoint empty").unwrap(),
            parse("MULTIPOINT EMPTY").unwrap()
        );
    }

    #[test]
    fn polygon_with_hole_round_trip() {
        let wkt = "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))";
        let g = parse(wkt).unwrap();
        let Geometry::Polygon(poly) = &g else {
            panic!("expected a polygon, got {g:?}");
        };
        assert_eq!(poly.holes().len(), 1);
        let back = write(&g);
        assert_eq!(parse(&back).unwrap(), g);
    }

    #[test]
    fn multipolygon_parses() {
        let wkt = "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))";
        let g = parse(wkt).unwrap();
        match &g {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.polygons.len(), 2),
            _ => panic!("expected MultiPolygon"),
        }
        assert_eq!(parse(&write(&g)).unwrap(), g);
    }

    #[test]
    fn multipoint_both_member_syntaxes() {
        let a = parse("MULTIPOINT ((1 2), (3 4))").unwrap();
        let b = parse("MULTIPOINT (1 2, 3 4)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_collections() {
        assert_eq!(
            parse("MULTIPOLYGON EMPTY").unwrap(),
            Geometry::MultiPolygon(MultiPolygon::new(vec![]))
        );
        assert!(parse("MULTIPOINT EMPTY").unwrap().envelope().is_empty());
    }

    #[test]
    fn scientific_notation() {
        let g = parse("POINT (1.5e2 -2.5E-1)").unwrap();
        assert_eq!(g.as_point(), Some(Point::new(150.0, -0.25)));
        let g = parse("POINT (-7.3985428380966187E+1 4.0748440170288086e1)").unwrap();
        assert_eq!(
            g.as_point(),
            Some(Point::new(-73.985_428_380_966_18, 40.748_440_170_288_086))
        );
        let g = parse("POINT (1e-320 -2.5E+300)").unwrap();
        assert_eq!(g.as_point(), Some(Point::new(1e-320, -2.5e300)));
    }

    #[test]
    fn non_finite_numbers_are_malformed() {
        let malformed_at = |wkt: &str, offset| match parse(wkt).unwrap_err() {
            GeomError::WktParse { message, offset: o } => {
                assert_eq!(message, "malformed number", "{wkt}");
                assert_eq!(o, offset, "{wkt}");
            }
            other => panic!("expected parse error for {wkt}, got {other:?}"),
        };
        malformed_at("POINT (1e999 2)", 7);
        malformed_at("POINT (1 -1e999)", 9);
        malformed_at(
            "POLYGON ((100 100, 1e999 100, 1e999 200, 100 200, 100 100))",
            19,
        );
        malformed_at("POLYGON ((100 100, 200 -1e999, 200 200, 100 100))", 23);
        // The largest finite values still parse.
        let g = parse("POINT (1.7976931348623157e308 -1.7976931348623157e308)").unwrap();
        assert_eq!(g.as_point(), Some(Point::new(f64::MAX, f64::MIN)));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("POINT (1 )").unwrap_err();
        match err {
            GeomError::WktParse { offset, .. } => assert!(offset >= 8),
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse("  Circle (0 0)").unwrap_err() {
            GeomError::WktParse { message, offset } => {
                assert_eq!(message, "unknown geometry type 'CIRCLE'");
                assert_eq!(offset, 0);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("POINT (1 2) junk").is_err());
        assert!(parse("").is_err());
        assert!(parse("POLYGON ((0 0, 1 1))").is_err()); // ring too short
    }

    #[test]
    fn multilinestring_round_trip() {
        let wkt = "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))";
        let g = parse(wkt).unwrap();
        assert_eq!(g.num_points(), 5);
        assert_eq!(parse(&write(&g)).unwrap(), g);
    }
}
