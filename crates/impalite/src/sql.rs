//! SQL frontend: tokenizer and parser for the paper's dialect.
//!
//! The grammar covers exactly the two statements of the paper's Fig. 1
//! (plus optional table aliases and a trailing semicolon):
//!
//! ```sql
//! SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly
//!   WHERE ST_WITHIN (pnt.geom, poly.geom)
//!
//! SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly
//!   WHERE ST_NearestD (pnt.geom, poly.geom, 5000)
//! ```
//!
//! `SPATIAL JOIN` is the keyword ISP-MC adds to the Impala frontend
//! (§IV: "we first add 'SpatialJoin' key word to the Impala frontend").

use geom::engine::SpatialPredicate;

use crate::error::ImpalaError;

/// A `table.column` reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    pub table: String,
    pub column: String,
}

/// A parsed spatial-join query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected columns (the dialect requires exactly two).
    pub select: Vec<ColRef>,
    /// Left (probe/point) table name.
    pub left_table: String,
    /// Alias used for the left table in the statement.
    pub left_alias: String,
    /// Right (build/broadcast) table name.
    pub right_table: String,
    /// Alias used for the right table.
    pub right_alias: String,
    /// The join predicate.
    pub predicate: SpatialPredicate,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Comma,
    Dot,
    LParen,
    RParen,
    Semicolon,
}

fn tokenize(sql: &str) -> Result<Vec<Token>, ImpalaError> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            b'.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            b'(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            b')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            b';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            b'0'..=b'9' | b'-' | b'+' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E')
                {
                    i += 1;
                }
                let text = &sql[start..i];
                let value = text.parse::<f64>().map_err(|_| ImpalaError::Sql {
                    message: format!("malformed number '{text}'"),
                    position: tokens.len(),
                })?;
                tokens.push(Token::Number(value));
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token::Ident(sql[start..i].to_string()));
            }
            other => {
                return Err(ImpalaError::Sql {
                    message: format!("unexpected character '{}'", other as char),
                    position: tokens.len(),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ImpalaError {
        ImpalaError::Sql {
            message: message.into(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ImpalaError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected keyword {kw}, found {other:?}"))),
        }
    }

    fn expect_token(&mut self, t: Token) -> Result<(), ImpalaError> {
        match self.next() {
            Some(found) if found == t => Ok(()),
            other => Err(self.err(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ImpalaError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<f64, ImpalaError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn col_ref(&mut self) -> Result<ColRef, ImpalaError> {
        let table = self.ident()?;
        self.expect_token(Token::Dot)?;
        let column = self.ident()?;
        Ok(ColRef { table, column })
    }

    /// `table [alias]` — an alias is any identifier that is not one of
    /// the clause keywords.
    fn table_with_alias(&mut self) -> Result<(String, String), ImpalaError> {
        let table = self.ident()?;
        let alias = match self.peek() {
            Some(Token::Ident(s))
                if !["SPATIAL", "JOIN", "WHERE"]
                    .iter()
                    .any(|kw| s.eq_ignore_ascii_case(kw)) =>
            {
                let a = s.clone();
                self.pos += 1;
                a
            }
            _ => table.clone(),
        };
        Ok((table, alias))
    }
}

/// Parses one spatial-join statement.
///
/// # Errors
/// Returns [`ImpalaError::Sql`] on malformed input, including predicate
/// arguments that do not reference the joined tables in `(left, right)`
/// order.
pub fn parse_query(sql: &str) -> Result<Query, ImpalaError> {
    let mut p = Parser {
        tokens: tokenize(sql)?,
        pos: 0,
    };
    p.expect_keyword("SELECT")?;
    let first = p.col_ref()?;
    p.expect_token(Token::Comma)?;
    let second = p.col_ref()?;
    p.expect_keyword("FROM")?;
    let (left_table, left_alias) = p.table_with_alias()?;
    p.expect_keyword("SPATIAL")?;
    p.expect_keyword("JOIN")?;
    let (right_table, right_alias) = p.table_with_alias()?;
    p.expect_keyword("WHERE")?;

    let func = p.ident()?;
    let predicate = if func.eq_ignore_ascii_case("ST_WITHIN") {
        p.expect_token(Token::LParen)?;
        let a = p.col_ref()?;
        p.expect_token(Token::Comma)?;
        let b = p.col_ref()?;
        p.expect_token(Token::RParen)?;
        check_sides(&p, &a, &b, &left_alias, &right_alias)?;
        SpatialPredicate::Within
    } else if func.eq_ignore_ascii_case("ST_NEARESTD") || func.eq_ignore_ascii_case("ST_NEAREST") {
        let nearest_one = func.eq_ignore_ascii_case("ST_NEAREST");
        p.expect_token(Token::LParen)?;
        let a = p.col_ref()?;
        p.expect_token(Token::Comma)?;
        let b = p.col_ref()?;
        p.expect_token(Token::Comma)?;
        let d = p.number()?;
        p.expect_token(Token::RParen)?;
        check_sides(&p, &a, &b, &left_alias, &right_alias)?;
        if d < 0.0 {
            return Err(p.err("ST_NearestD distance must be non-negative"));
        }
        if nearest_one {
            SpatialPredicate::Nearest(d)
        } else {
            SpatialPredicate::NearestD(d)
        }
    } else {
        return Err(p.err(format!("unknown spatial predicate {func}")));
    };

    // Optional trailing semicolon, then end of input.
    if p.peek() == Some(&Token::Semicolon) {
        p.pos += 1;
    }
    if p.peek().is_some() {
        return Err(p.err("trailing tokens after statement"));
    }

    // Validate the projection aliases.
    let select = vec![first, second];
    for c in &select {
        if c.table != left_alias && c.table != right_alias {
            return Err(ImpalaError::UnknownAlias(c.table.clone()));
        }
    }

    Ok(Query {
        select,
        left_table,
        left_alias,
        right_table,
        right_alias,
        predicate,
    })
}

fn check_sides(
    p: &Parser,
    a: &ColRef,
    b: &ColRef,
    left_alias: &str,
    right_alias: &str,
) -> Result<(), ImpalaError> {
    if a.table != left_alias || b.table != right_alias {
        return Err(p.err(format!(
            "predicate arguments must be ({left_alias}.geom, {right_alias}.geom)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig1_within() {
        let q = parse_query(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
             WHERE ST_WITHIN (pnt.geom, poly.geom)",
        )
        .unwrap();
        assert_eq!(q.left_table, "pnt");
        assert_eq!(q.right_table, "poly");
        assert_eq!(q.predicate, SpatialPredicate::Within);
        assert_eq!(q.select[0].column, "id");
    }

    #[test]
    fn parses_fig1_nearestd() {
        let q = parse_query(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly \
             WHERE ST_NearestD (pnt.geom, poly.geom, 5000);",
        )
        .unwrap();
        assert_eq!(q.predicate, SpatialPredicate::NearestD(5000.0));
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        let q = parse_query(
            "select t.id, b.id from taxi t spatial join nycb b \
             where st_within (t.geom, b.geom)",
        )
        .unwrap();
        assert_eq!(q.left_table, "taxi");
        assert_eq!(q.left_alias, "t");
        assert_eq!(q.right_alias, "b");
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse_query("SELECT x FROM t").is_err());
        assert!(parse_query(
            "SELECT a.id, b.id FROM a SPATIAL JOIN b WHERE ST_TOUCHES (a.geom, b.geom)"
        )
        .is_err());
        assert!(
            parse_query("SELECT a.id, b.id FROM a SPATIAL JOIN b WHERE ST_WITHIN (b.geom, a.geom)")
                .is_err(),
            "swapped predicate sides must be rejected"
        );
        assert!(parse_query(
            "SELECT a.id, b.id FROM a SPATIAL JOIN b WHERE ST_NearestD (a.geom, b.geom, -5)"
        )
        .is_err());
        assert!(
            parse_query("SELECT c.id, b.id FROM a SPATIAL JOIN b WHERE ST_WITHIN (a.geom, b.geom)")
                .is_err(),
            "unknown projection alias"
        );
        assert!(parse_query(
            "SELECT a.id, b.id FROM a SPATIAL JOIN b WHERE ST_WITHIN (a.geom, b.geom) extra"
        )
        .is_err());
        // The dialect has no aggregates.
        for sql in [
            "SELECT b.id, COUNT(*) FROM a SPATIAL JOIN b WHERE ST_WITHIN (a.geom, b.geom) \
             GROUP BY b.id",
            "SELECT b.id, COUNT(*) FROM a SPATIAL JOIN b WHERE ST_WITHIN (a.geom, b.geom)",
        ] {
            assert!(
                matches!(parse_query(sql), Err(ImpalaError::Sql { .. })),
                "{sql}"
            );
        }
    }

    #[test]
    fn tokenizer_rejects_garbage() {
        assert!(parse_query("SELECT @ FROM x").is_err());
    }

    #[test]
    fn scientific_distance() {
        let q = parse_query(
            "SELECT a.id, b.id FROM a SPATIAL JOIN b WHERE ST_NearestD (a.geom, b.geom, 1.5e2)",
        )
        .unwrap();
        assert_eq!(q.predicate, SpatialPredicate::NearestD(150.0));
    }
}
