//! A recursive-descent parser for the ASCII PLTL syntax.
//!
//! Grammar, from loosest to tightest binding (matching
//! [`Formula`]'s `Display`):
//!
//! ```text
//! iff    := imp ( "<->" imp )*                (left-assoc)
//! imp    := or ( "->" imp )?                  (right-assoc)
//! or     := and ( "|" and )*
//! and    := until ( "&" until )*
//! until  := unary ( ("U" | "R" | "B" | "W") until )?   (right-assoc)
//! unary  := ("!" | "X" | "F" | "G" | "[]" | "<>") unary
//!         | "true" | "false" | ident | "(" iff ")"
//! ```
//!
//! `F`/`<>` are eventually, `G`/`[]` always. Identifiers are
//! `[A-Za-z_][A-Za-z0-9_]*` except the keywords.

use std::error::Error;
use std::fmt;

use crate::ast::Formula;

/// Parse error with a character position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    True,
    False,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Next,
    Until,
    Release,
    Before,
    WeakUntil,
    Eventually,
    Always,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            '!' => {
                toks.push((i, Tok::Not));
                i += 1;
            }
            '&' => {
                // accept both & and &&
                toks.push((i, Tok::And));
                i += if input[i..].starts_with("&&") { 2 } else { 1 };
            }
            '|' => {
                toks.push((i, Tok::Or));
                i += if input[i..].starts_with("||") { 2 } else { 1 };
            }
            '-' => {
                if input[i..].starts_with("->") {
                    toks.push((i, Tok::Implies));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '->'".into(),
                    });
                }
            }
            '<' => {
                if input[i..].starts_with("<->") {
                    toks.push((i, Tok::Iff));
                    i += 3;
                } else if input[i..].starts_with("<>") {
                    toks.push((i, Tok::Eventually));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '<->' or '<>'".into(),
                    });
                }
            }
            '[' => {
                if input[i..].starts_with("[]") {
                    toks.push((i, Tok::Always));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '[]'".into(),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let tok = match word {
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "U" => Tok::Until,
                    "R" => Tok::Release,
                    "B" => Tok::Before,
                    "W" => Tok::WeakUntil,
                    "X" => Tok::Next,
                    "F" => Tok::Eventually,
                    "G" => Tok::Always,
                    _ => Tok::Ident(word.to_owned()),
                };
                toks.push((start, tok));
            }
            other => {
                return Err(ParseError {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

/// The deepest formula [`parse`] accepts. Both the height of the syntax
/// tree and the parser's own recursion (parentheses and operators on the
/// way down) are capped here: every later pass over a formula (normal
/// forms, translation, display, drop) recurses along the tree, so the cap
/// keeps them all within a worker thread's stack.
pub const MAX_FORMULA_DEPTH: usize = 256;

/// A parsed sub-formula with the height of its syntax tree.
type Node = (Formula, usize);

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    end: usize,
    /// Current parser recursion depth (parentheses, prefix operators and
    /// right operands of right-associative ones).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |(p, _)| *p)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.here(),
            message: message.into(),
        }
    }

    fn too_deep(&self) -> ParseError {
        self.error(format!(
            "formula nests deeper than {MAX_FORMULA_DEPTH} levels"
        ))
    }

    /// Runs `parse` one recursion level down, failing instead of
    /// descending past [`MAX_FORMULA_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Parser) -> Result<Node, ParseError>,
    ) -> Result<Node, ParseError> {
        if self.depth == MAX_FORMULA_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let node = parse(self);
        self.depth -= 1;
        node
    }

    /// A node whose children have the larger height `child`.
    fn node(&self, formula: Formula, child: usize) -> Result<Node, ParseError> {
        if child == MAX_FORMULA_DEPTH {
            return Err(self.too_deep());
        }
        Ok((formula, child + 1))
    }

    /// `operand ( op operand )*`, folded to the left.
    fn left_assoc(
        &mut self,
        op: Tok,
        operand: fn(&mut Parser) -> Result<Node, ParseError>,
        join: fn(Formula, Formula) -> Formula,
    ) -> Result<Node, ParseError> {
        let (mut left, mut height) = operand(self)?;
        while self.peek() == Some(&op) {
            self.bump();
            let (right, h) = operand(self)?;
            (left, height) = self.node(join(left, right), height.max(h))?;
        }
        Ok((left, height))
    }

    fn iff(&mut self) -> Result<Node, ParseError> {
        self.left_assoc(Tok::Iff, Self::imp, Formula::iff)
    }

    fn imp(&mut self) -> Result<Node, ParseError> {
        let (left, height) = self.or()?;
        if self.peek() != Some(&Tok::Implies) {
            return Ok((left, height));
        }
        self.bump();
        let (right, h) = self.nested(Self::imp)?;
        self.node(left.implies(right), height.max(h))
    }

    fn or(&mut self) -> Result<Node, ParseError> {
        self.left_assoc(Tok::Or, Self::and, Formula::or)
    }

    fn and(&mut self) -> Result<Node, ParseError> {
        self.left_assoc(Tok::And, Self::until, Formula::and)
    }

    fn until(&mut self) -> Result<Node, ParseError> {
        let (left, height) = self.unary()?;
        let op: fn(Formula, Formula) -> Formula = match self.peek() {
            Some(&Tok::Until) => Formula::until,
            Some(&Tok::Release) => Formula::release,
            Some(&Tok::Before) => Formula::before,
            Some(&Tok::WeakUntil) => Formula::weak_until,
            _ => return Ok((left, height)),
        };
        self.bump();
        let (right, h) = self.nested(Self::until)?;
        self.node(op(left, right), height.max(h))
    }

    fn unary(&mut self) -> Result<Node, ParseError> {
        let op: fn(Formula) -> Formula = match self.peek() {
            Some(&Tok::Not) => Formula::not,
            Some(&Tok::Next) => Formula::next,
            Some(&Tok::Eventually) => Formula::eventually,
            Some(&Tok::Always) => Formula::always,
            _ => return self.primary(),
        };
        self.bump();
        let (operand, height) = self.nested(Self::unary)?;
        self.node(op(operand), height)
    }

    fn primary(&mut self) -> Result<Node, ParseError> {
        let leaf = match self.peek() {
            Some(&Tok::True) => Formula::True,
            Some(&Tok::False) => Formula::False,
            Some(Tok::Ident(name)) => Formula::atom(name.clone()),
            Some(&Tok::LParen) => {
                self.bump();
                let inner = self.nested(Self::iff)?;
                if self.bump() != Some(Tok::RParen) {
                    return Err(self.error("expected ')'"));
                }
                return Ok(inner);
            }
            _ => return Err(self.error("expected a formula")),
        };
        self.bump();
        Ok((leaf, 0))
    }
}

/// Parses a PLTL formula from ASCII syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input,
/// and on formulas nested deeper than [`MAX_FORMULA_DEPTH`].
///
/// # Example
///
/// ```
/// use rl_logic::{parse, Formula};
///
/// # fn main() -> Result<(), rl_logic::ParseError> {
/// let f = parse("[]<>result")?;
/// assert_eq!(f, Formula::atom("result").eventually().always());
/// let g = parse("a U (b & !c)")?;
/// assert_eq!(g.to_string(), "a U (b & !c)");
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        end: input.len(),
        depth: 0,
    };
    let (f, _) = p.iff()?;
    if p.pos != p.toks.len() {
        return Err(p.error("trailing input"));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_property() {
        assert_eq!(
            parse("[]<>result").unwrap(),
            Formula::atom("result").eventually().always()
        );
        assert_eq!(parse("G F result").unwrap(), parse("[]<>result").unwrap());
    }

    #[test]
    fn precedence_until_tighter_than_and() {
        assert_eq!(
            parse("a & b U c").unwrap(),
            Formula::atom("a").and(Formula::atom("b").until(Formula::atom("c")))
        );
    }

    #[test]
    fn until_is_right_associative() {
        assert_eq!(
            parse("a U b U c").unwrap(),
            Formula::atom("a").until(Formula::atom("b").until(Formula::atom("c")))
        );
    }

    #[test]
    fn implication_is_right_associative() {
        assert_eq!(
            parse("a -> b -> c").unwrap(),
            Formula::atom("a").implies(Formula::atom("b").implies(Formula::atom("c")))
        );
    }

    #[test]
    fn before_operator() {
        assert_eq!(
            parse("a B b").unwrap(),
            Formula::atom("a").before(Formula::atom("b"))
        );
    }

    #[test]
    fn errors_have_positions() {
        let err = parse("a U").unwrap_err();
        assert_eq!(err.position, 3);
        let err = parse("a @ b").unwrap_err();
        assert_eq!(err.position, 2);
        let err = parse("(a").unwrap_err();
        assert!(err.message.contains(")"));
    }

    #[test]
    fn double_ampersand_accepted() {
        assert_eq!(parse("a && b").unwrap(), parse("a & b").unwrap());
        assert_eq!(parse("a || b").unwrap(), parse("a | b").unwrap());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nots = |n: usize| format!("{}a", "!".repeat(n));
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        let ands = |n: usize| format!("a{}", " & a".repeat(n));
        let untils = |n: usize| format!("a{}", " U a".repeat(n));
        for deep in [nots, parens, ands, untils] {
            assert!(parse(&deep(MAX_FORMULA_DEPTH)).is_ok());
            let err = parse(&deep(MAX_FORMULA_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{err}");
            assert!(parse(&deep(20_000)).is_err());
        }
    }

    #[test]
    fn display_parse_roundtrip_samples() {
        for text in [
            "a U b & c",
            "(a U b) & c",
            "!(a | b) -> X c",
            "[](<>a <-> b R c)",
            "a B (b U c)",
            "X(a & b) | false",
        ] {
            let f = parse(text).unwrap();
            let again = parse(&f.to_string()).unwrap();
            assert_eq!(f, again, "round-trip of {text} via {f}");
        }
    }
}
