//! Text syntax for regular expressions.
//!
//! The syntax mirrors the paper's notation as closely as ASCII allows:
//!
//! | Syntax            | Meaning                                        |
//! |-------------------|------------------------------------------------|
//! | `FORM`, `p`       | a symbol (identifier, looked up in the alphabet) |
//! | `~`               | `ε`                                            |
//! | `[]`              | `∅` (the empty class is the empty language)    |
//! | `.`               | any single symbol (`Σ` as a class)             |
//! | `[a b c]`         | symbol class                                   |
//! | `[^a b]`          | complemented symbol class (`Σ − {a,b}`)        |
//! | juxtaposition     | concatenation                                  |
//! | `e*` `e+` `e?`    | star / plus / option                           |
//! | `e1 & e2`         | intersection                                   |
//! | `e1 - e2`         | difference (the paper's `E1 − E2`)             |
//! | `!e`              | complement relative to `Σ*`                    |
//! | `e1 | e2`         | union                                          |
//! | `( … )`           | grouping                                       |
//!
//! Precedence, loosest to tightest: `|`, then `-`/`&` (left-associative,
//! equal precedence), then concatenation, then postfix `*`/`+`/`?`, then
//! `!` and atoms.
//!
//! Identifiers may contain letters, digits, `_`, `/`, `:` and `#` — enough
//! for HTML close tags like `/TD`. They must be separated by whitespace or
//! operators.
//!
//! Nesting is bounded by [`MAX_NESTING`]: each `( … )` group, each `!`
//! and each `-` deepens either the parser's recursion or the tree it
//! builds, and everything downstream (automaton construction, printing,
//! dropping) recurses over that tree. Deeper input is a [`ParseError`],
//! never a stack overflow.

use super::Regex;
use crate::alphabet::Alphabet;
use std::fmt;

/// Deepest nesting [`Regex::parse`] accepts, counting every enclosing
/// `( … )` group, `!` complement and `-` of a difference chain. Trained
/// wrapper artifacts stay far below it; hostile input beyond it is
/// rejected before it can overflow a 2 MiB worker stack.
pub const MAX_NESTING: usize = 256;

/// Error produced by [`Regex::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Regex {
    /// Parse the textual syntax described in the [module docs](self).
    /// Symbol identifiers are resolved against `alphabet`; unknown symbols
    /// are an error.
    pub fn parse(alphabet: &Alphabet, input: &str) -> Result<Regex, ParseError> {
        let mut p = Parser {
            alphabet,
            toks: lex(input)?,
            pos: 0,
            depth: 0,
        };
        let re = p.parse_alt()?;
        if p.pos < p.toks.len() {
            return Err(p.err_here("unexpected trailing input"));
        }
        Ok(re)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Caret,
    Star,
    PlusOp,
    Quest,
    Pipe,
    Amp,
    Minus,
    Bang,
    Dot,
    Tilde,
}

struct Spanned {
    tok: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let simple = match c {
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            '[' => Some(Tok::LBracket),
            ']' => Some(Tok::RBracket),
            '^' => Some(Tok::Caret),
            '*' => Some(Tok::Star),
            '+' => Some(Tok::PlusOp),
            '?' => Some(Tok::Quest),
            '|' => Some(Tok::Pipe),
            '&' => Some(Tok::Amp),
            '-' => Some(Tok::Minus),
            '!' => Some(Tok::Bang),
            '.' => Some(Tok::Dot),
            '~' => Some(Tok::Tilde),
            _ => None,
        };
        if let Some(tok) = simple {
            out.push(Spanned { tok, offset: i });
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if is_ident_char(c) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            out.push(Spanned {
                tok: Tok::Ident(input[start..i].to_string()),
                offset: start,
            });
        } else {
            return Err(ParseError {
                offset: i,
                message: format!("unexpected character {c:?}"),
            });
        }
    }
    Ok(out)
}

fn is_ident_char(c: char) -> bool {
    // `@` and `=` admit the attribute-refined tag symbols of
    // `rextract-html` (`INPUT@type=text`) as identifiers.
    c.is_alphanumeric() || matches!(c, '_' | '/' | ':' | '#' | '@' | '=')
}

struct Parser<'a> {
    alphabet: &'a Alphabet,
    toks: Vec<Spanned>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: &str) -> ParseError {
        let offset = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.offset)
            .unwrap_or(0);
        ParseError {
            offset,
            message: msg.to_string(),
        }
    }

    /// Go one nesting level deeper, failing past [`MAX_NESTING`]. The
    /// caller restores the level on success; an error ends the parse.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err_here(&format!(
                "expression nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_alt(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_diff_and()?];
        while self.peek() == Some(&Tok::Pipe) {
            self.bump();
            parts.push(self.parse_diff_and()?);
        }
        Ok(Regex::alt(parts))
    }

    fn parse_diff_and(&mut self) -> Result<Regex, ParseError> {
        let outer = self.depth;
        let mut acc = self.parse_concat()?;
        loop {
            match self.peek() {
                Some(Tok::Minus) => {
                    // `a - b - c` is `(a - b) - c`: each `-` nests the
                    // tree one level deeper, like a group would.
                    self.enter()?;
                    self.bump();
                    let rhs = self.parse_concat()?;
                    acc = acc.diff(rhs);
                }
                Some(Tok::Amp) => {
                    self.bump();
                    let rhs = self.parse_concat()?;
                    acc = Regex::and([acc, rhs]);
                }
                _ => break,
            }
        }
        self.depth = outer;
        Ok(acc)
    }

    fn parse_concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = Vec::new();
        while self.starts_atom() {
            parts.push(self.parse_postfix()?);
        }
        if parts.is_empty() {
            return Err(self.err_here("expected an expression"));
        }
        Ok(Regex::concat(parts))
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Ident(_) | Tok::LParen | Tok::LBracket | Tok::Dot | Tok::Tilde | Tok::Bang)
        )
    }

    fn parse_postfix(&mut self) -> Result<Regex, ParseError> {
        let mut r = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.bump();
                    r = r.star();
                }
                Some(Tok::PlusOp) => {
                    self.bump();
                    r = r.plus();
                }
                Some(Tok::Quest) => {
                    self.bump();
                    r = r.opt();
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        match self.bump() {
            Some(Tok::Ident(name)) => {
                let s = self.alphabet.try_sym(&name).ok_or_else(|| ParseError {
                    offset: self.toks[self.pos - 1].offset,
                    message: format!("unknown symbol {name:?}"),
                })?;
                Ok(Regex::sym(self.alphabet, s))
            }
            Some(Tok::Dot) => Ok(Regex::any(self.alphabet)),
            Some(Tok::Tilde) => Ok(Regex::Epsilon),
            Some(Tok::Bang) => {
                self.enter()?;
                let inner = self.parse_postfix()?;
                self.depth -= 1;
                Ok(inner.not())
            }
            Some(Tok::LParen) => {
                self.enter()?;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                match self.bump() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(self.err_here("expected ')'")),
                }
            }
            Some(Tok::LBracket) => self.parse_class(),
            _ => Err(self.err_here("expected an expression")),
        }
    }

    fn parse_class(&mut self) -> Result<Regex, ParseError> {
        let negated = if self.peek() == Some(&Tok::Caret) {
            self.bump();
            true
        } else {
            false
        };
        let mut set = self.alphabet.empty_set();
        loop {
            match self.bump() {
                Some(Tok::Ident(name)) => {
                    let s = self.alphabet.try_sym(&name).ok_or_else(|| ParseError {
                        offset: self.toks[self.pos - 1].offset,
                        message: format!("unknown symbol {name:?}"),
                    })?;
                    set.insert(s);
                }
                Some(Tok::RBracket) => break,
                _ => return Err(self.err_here("expected a symbol or ']' in class")),
            }
        }
        if negated {
            set = set.complement();
        }
        Ok(Regex::class(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(["p", "q", "r"])
    }

    fn p(s: &str) -> Regex {
        Regex::parse(&ab(), s).unwrap()
    }

    #[test]
    fn atoms() {
        let a = ab();
        assert_eq!(p("p"), Regex::sym(&a, a.sym("p")));
        assert_eq!(p("~"), Regex::Epsilon);
        assert_eq!(p("[]"), Regex::Empty);
        assert_eq!(p("."), Regex::any(&a));
        assert_eq!(
            p("[p q]"),
            Regex::class({
                let mut s = a.empty_set();
                s.insert(a.sym("p"));
                s.insert(a.sym("q"));
                s
            })
        );
        assert_eq!(p("[^p]"), Regex::not_sym(&a, a.sym("p")));
    }

    #[test]
    fn concatenation_and_postfix() {
        let a = ab();
        let sp = Regex::sym(&a, a.sym("p"));
        let sq = Regex::sym(&a, a.sym("q"));
        assert_eq!(p("p q"), Regex::concat([sp.clone(), sq.clone()]));
        assert_eq!(p("p*"), sp.clone().star());
        assert_eq!(
            p("p+ q?"),
            Regex::concat([sp.clone().plus(), sq.clone().opt()])
        );
        assert_eq!(p("(p q)*"), Regex::concat([sp, sq]).star());
    }

    #[test]
    fn alternation_precedence() {
        let a = ab();
        let sp = Regex::sym(&a, a.sym("p"));
        let sq = Regex::sym(&a, a.sym("q"));
        let sr = Regex::sym(&a, a.sym("r"));
        // p q | r parses as (p q) | r
        assert_eq!(
            p("p q | r"),
            Regex::alt([Regex::concat([sp.clone(), sq.clone()]), sr.clone()])
        );
        // p | q r* parses as p | (q r*)
        assert_eq!(
            p("p | q r*"),
            Regex::alt([sp, Regex::concat([sq, sr.star()])])
        );
    }

    #[test]
    fn extended_operators() {
        let a = ab();
        let sp = Regex::sym(&a, a.sym("p"));
        let sq = Regex::sym(&a, a.sym("q"));
        assert_eq!(p("p & q"), Regex::and([sp.clone(), sq.clone()]));
        assert_eq!(p("p - q"), sp.clone().diff(sq.clone()));
        assert_eq!(p("!p"), sp.clone().not());
        // `-` binds looser than concat: p q - q == (p q) - q
        assert_eq!(
            p("p q - q"),
            Regex::concat([sp.clone(), sq.clone()]).diff(sq.clone())
        );
        // and looser than postfix: !p* == !(p*)
        assert_eq!(p("!p*"), sp.star().not());
        let _ = sq;
    }

    #[test]
    fn paper_expressions_parse() {
        // Expressions from Examples 4.3 and 4.6 of the paper.
        for s in [
            "(p q)* p .*",
            "(p | p p) p (p | p p)",
            "[^p]* p .*",
            "(q p)* ([^p]* - (. * q)) p .*",
            "p* q",
        ] {
            assert!(Regex::parse(&ab(), s).is_ok(), "failed to parse {s}");
        }
    }

    #[test]
    fn errors() {
        let a = ab();
        assert!(Regex::parse(&a, "z").is_err());
        assert!(Regex::parse(&a, "(p").is_err());
        assert!(Regex::parse(&a, "p )").is_err());
        assert!(Regex::parse(&a, "[p").is_err());
        assert!(Regex::parse(&a, "|").is_err());
        assert!(Regex::parse(&a, "p $ q").is_err());
        let e = Regex::parse(&a, "p z").unwrap_err();
        assert!(e.message.contains("unknown symbol"));
        assert_eq!(e.offset, 2);
    }

    #[test]
    fn whitespace_is_flexible() {
        assert_eq!(p("p   q"), p("p q"));
        assert_eq!(p(" ( p | q ) * "), p("(p|q)*"));
    }

    #[test]
    fn html_like_identifiers() {
        let a = Alphabet::new(["FORM", "/FORM", "INPUT"]);
        let r = Regex::parse(&a, "FORM INPUT* /FORM").unwrap();
        assert_eq!(
            r,
            Regex::concat([
                Regex::sym(&a, a.sym("FORM")),
                Regex::sym(&a, a.sym("INPUT")).star(),
                Regex::sym(&a, a.sym("/FORM")),
            ])
        );
    }

    /// Run `f` on a thread with a daemon worker's 2 MiB stack, so a
    /// recursion that a larger main-thread stack would survive aborts.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    fn nested_parens(n: usize) -> String {
        format!("{}p{}", "(".repeat(n), ")".repeat(n))
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let errors = on_worker_stack(|| {
            let n = 100_000;
            let bangs = format!("{}p", "!".repeat(n));
            let diffs = vec!["p"; n].join(" - ");
            [nested_parens(n), bangs, diffs].map(|text| Regex::parse(&ab(), &text))
        });
        for e in errors {
            let e = e.unwrap_err();
            assert!(e.message.contains("nested deeper"), "{e}");
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let a = ab();
        let n = MAX_NESTING;
        assert!(Regex::parse(&a, &nested_parens(n)).is_ok());
        assert!(Regex::parse(&a, &nested_parens(n + 1)).is_err());
        assert!(Regex::parse(&a, &format!("{}p", "!".repeat(n))).is_ok());
        assert!(Regex::parse(&a, &format!("{}p", "!".repeat(n + 1))).is_err());
        // n + 1 operands, n `-`s.
        assert!(Regex::parse(&a, &vec!["p"; n + 1].join(" - ")).is_ok());
        assert!(Regex::parse(&a, &vec!["p"; n + 2].join(" - ")).is_err());
        // Siblings do not add up: only enclosing levels count.
        let siblings = vec![nested_parens(n); 3].join(" | ");
        assert!(Regex::parse(&a, &format!("{siblings} - p")).is_ok());
    }
}
