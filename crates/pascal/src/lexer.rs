//! Hand-written lexer for the Pascal subset.
//!
//! Handles Pascal comments (`{ ... }` and `(* ... *)`), case-insensitive
//! keywords, integer/real literals, and quoted string literals with the
//! doubled-quote escape (`'it''s'`).

use crate::error::{Diagnostic, Result, Stage};
use crate::name::Name;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Tokenizes an entire source string.
///
/// The returned vector always ends with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unterminated comments/strings and
/// unrecognized characters.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::lexer::tokenize;
/// use gadt_pascal::token::TokenKind;
/// let toks = tokenize("x := 1;")?;
/// assert_eq!(toks[1].kind, TokenKind::Assign);
/// # Ok(())
/// # }
/// ```
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'s> {
    text: &'s str,
    src: &'s [u8],
    pos: usize,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str) -> Self {
        Lexer {
            text: source,
            src: source.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.tokens);
            };
            match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start),
                b'0'..=b'9' => self.number(start)?,
                b'\'' => self.string(start)?,
                _ => self.symbol(start)?,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        });
    }

    fn err(&self, msg: impl Into<String>, start: usize) -> Diagnostic {
        Diagnostic::new(
            Stage::Lex,
            msg,
            Span::new(start as u32, self.pos.max(start + 1) as u32),
        )
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'{') => {
                    let start = self.pos;
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'}') => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated comment", start)),
                        }
                    }
                }
                Some(b'(') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b')') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.err("unterminated comment", start)),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self, start: usize) {
        while matches!(
            self.peek(),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.bump();
        }
        // Identifier bytes are ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        let kind = TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(Name::new(text)));
        self.push(kind, start);
    }

    fn number(&mut self, start: usize) -> Result<()> {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        // A real literal needs `digit . digit`; `1..2` is int followed by DotDot.
        let is_real = self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9'));
        if is_real {
            self.bump(); // '.'
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.bump();
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.bump();
                }
                if !matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("missing exponent digits in real literal", start));
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]);
            let value: f64 = text
                .parse()
                .map_err(|_| self.err(format!("invalid real literal `{text}`"), start))?;
            self.push(TokenKind::RealLit(value), start);
        } else {
            let text = String::from_utf8_lossy(&self.src[start..self.pos]);
            let value: i64 = text
                .parse()
                .map_err(|_| self.err(format!("integer literal `{text}` out of range"), start))?;
            self.push(TokenKind::IntLit(value), start);
        }
        Ok(())
    }

    fn string(&mut self, start: usize) -> Result<()> {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(b'\'') => {
                    if self.peek() == Some(b'\'') {
                        self.bump();
                        value.push('\'');
                    } else {
                        break;
                    }
                }
                Some(b'\n') | None => {
                    return Err(self.err("unterminated string literal", start));
                }
                Some(c) => value.push(c as char),
            }
        }
        self.push(TokenKind::StrLit(value), start);
        Ok(())
    }

    fn symbol(&mut self, start: usize) -> Result<()> {
        use TokenKind::*;
        let c = self.bump().expect("caller checked peek");
        let kind = match c {
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'=' => Eq,
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b',' => Comma,
            b';' => Semicolon,
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Le
                }
                Some(b'>') => {
                    self.bump();
                    Ne
                }
                _ => Lt,
            },
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ge
                } else {
                    Gt
                }
            }
            b':' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Assign
                } else {
                    Colon
                }
            }
            b'.' => {
                if self.peek() == Some(b'.') {
                    self.bump();
                    DotDot
                } else {
                    Dot
                }
            }
            other => {
                return Err(self.err(format!("unrecognized character `{}`", other as char), start));
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src)
            .expect("tokenize")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_assignment() {
        assert_eq!(
            kinds("x := x + 1;"),
            vec![
                Ident("x".into()),
                Assign,
                Ident("x".into()),
                Plus,
                IntLit(1),
                Semicolon,
                Eof
            ]
        );
    }

    #[test]
    fn keywords_and_case() {
        assert_eq!(kinds("BEGIN End"), vec![Begin, End, Eof]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a { comment } b (* more *) c"),
            vec![Ident("a".into()), Ident("b".into()), Ident("c".into()), Eof]
        );
    }

    #[test]
    fn range_vs_real() {
        assert_eq!(kinds("1..10"), vec![IntLit(1), DotDot, IntLit(10), Eof]);
        assert_eq!(kinds("1.5"), vec![RealLit(1.5), Eof]);
        assert_eq!(kinds("2.5e2"), vec![RealLit(250.0), Eof]);
    }

    #[test]
    fn relational_operators() {
        assert_eq!(kinds("< <= <> > >= ="), vec![Lt, Le, Ne, Gt, Ge, Eq, Eof]);
    }

    #[test]
    fn string_with_escaped_quote() {
        assert_eq!(kinds("'it''s'"), vec![StrLit("it's".into()), Eof]);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(tokenize("a { never closed").is_err());
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn unrecognized_character_is_an_error() {
        let err = tokenize("a # b").unwrap_err();
        assert!(err.message.contains('#'));
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = tokenize("ab + cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }

    #[test]
    fn empty_input_yields_only_eof() {
        assert_eq!(kinds(""), vec![Eof]);
        assert_eq!(kinds("   {c} "), vec![Eof]);
    }
}
