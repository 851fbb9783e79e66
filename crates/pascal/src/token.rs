//! Token definitions for the Pascal subset.

use crate::name::Name;
use crate::span::Span;
use std::fmt;

/// A lexical token: a kind plus the source span it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it appeared.
    pub span: Span,
}

/// The kinds of token produced by the lexer.
///
/// Keywords are case-insensitive in Pascal; the lexer normalizes them.
/// Identifiers preserve their original spelling but compare
/// case-insensitively during name resolution.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // keyword/punctuation variants are self-describing
pub enum TokenKind {
    // Literals and identifiers
    /// An identifier such as `arrsum`.
    Ident(Name),
    /// An unsigned integer literal.
    IntLit(i64),
    /// An unsigned real literal.
    RealLit(f64),
    /// A quoted string literal; single-character strings double as chars.
    StrLit(String),

    // Keywords
    Program,
    Label,
    Const,
    Type,
    Var,
    Procedure,
    Function,
    Begin,
    Case,
    End,
    If,
    Then,
    Else,
    While,
    Do,
    Repeat,
    Until,
    For,
    To,
    Downto,
    Goto,
    Of,
    Array,
    Div,
    Mod,
    And,
    Or,
    Not,
    True,
    False,

    // Punctuation and operators
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Assign,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Colon,
    Dot,
    DotDot,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword kind for `ident` if it is a reserved word.
    pub fn keyword(ident: &str) -> Option<TokenKind> {
        use TokenKind::*;
        // Lowercase into a stack buffer as long as the longest keyword,
        // `procedure`: anything longer is no keyword.
        let mut buf = [0u8; 9];
        let lower = buf.get_mut(..ident.len())?;
        for (l, b) in lower.iter_mut().zip(ident.bytes()) {
            *l = b.to_ascii_lowercase();
        }
        Some(match &*lower {
            b"program" => Program,
            b"label" => Label,
            b"const" => Const,
            b"type" => Type,
            b"var" => Var,
            b"procedure" => Procedure,
            b"function" => Function,
            b"begin" => Begin,
            b"case" => Case,
            b"end" => End,
            b"if" => If,
            b"then" => Then,
            b"else" => Else,
            b"while" => While,
            b"do" => Do,
            b"repeat" => Repeat,
            b"until" => Until,
            b"for" => For,
            b"to" => To,
            b"downto" => Downto,
            b"goto" => Goto,
            b"of" => Of,
            b"array" => Array,
            b"div" => Div,
            b"mod" => Mod,
            b"and" => And,
            b"or" => Or,
            b"not" => Not,
            b"true" => True,
            b"false" => False,
            _ => return None,
        })
    }

    /// A short human-readable description, used in parse errors.
    pub fn describe(&self) -> String {
        use TokenKind::*;
        match self {
            Ident(s) => format!("identifier `{s}`"),
            IntLit(n) => format!("integer literal `{n}`"),
            RealLit(x) => format!("real literal `{x}`"),
            StrLit(s) => format!("string literal '{s}'"),
            Eof => "end of input".to_string(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        use TokenKind::*;
        match self {
            Program => "program",
            Label => "label",
            Const => "const",
            Type => "type",
            Var => "var",
            Procedure => "procedure",
            Function => "function",
            Begin => "begin",
            Case => "case",
            End => "end",
            If => "if",
            Then => "then",
            Else => "else",
            While => "while",
            Do => "do",
            Repeat => "repeat",
            Until => "until",
            For => "for",
            To => "to",
            Downto => "downto",
            Goto => "goto",
            Of => "of",
            Array => "array",
            Div => "div",
            Mod => "mod",
            And => "and",
            Or => "or",
            Not => "not",
            True => "true",
            False => "false",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Eq => "=",
            Ne => "<>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Assign => ":=",
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            Comma => ",",
            Semicolon => ";",
            Colon => ":",
            Dot => ".",
            DotDot => "..",
            Ident(_) | IntLit(_) | RealLit(_) | StrLit(_) | Eof => unreachable!(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(TokenKind::keyword("BEGIN"), Some(TokenKind::Begin));
        assert_eq!(TokenKind::keyword("Begin"), Some(TokenKind::Begin));
        assert_eq!(TokenKind::keyword("begin"), Some(TokenKind::Begin));
        assert_eq!(TokenKind::keyword("beginx"), None);
        assert_eq!(TokenKind::keyword("PROCEDURE"), Some(TokenKind::Procedure));
        assert_eq!(TokenKind::keyword("procedures"), None);
        assert_eq!(TokenKind::keyword(""), None);
        assert_eq!(TokenKind::keyword("bégin"), None);
    }

    #[test]
    fn describe_is_never_empty() {
        for kind in [
            TokenKind::Ident("x".into()),
            TokenKind::IntLit(3),
            TokenKind::Assign,
            TokenKind::Eof,
        ] {
            assert!(!kind.describe().is_empty());
        }
    }
}
