//! Lexical analysis for MJ.

use crate::error::{FrontendError, Pos};
use std::fmt;

/// A lexical token. Tokens are `Copy`: an identifier is the [`Span`] of
/// its text in the source, not an owned string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token {
    /// Integer literal.
    Int(i64),
    /// Identifier.
    Ident(Span),
    /// A keyword (`fn`, `let`, `if`, ...).
    Keyword(Keyword),
    /// A punctuation or operator symbol.
    Sym(Sym),
    /// End of input.
    Eof,
}

/// A byte range of the source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// Offset of the first byte.
    pub start: u32,
    /// Offset one past the last byte.
    pub end: u32,
}

impl Span {
    /// The spanned text of `src`.
    pub fn text(self, src: &str) -> &str {
        &src[self.start as usize..self.end as usize]
    }
}

/// MJ keywords.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Keyword {
    Fn,
    Let,
    If,
    Else,
    While,
    For,
    Return,
    Break,
    Continue,
    Print,
    New,
    True,
    False,
    Int,
    Bool,
    Length,
}

/// Operator and punctuation symbols.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Sym {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Dot,
    Arrow,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
}

impl Token {
    /// Displays the token as diagnostics quote it; identifiers resolve
    /// against `src`, the text the token was lexed from.
    pub fn display(self, src: &str) -> impl fmt::Display + '_ {
        Shown(self, src)
    }
}

struct Shown<'a>(Token, &'a str);

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Token::Int(i) => write!(f, "{i}"),
            Token::Ident(span) => f.write_str(span.text(self.1)),
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Sym(s) => write!(f, "{s:?}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Where it starts.
    pub pos: Pos,
}

/// Tokenizes MJ source text.
///
/// # Errors
///
/// Returns [`FrontendError::Lex`] on unknown characters or malformed
/// literals.
pub fn lex(src: &str) -> Result<Vec<Spanned>, FrontendError> {
    // About one token per four bytes of typical source.
    let mut out = Vec::with_capacity(src.len() / 4 + 1);
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let pos = Pos { line, col };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(FrontendError::Lex {
                            pos,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
                let text = &src[start..i];
                let value = text.parse::<i64>().map_err(|_| FrontendError::Lex {
                    pos,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                out.push(Spanned {
                    token: Token::Int(value),
                    pos,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    bump!();
                }
                let text = &src[start..i];
                let token = match text {
                    "fn" => Token::Keyword(Keyword::Fn),
                    "let" => Token::Keyword(Keyword::Let),
                    "if" => Token::Keyword(Keyword::If),
                    "else" => Token::Keyword(Keyword::Else),
                    "while" => Token::Keyword(Keyword::While),
                    "for" => Token::Keyword(Keyword::For),
                    "return" => Token::Keyword(Keyword::Return),
                    "break" => Token::Keyword(Keyword::Break),
                    "continue" => Token::Keyword(Keyword::Continue),
                    "print" => Token::Keyword(Keyword::Print),
                    "new" => Token::Keyword(Keyword::New),
                    "true" => Token::Keyword(Keyword::True),
                    "false" => Token::Keyword(Keyword::False),
                    "int" => Token::Keyword(Keyword::Int),
                    "bool" => Token::Keyword(Keyword::Bool),
                    "length" => Token::Keyword(Keyword::Length),
                    _ => Token::Ident(Span {
                        start: start as u32,
                        end: i as u32,
                    }),
                };
                out.push(Spanned { token, pos });
            }
            _ => {
                // Bytes, not `str` slices: `i + 2` need not be a character
                // boundary.
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                let (sym, width) = match (bytes[i], next) {
                    (b'-', b'>') => (Sym::Arrow, 2),
                    (b'<', b'=') => (Sym::Le, 2),
                    (b'>', b'=') => (Sym::Ge, 2),
                    (b'=', b'=') => (Sym::EqEq, 2),
                    (b'!', b'=') => (Sym::Ne, 2),
                    (b'&', b'&') => (Sym::AndAnd, 2),
                    (b'|', b'|') => (Sym::OrOr, 2),
                    (b'<', b'<') => (Sym::Shl, 2),
                    (b'>', b'>') => (Sym::Shr, 2),
                    _ => {
                        let sym = match c {
                            '(' => Sym::LParen,
                            ')' => Sym::RParen,
                            '{' => Sym::LBrace,
                            '}' => Sym::RBrace,
                            '[' => Sym::LBracket,
                            ']' => Sym::RBracket,
                            ',' => Sym::Comma,
                            ';' => Sym::Semi,
                            ':' => Sym::Colon,
                            '.' => Sym::Dot,
                            '=' => Sym::Assign,
                            '+' => Sym::Plus,
                            '-' => Sym::Minus,
                            '*' => Sym::Star,
                            '/' => Sym::Slash,
                            '%' => Sym::Percent,
                            '!' => Sym::Bang,
                            '<' => Sym::Lt,
                            '>' => Sym::Gt,
                            '&' => Sym::Amp,
                            '|' => Sym::Pipe,
                            '^' => Sym::Caret,
                            _ => {
                                // Decode the whole character: a non-ASCII
                                // byte is only the start of one.
                                let other = src[i..].chars().next().unwrap_or(c);
                                return Err(FrontendError::Lex {
                                    pos,
                                    message: format!("unexpected character `{other}`"),
                                });
                            }
                        };
                        (sym, 1)
                    }
                };
                for _ in 0..width {
                    bump!();
                }
                out.push(Spanned {
                    token: Token::Sym(sym),
                    pos,
                });
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_signature() {
        assert_eq!(
            toks("fn f(a: int[]) -> int {"),
            vec![
                Token::Keyword(Keyword::Fn),
                Token::Ident(Span { start: 3, end: 4 }),
                Token::Sym(Sym::LParen),
                Token::Ident(Span { start: 5, end: 6 }),
                Token::Sym(Sym::Colon),
                Token::Keyword(Keyword::Int),
                Token::Sym(Sym::LBracket),
                Token::Sym(Sym::RBracket),
                Token::Sym(Sym::RParen),
                Token::Sym(Sym::Arrow),
                Token::Keyword(Keyword::Int),
                Token::Sym(Sym::LBrace),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(
            toks("<= < == = != ! >> >"),
            vec![
                Token::Sym(Sym::Le),
                Token::Sym(Sym::Lt),
                Token::Sym(Sym::EqEq),
                Token::Sym(Sym::Assign),
                Token::Sym(Sym::Ne),
                Token::Sym(Sym::Bang),
                Token::Sym(Sym::Shr),
                Token::Sym(Sym::Gt),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("1 // line\n/* block\n */ 2"),
            vec![Token::Int(1), Token::Int(2), Token::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let s = lex("a\n  b").unwrap();
        assert_eq!(s[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(s[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unknown_char_is_reported() {
        assert!(matches!(lex("#"), Err(FrontendError::Lex { .. })));
        // A three-byte character right before the end: no slicing inside it.
        let err = lex("x €").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lex error at 1:3: unexpected character `€`"
        );
    }

    #[test]
    fn identifiers_display_through_the_source() {
        let src = "let total";
        let s = lex(src).unwrap();
        assert_eq!(s[1].token.display(src).to_string(), "total");
        assert_eq!(s[0].token.display(src).to_string(), "Let");
        assert_eq!(s[2].token.display(src).to_string(), "<eof>");
    }

    #[test]
    fn huge_literal_is_rejected() {
        assert!(matches!(
            lex("99999999999999999999999"),
            Err(FrontendError::Lex { .. })
        ));
    }
}
