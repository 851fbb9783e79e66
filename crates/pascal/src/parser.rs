//! Recursive-descent parser for the Pascal subset.
//!
//! Grammar highlights relevant to the paper:
//!
//! * labels may be unsigned integers (`label 9; … goto 9; … 9: …`) as in
//!   classic Pascal and in the paper's §6 transformation examples, or
//!   identifiers;
//! * parameter groups accept `var` plus the contextual modes `in`/`out`
//!   produced by the transformation phase;
//! * `read`/`readln`/`write`/`writeln` are recognized as statements;
//! * operator precedence follows classic Pascal (`and` multiplies, `or`
//!   adds, relations are lowest and non-associative).

use crate::ast::*;
use crate::error::{Diagnostic, Result, Stage};
use crate::lexer::tokenize;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a complete program from source text.
///
/// # Errors
///
/// Returns the first lexical or syntax error encountered.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "program t; var x: integer; begin x := 1 end.";
/// let prog = gadt_pascal::parser::parse_program(src)?;
/// assert_eq!(prog.name.name, "t");
/// # Ok(())
/// # }
/// ```
pub fn parse_program(source: &str) -> Result<Program> {
    let tokens = tokenize(source)?;
    let mut p = Parser::new(tokens);
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_stmt_id: u32,
    next_expr_id: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_stmt_id: 0,
            next_expr_id: 0,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// Consumes the current token. The parser never backtracks, so the
    /// token's kind is moved out rather than cloned; only the final
    /// end-of-input token, which stays current, is copied.
    fn bump(&mut self) -> Token {
        if self.pos + 1 < self.tokens.len() {
            let t = &mut self.tokens[self.pos];
            self.pos += 1;
            Token {
                kind: std::mem::replace(&mut t.kind, TokenKind::Eof),
                span: t.span,
            }
        } else {
            self.tokens[self.pos].clone()
        }
    }

    /// Consumes an identifier or string literal, moving its text out.
    fn bump_text(&mut self) -> (String, Span) {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(text) | TokenKind::StrLit(text) => (text, t.span),
            other => unreachable!("bump_text at {}", other.describe()),
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Stage::Parse, msg, self.span())
    }

    fn ident(&mut self) -> Result<Ident> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let (name, span) = self.bump_text();
                Ok(Ident::new(name, span))
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn stmt_id(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt_id);
        self.next_stmt_id += 1;
        id
    }

    fn expr_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr_id);
        self.next_expr_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Program structure
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let start = self.span();
        self.expect(&TokenKind::Program)?;
        let name = self.ident()?;
        // Optional file parameter list `(input, output)`.
        if self.eat(&TokenKind::LParen) {
            while !self.at(&TokenKind::RParen) {
                self.ident()?;
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semicolon)?;
        let block = self.block()?;
        self.expect(&TokenKind::Dot)?;
        let span = start.merge(self.prev_span());
        Ok(Program {
            name,
            block,
            span,
            next_stmt_id: self.next_stmt_id,
            next_expr_id: self.next_expr_id,
        })
    }

    fn block(&mut self) -> Result<Block> {
        let start = self.span();
        let mut block = Block::default();
        loop {
            match self.peek() {
                TokenKind::Label => {
                    self.bump();
                    loop {
                        block.labels.push(self.label_name()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::Semicolon)?;
                }
                TokenKind::Const => {
                    self.bump();
                    while matches!(self.peek(), TokenKind::Ident(_)) {
                        let name = self.ident()?;
                        self.expect(&TokenKind::Eq)?;
                        let value = self.const_value()?;
                        let span = name.span.merge(self.prev_span());
                        self.expect(&TokenKind::Semicolon)?;
                        block.consts.push(ConstDecl { name, value, span });
                    }
                }
                TokenKind::Type => {
                    self.bump();
                    while matches!(self.peek(), TokenKind::Ident(_)) {
                        let name = self.ident()?;
                        self.expect(&TokenKind::Eq)?;
                        let ty = self.type_expr()?;
                        let span = name.span.merge(self.prev_span());
                        self.expect(&TokenKind::Semicolon)?;
                        block.types.push(TypeDecl { name, ty, span });
                    }
                }
                TokenKind::Var => {
                    self.bump();
                    while matches!(self.peek(), TokenKind::Ident(_)) {
                        let mut names = vec![self.ident()?];
                        while self.eat(&TokenKind::Comma) {
                            names.push(self.ident()?);
                        }
                        self.expect(&TokenKind::Colon)?;
                        let ty = self.type_expr()?;
                        let span = names[0].span.merge(self.prev_span());
                        self.expect(&TokenKind::Semicolon)?;
                        block.vars.push(VarDecl { names, ty, span });
                    }
                }
                TokenKind::Procedure | TokenKind::Function => {
                    block.procs.push(self.proc_decl()?);
                }
                _ => break,
            }
        }
        self.expect(&TokenKind::Begin)?;
        block.body = self.stmt_list(&TokenKind::End)?;
        self.expect(&TokenKind::End)?;
        block.span = start.merge(self.prev_span());
        Ok(block)
    }

    fn label_name(&mut self) -> Result<Ident> {
        match self.peek() {
            &TokenKind::IntLit(n) => {
                let t = self.bump();
                Ok(Ident::new(n.to_string(), t.span))
            }
            TokenKind::Ident(_) => self.ident(),
            other => Err(self.err(format!("expected label, found {}", other.describe()))),
        }
    }

    fn const_value(&mut self) -> Result<ConstValue> {
        let neg = self.eat(&TokenKind::Minus);
        match self.peek() {
            &TokenKind::IntLit(n) => {
                self.bump();
                Ok(ConstValue::Int(if neg { -n } else { n }))
            }
            &TokenKind::RealLit(x) => {
                self.bump();
                Ok(ConstValue::Real(if neg { -x } else { x }))
            }
            TokenKind::True if !neg => {
                self.bump();
                Ok(ConstValue::Bool(true))
            }
            TokenKind::False if !neg => {
                self.bump();
                Ok(ConstValue::Bool(false))
            }
            TokenKind::StrLit(_) if !neg => Ok(ConstValue::Str(self.bump_text().0)),
            other => Err(self.err(format!(
                "expected constant value, found {}",
                other.describe()
            ))),
        }
    }

    fn type_expr(&mut self) -> Result<TypeExpr> {
        if self.at(&TokenKind::Array) {
            let start = self.span();
            self.bump();
            self.expect(&TokenKind::LBracket)?;
            let lo = self.array_bound()?;
            self.expect(&TokenKind::DotDot)?;
            let hi = self.array_bound()?;
            self.expect(&TokenKind::RBracket)?;
            self.expect(&TokenKind::Of)?;
            let elem = Box::new(self.type_expr()?);
            let span = start.merge(elem.span());
            Ok(TypeExpr::Array { lo, hi, elem, span })
        } else {
            Ok(TypeExpr::Named(self.ident()?))
        }
    }

    fn array_bound(&mut self) -> Result<ArrayBound> {
        let neg = self.eat(&TokenKind::Minus);
        match self.peek() {
            &TokenKind::IntLit(n) => {
                self.bump();
                Ok(ArrayBound::Lit(if neg { -n } else { n }))
            }
            TokenKind::Ident(_) if !neg => Ok(ArrayBound::Const(self.ident()?)),
            other => Err(self.err(format!("expected array bound, found {}", other.describe()))),
        }
    }

    fn proc_decl(&mut self) -> Result<ProcDecl> {
        let start = self.span();
        let is_function = self.at(&TokenKind::Function);
        self.bump();
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                params.push(self.param_group()?);
                if !self.eat(&TokenKind::Semicolon) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let return_type = if is_function {
            self.expect(&TokenKind::Colon)?;
            Some(self.type_expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semicolon)?;
        let block = self.block()?;
        self.expect(&TokenKind::Semicolon)?;
        let span = start.merge(self.prev_span());
        Ok(ProcDecl {
            name,
            params,
            return_type,
            block,
            span,
        })
    }

    fn param_group(&mut self) -> Result<ParamGroup> {
        let start = self.span();
        let mode = if self.eat(&TokenKind::Var) {
            ParamMode::Var
        } else if let TokenKind::Ident(word) = self.peek() {
            // `in` / `out` are contextual modes: they only count as a mode
            // when followed by another identifier (the first parameter name).
            let mode = if word.eq_ignore_ascii_case("in") {
                ParamMode::In
            } else if word.eq_ignore_ascii_case("out") {
                ParamMode::Out
            } else {
                ParamMode::Value
            };
            if mode != ParamMode::Value && matches!(self.peek2(), TokenKind::Ident(_)) {
                self.bump();
                mode
            } else {
                ParamMode::Value
            }
        } else {
            ParamMode::Value
        };
        let mut names = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.ident()?);
        }
        self.expect(&TokenKind::Colon)?;
        let ty = self.type_expr()?;
        let span = start.merge(ty.span());
        Ok(ParamGroup {
            mode,
            names,
            ty,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt_list(&mut self, terminator: &TokenKind) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        loop {
            if self.at(terminator) || self.at(&TokenKind::Until) {
                break;
            }
            stmts.push(self.statement()?);
            if !self.eat(&TokenKind::Semicolon) {
                break;
            }
        }
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt> {
        let start = self.span();
        // Labeled statement: `9:` or `name:` (but not `name :=`).
        let is_label = match self.peek() {
            TokenKind::IntLit(_) => self.peek2() == &TokenKind::Colon,
            TokenKind::Ident(_) => self.peek2() == &TokenKind::Colon,
            _ => false,
        };
        if is_label {
            let label = self.label_name()?;
            self.expect(&TokenKind::Colon)?;
            let stmt = Box::new(self.statement()?);
            let id = self.stmt_id();
            let span = start.merge(stmt.span);
            return Ok(Stmt {
                id,
                kind: StmtKind::Labeled { label, stmt },
                span,
            });
        }
        match self.peek() {
            TokenKind::Begin => {
                self.bump();
                let stmts = self.stmt_list(&TokenKind::End)?;
                self.expect(&TokenKind::End)?;
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Compound(stmts),
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Then)?;
                let then_branch = Box::new(self.statement()?);
                let else_branch = if self.eat(&TokenKind::Else) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    },
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Case => {
                self.bump();
                let scrutinee = self.expr()?;
                self.expect(&TokenKind::Of)?;
                let mut arms = Vec::new();
                let mut else_arm = None;
                loop {
                    if self.at(&TokenKind::End) {
                        break;
                    }
                    if self.eat(&TokenKind::Else) {
                        else_arm = Some(Box::new(self.statement()?));
                        let _ = self.eat(&TokenKind::Semicolon);
                        break;
                    }
                    let mut labels = vec![self.const_value()?];
                    while self.eat(&TokenKind::Comma) {
                        labels.push(self.const_value()?);
                    }
                    self.expect(&TokenKind::Colon)?;
                    let stmt = self.statement()?;
                    arms.push(CaseArm { labels, stmt });
                    // The semicolon between arms is optional before
                    // `else`/`end` (classic Pascal).
                    let _ = self.eat(&TokenKind::Semicolon);
                }
                self.expect(&TokenKind::End)?;
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Case {
                        scrutinee,
                        arms,
                        else_arm,
                    },
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Do)?;
                let body = Box::new(self.statement()?);
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::While { cond, body },
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Repeat => {
                self.bump();
                let body = self.stmt_list(&TokenKind::Until)?;
                self.expect(&TokenKind::Until)?;
                let cond = self.expr()?;
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Repeat { body, cond },
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::For => {
                self.bump();
                let var = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let from = self.expr()?;
                let dir = if self.eat(&TokenKind::To) {
                    ForDir::To
                } else if self.eat(&TokenKind::Downto) {
                    ForDir::Downto
                } else {
                    return Err(self.err(format!(
                        "expected `to` or `downto`, found {}",
                        self.peek().describe()
                    )));
                };
                let to = self.expr()?;
                self.expect(&TokenKind::Do)?;
                let body = Box::new(self.statement()?);
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::For {
                        var,
                        from,
                        dir,
                        to,
                        body,
                    },
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Goto => {
                self.bump();
                let label = self.label_name()?;
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Goto(label),
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Ident(name) if name.eq_ignore_ascii_case("read") => self.read_stmt(false),
            TokenKind::Ident(name) if name.eq_ignore_ascii_case("readln") => self.read_stmt(true),
            TokenKind::Ident(name) if name.eq_ignore_ascii_case("write") => self.write_stmt(false),
            TokenKind::Ident(name) if name.eq_ignore_ascii_case("writeln") => self.write_stmt(true),
            TokenKind::Ident(_) => self.assign_or_call(),
            // Empty statement (e.g. `begin ; end` or before `end`).
            TokenKind::Semicolon | TokenKind::End => {
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Empty,
                    span: Span::new(start.start, start.start),
                })
            }
            other => Err(self.err(format!("expected statement, found {}", other.describe()))),
        }
    }

    fn read_stmt(&mut self, newline: bool) -> Result<Stmt> {
        let start = self.span();
        self.bump(); // read / readln
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                args.push(self.lvalue()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let id = self.stmt_id();
        Ok(Stmt {
            id,
            kind: StmtKind::Read { args, newline },
            span: start.merge(self.prev_span()),
        })
    }

    fn write_stmt(&mut self, newline: bool) -> Result<Stmt> {
        let start = self.span();
        self.bump(); // write / writeln
        let mut args = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let id = self.stmt_id();
        Ok(Stmt {
            id,
            kind: StmtKind::Write { args, newline },
            span: start.merge(self.prev_span()),
        })
    }

    fn lvalue(&mut self) -> Result<LValue> {
        let base = self.ident()?;
        let start = base.span;
        let index = if self.eat(&TokenKind::LBracket) {
            let idx = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            Some(Box::new(idx))
        } else {
            None
        };
        let id = self.expr_id();
        Ok(LValue {
            id,
            base,
            index,
            span: start.merge(self.prev_span()),
        })
    }

    fn assign_or_call(&mut self) -> Result<Stmt> {
        let start = self.span();
        let name = self.ident()?;
        match self.peek() {
            TokenKind::Assign | TokenKind::LBracket => {
                let index = if self.eat(&TokenKind::LBracket) {
                    let idx = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    Some(Box::new(idx))
                } else {
                    None
                };
                let lspan = start.merge(self.prev_span());
                let lvalue_id = self.expr_id();
                self.expect(&TokenKind::Assign)?;
                let rhs = self.expr()?;
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Assign {
                        lhs: LValue {
                            id: lvalue_id,
                            base: name,
                            index,
                            span: lspan,
                        },
                        rhs,
                    },
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::LParen => {
                self.bump();
                let mut args = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen)?;
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Call { name, args },
                    span: start.merge(self.prev_span()),
                })
            }
            _ => {
                // Parameterless procedure call.
                let id = self.stmt_id();
                Ok(Stmt {
                    id,
                    kind: StmtKind::Call { name, args: vec![] },
                    span: start.merge(self.prev_span()),
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions (classic Pascal precedence)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        let lhs = self.simple_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.simple_expr()?;
        let span = lhs.span.merge(rhs.span);
        let id = self.expr_id();
        Ok(Expr {
            id,
            kind: ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        })
    }

    fn simple_expr(&mut self) -> Result<Expr> {
        let start = self.span();
        let mut lhs = if self.eat(&TokenKind::Minus) {
            let operand = self.term()?;
            let span = start.merge(operand.span);
            let id = self.expr_id();
            Expr {
                id,
                kind: ExprKind::Unary {
                    op: UnOp::Neg,
                    operand: Box::new(operand),
                },
                span,
            }
        } else {
            self.eat(&TokenKind::Plus);
            self.term()?
        };
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Or => BinOp::Or,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            let span = lhs.span.merge(rhs.span);
            let id = self.expr_id();
            lhs = Expr {
                id,
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::FDiv,
                TokenKind::Div => BinOp::Div,
                TokenKind::Mod => BinOp::Mod,
                TokenKind::And => BinOp::And,
                _ => break,
            };
            self.bump();
            let rhs = self.factor()?;
            let span = lhs.span.merge(rhs.span);
            let id = self.expr_id();
            lhs = Expr {
                id,
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr> {
        let start = self.span();
        match self.peek() {
            &TokenKind::IntLit(n) => {
                self.bump();
                let id = self.expr_id();
                Ok(Expr {
                    id,
                    kind: ExprKind::IntLit(n),
                    span: start,
                })
            }
            &TokenKind::RealLit(x) => {
                self.bump();
                let id = self.expr_id();
                Ok(Expr {
                    id,
                    kind: ExprKind::RealLit(x),
                    span: start,
                })
            }
            TokenKind::StrLit(_) => {
                let (s, _) = self.bump_text();
                let id = self.expr_id();
                Ok(Expr {
                    id,
                    kind: ExprKind::StrLit(s),
                    span: start,
                })
            }
            TokenKind::True | TokenKind::False => {
                let value = self.at(&TokenKind::True);
                self.bump();
                let id = self.expr_id();
                Ok(Expr {
                    id,
                    kind: ExprKind::BoolLit(value),
                    span: start,
                })
            }
            TokenKind::Not => {
                self.bump();
                let operand = self.factor()?;
                let span = start.merge(operand.span);
                let id = self.expr_id();
                Ok(Expr {
                    id,
                    kind: ExprKind::Unary {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    span,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                match self.peek() {
                    TokenKind::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if !self.at(&TokenKind::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                        let span = start.merge(self.prev_span());
                        let id = self.expr_id();
                        Ok(Expr {
                            id,
                            kind: ExprKind::Call { name, args },
                            span,
                        })
                    }
                    TokenKind::LBracket => {
                        self.bump();
                        let index = self.expr()?;
                        self.expect(&TokenKind::RBracket)?;
                        let span = start.merge(self.prev_span());
                        let id = self.expr_id();
                        Ok(Expr {
                            id,
                            kind: ExprKind::Index {
                                base: name,
                                index: Box::new(index),
                            },
                            span,
                        })
                    }
                    _ => {
                        let id = self.expr_id();
                        Ok(Expr {
                            id,
                            kind: ExprKind::Name(name),
                            span: start,
                        })
                    }
                }
            }
            other => Err(self.err(format!("expected expression, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"))
    }

    #[test]
    fn minimal_program() {
        let p = parse("program t; begin end.");
        assert_eq!(p.name.name, "t");
        assert!(p.block.body.is_empty());
    }

    #[test]
    fn program_with_file_params() {
        let p = parse("program t(input, output); begin end.");
        assert_eq!(p.name.name, "t");
    }

    #[test]
    fn declarations_all_sections() {
        let p = parse(
            "program t;
             label 9, done;
             const n = 10; pi = 3.14; neg = -2;
             type intarray = array[1..n] of integer;
             var x, y: integer; a: intarray;
             begin end.",
        );
        assert_eq!(p.block.labels.len(), 2);
        assert_eq!(p.block.consts.len(), 3);
        assert_eq!(p.block.consts[2].value, ConstValue::Int(-2));
        assert_eq!(p.block.types.len(), 1);
        assert_eq!(p.block.vars.len(), 2);
        assert_eq!(p.block.vars[0].names.len(), 2);
    }

    #[test]
    fn nested_procedures() {
        let p = parse(
            "program t;
             procedure p(a, c: integer; var b, d: integer);
               procedure q(a: integer; var b: integer);
               begin b := a end;
               procedure r(c: integer; var d: integer);
               begin d := c end;
             begin q(a, b); r(c, d) end;
             begin end.",
        );
        assert_eq!(p.block.procs.len(), 1);
        let outer = &p.block.procs[0];
        assert_eq!(outer.block.procs.len(), 2);
        assert_eq!(outer.params.len(), 2);
        assert_eq!(outer.params[0].mode, ParamMode::Value);
        assert_eq!(outer.params[1].mode, ParamMode::Var);
    }

    #[test]
    fn in_out_parameter_modes() {
        let p = parse(
            "program t;
             procedure p(var y: integer; in x: integer; out z: integer);
             begin y := x + 1; z := y - x end;
             begin end.",
        );
        let pr = &p.block.procs[0];
        assert_eq!(pr.params[0].mode, ParamMode::Var);
        assert_eq!(pr.params[1].mode, ParamMode::In);
        assert_eq!(pr.params[2].mode, ParamMode::Out);
    }

    #[test]
    fn in_as_plain_parameter_name_still_parses() {
        // `in` followed by `:` is a parameter named `in`.
        let p = parse("program t; procedure p(in: integer); begin end; begin end.");
        assert_eq!(p.block.procs[0].params[0].mode, ParamMode::Value);
        assert_eq!(p.block.procs[0].params[0].names[0].name, "in");
    }

    #[test]
    fn function_declaration() {
        let p = parse(
            "program t;
             function decrement(y: integer): integer;
             begin decrement := y - 1 end;
             begin end.",
        );
        let f = &p.block.procs[0];
        assert!(f.is_function());
    }

    #[test]
    fn statements_all_kinds() {
        let p = parse(
            "program t;
             label 9;
             var i, x: integer; a: array[1..10] of integer; ok: boolean;
             begin
               x := 0;
               a[1] := x + 1;
               if x = 0 then x := 1 else x := 2;
               while x < 10 do x := x + 1;
               repeat x := x - 1 until x = 0;
               for i := 1 to 10 do a[i] := i;
               for i := 10 downto 1 do a[i] := i;
               goto 9;
               9: x := 99;
               read(x);
               readln(x);
               write('x = ', x);
               writeln(x)
             end.",
        );
        assert_eq!(p.block.body.len(), 13);
        assert!(matches!(p.block.body[7].kind, StmtKind::Goto(_)));
        assert!(matches!(p.block.body[8].kind, StmtKind::Labeled { .. }));
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let p = parse("program t; var a, b, c, r: boolean; begin r := a or b and c end.");
        let StmtKind::Assign { rhs, .. } = &p.block.body[0].kind else {
            panic!()
        };
        let ExprKind::Binary { op, .. } = &rhs.kind else {
            panic!()
        };
        assert_eq!(*op, BinOp::Or);
    }

    #[test]
    fn precedence_relation_is_lowest() {
        let p = parse("program t; var r: boolean; x: integer; begin r := x + 1 = 2 * 3 end.");
        let StmtKind::Assign { rhs, .. } = &p.block.body[0].kind else {
            panic!()
        };
        let ExprKind::Binary { op, lhs, rhs: r } = &rhs.kind else {
            panic!()
        };
        assert_eq!(*op, BinOp::Eq);
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Add, .. }));
        assert!(matches!(r.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn unary_minus_and_not() {
        let p = parse("program t; var x: integer; b: boolean; begin x := -x; b := not b end.");
        assert!(matches!(
            &p.block.body[0].kind,
            StmtKind::Assign { rhs, .. } if matches!(rhs.kind, ExprKind::Unary { op: UnOp::Neg, .. })
        ));
    }

    #[test]
    fn call_statement_forms() {
        let p = parse(
            "program t;
             procedure p; begin end;
             procedure q(x: integer); begin end;
             begin p; q(1) end.",
        );
        assert!(matches!(&p.block.body[0].kind, StmtKind::Call { args, .. } if args.is_empty()));
        assert!(matches!(&p.block.body[1].kind, StmtKind::Call { args, .. } if args.len() == 1));
    }

    #[test]
    fn function_call_in_expression() {
        let p = parse(
            "program t;
             var s: integer;
             function inc(y: integer): integer; begin inc := y + 1 end;
             begin s := inc(3) * 2 end.",
        );
        let StmtKind::Assign { rhs, .. } = &p.block.body[0].kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn error_on_missing_semicolon_between_decl() {
        assert!(parse_program("program t var x: integer; begin end.").is_err());
    }

    #[test]
    fn error_message_mentions_expectation() {
        let e = parse_program("program t; begin x = 1 end.").unwrap_err();
        assert!(e.message.contains("expected"), "{}", e.message);
    }

    #[test]
    fn stmt_ids_are_unique() {
        let p = parse(
            "program t; var x: integer;
             begin x := 1; if x = 1 then x := 2 else x := 3; while x > 0 do x := x - 1 end.",
        );
        let mut ids = Vec::new();
        p.block.walk_stmts(&mut |s| ids.push(s.id));
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn paper_figure2_program_parses() {
        // The example program of Figure 2(a).
        let p = parse(
            "program p;
             var x, y, z, sum, mul: integer;
             begin
               read(x, y);
               mul := 0;
               sum := 0;
               if x <= 1 then
                 sum := x + y
               else begin
                 read(z);
                 mul := x * y;
               end;
             end.",
        );
        assert_eq!(p.block.body.len(), 4);
    }

    #[test]
    fn trailing_semicolon_inside_compound_is_ok() {
        let p = parse("program t; var x: integer; begin x := 1; end.");
        // Trailing `;` before `end` produces the assignment only (the empty
        // statement after it is materialized).
        assert!(p.block.body.len() <= 2);
    }
}
