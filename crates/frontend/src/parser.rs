//! Recursive-descent parser for the Grafter traversal language.

use crate::ast::*;
use crate::diag::{Diag, DiagnosticBag, Span, Stage};
use crate::hir::{BinOp, UnOp};
use crate::lexer::{lex, Token, TokenKind};

/// The deepest a construct may nest within a traversal body.
///
/// Every pass after the parser (sema, access analysis, lowering, the
/// interpreter, the C++ renderer and `Drop`) recurses once per level of the
/// tree it walks, so unbounded nesting overflows the thread stack and aborts
/// the process. Each enclosing `if`, parenthesis, unary operator, call and
/// cast counts one level, and so does each binary operator above a
/// subexpression: `1+1+…+1` builds a left-nested tree one level deeper per
/// operator although the parser never recurses on it. The cap is far
/// deeper than hand-written code and far below the nesting that overflows
/// an 8 MiB stack in a debug build.
pub const MAX_NESTING: usize = 256;

/// Parses source text into a surface AST.
///
/// # Errors
///
/// Returns all lexer diagnostics, or the first parse error encountered,
/// including nesting deeper than [`MAX_NESTING`].
pub fn parse(src: &str) -> Result<SurfaceProgram, DiagnosticBag> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.program().map_err(DiagnosticBag::from)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels enclosing the current position (see [`MAX_NESTING`]).
    depth: usize,
}

/// An expression and the number of levels below its root.
type Nested = (SurfaceExpr, usize);

type PResult<T> = Result<T, Diag>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> Diag {
        Diag::error(Stage::Parse, message, self.span())
    }

    /// Fails if a construct `height` levels tall, at the current depth,
    /// would nest deeper than [`MAX_NESTING`].
    fn check_nesting(&self, height: usize) -> PResult<()> {
        if self.depth + height > MAX_NESTING {
            return Err(self.error(format!("nesting exceeds the limit of {MAX_NESTING} levels")));
        }
        Ok(())
    }

    /// Parses `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.check_nesting(1)?;
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Span> {
        if *self.peek() == kind {
            let span = self.span();
            self.bump();
            Ok(span)
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(name) if name == kw)
    }

    fn is_kw_at(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_at(n), TokenKind::Ident(name) if name == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<Span> {
        if self.is_kw(kw) {
            let span = self.span();
            self.bump();
            Ok(span)
        } else {
            Err(self.error(format!("expected `{kw}`, found {}", self.peek().describe())))
        }
    }

    fn ident(&mut self) -> PResult<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.span();
                self.bump();
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ---- items -----------------------------------------------------------

    fn program(&mut self) -> PResult<SurfaceProgram> {
        let mut program = SurfaceProgram::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Ident(kw) => match kw.as_str() {
                    "tree" => program.classes.push(self.tree_class()?),
                    "struct" => program.structs.push(self.struct_def()?),
                    "pure" => program.pures.push(self.pure_decl()?),
                    "global" => program.globals.push(self.global_def()?),
                    other => {
                        return Err(self.error(format!(
                            "expected `tree`, `struct`, `pure` or `global` at top level, found `{other}`"
                        )))
                    }
                },
                other => {
                    return Err(self.error(format!(
                        "expected a top-level item, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(program)
    }

    fn tree_class(&mut self) -> PResult<TreeClass> {
        let start = self.expect_kw("tree")?;
        self.expect_kw("class")?;
        let (name, _) = self.ident()?;
        let mut supers = Vec::new();
        if self.eat(TokenKind::Colon) {
            loop {
                // Accept and ignore an optional C++-style `public`.
                self.eat_kw("public");
                let (sup, _) = self.ident()?;
                supers.push(sup);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::LBrace)?;
        let mut members = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            members.push(self.member()?);
        }
        Ok(TreeClass {
            name,
            supers,
            members,
            span: start.to(self.prev_span()),
        })
    }

    fn member(&mut self) -> PResult<Member> {
        if self.is_kw("child") {
            let start = self.span();
            self.bump();
            let (class, _) = self.ident()?;
            self.expect(TokenKind::Star)?;
            let (name, _) = self.ident()?;
            self.expect(TokenKind::Semi)?;
            return Ok(Member::Child {
                class,
                name,
                span: start.to(self.prev_span()),
            });
        }
        if self.is_kw("traversal") || (self.is_kw("virtual") && self.is_kw_at(1, "traversal")) {
            return Ok(Member::Traversal(self.traversal_def()?));
        }
        // Data field: `ty name [= literal];`
        let start = self.span();
        let ty = self.type_name()?;
        let (name, _) = self.ident()?;
        let default = if self.eat(TokenKind::Assign) {
            Some(self.literal()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(Member::Data {
            ty,
            name,
            default,
            span: start.to(self.prev_span()),
        })
    }

    fn traversal_def(&mut self) -> PResult<TraversalDef> {
        let start = self.span();
        let is_virtual = self.eat_kw("virtual");
        self.expect_kw("traversal")?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                let ty = self.type_name()?;
                let (pname, _) = self.ident()?;
                params.push((ty, pname));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        self.expect(TokenKind::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            body.push(self.stmt()?);
        }
        Ok(TraversalDef {
            name,
            is_virtual,
            params,
            body,
            span: start.to(self.prev_span()),
        })
    }

    fn struct_def(&mut self) -> PResult<StructDef> {
        let start = self.expect_kw("struct")?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut members = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            let ty = self.type_name()?;
            let (mname, _) = self.ident()?;
            self.expect(TokenKind::Semi)?;
            members.push((ty, mname));
        }
        Ok(StructDef {
            name,
            members,
            span: start.to(self.prev_span()),
        })
    }

    fn pure_decl(&mut self) -> PResult<PureDecl> {
        let start = self.expect_kw("pure")?;
        let return_type = self.type_name()?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                let ty = self.type_name()?;
                let (pname, _) = self.ident()?;
                params.push((ty, pname));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        self.expect(TokenKind::Semi)?;
        Ok(PureDecl {
            name,
            return_type,
            params,
            span: start.to(self.prev_span()),
        })
    }

    fn global_def(&mut self) -> PResult<GlobalDef> {
        let start = self.expect_kw("global")?;
        let ty = self.type_name()?;
        let (name, _) = self.ident()?;
        let default = if self.eat(TokenKind::Assign) {
            Some(self.literal()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(GlobalDef {
            ty,
            name,
            default,
            span: start.to(self.prev_span()),
        })
    }

    fn type_name(&mut self) -> PResult<TypeName> {
        let (name, _) = self.ident()?;
        Ok(match name.as_str() {
            "int" => TypeName::Int,
            "float" | "double" => TypeName::Float,
            "bool" => TypeName::Bool,
            _ => TypeName::Named(name),
        })
    }

    fn literal(&mut self) -> PResult<Literal> {
        let negative = self.eat(TokenKind::Minus);
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Literal::Int(if negative { -v } else { v }))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Literal::Float(if negative { -v } else { v }))
            }
            TokenKind::Ident(name) if name == "true" => {
                self.bump();
                Ok(Literal::Bool(true))
            }
            TokenKind::Ident(name) if name == "false" => {
                self.bump();
                Ok(Literal::Bool(false))
            }
            other => Err(self.error(format!("expected literal, found {}", other.describe()))),
        }
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self) -> PResult<SurfaceStmt> {
        let start = self.span();
        if self.is_kw("if") {
            return self.nested(Self::if_stmt);
        }
        if self.eat_kw("return") {
            self.expect(TokenKind::Semi)?;
            return Ok(SurfaceStmt::Return {
                span: start.to(self.prev_span()),
            });
        }
        if self.eat_kw("delete") {
            let target = self.path()?;
            self.expect(TokenKind::Semi)?;
            return Ok(SurfaceStmt::Delete {
                target,
                span: start.to(self.prev_span()),
            });
        }
        // Local definition: `int|float|bool name ...` or `Struct name ...`.
        if matches!(self.peek(), TokenKind::Ident(k) if k == "int" || k == "float" || k == "double" || k == "bool")
        {
            return self.local_def();
        }
        // Alias: `Class * const name = path;`
        if matches!(self.peek(), TokenKind::Ident(_))
            && *self.peek_at(1) == TokenKind::Star
            && self.is_kw_at(2, "const")
        {
            let (class, _) = self.ident()?;
            self.bump(); // *
            self.bump(); // const
            let (name, _) = self.ident()?;
            self.expect(TokenKind::Assign)?;
            let path = self.path()?;
            self.expect(TokenKind::Semi)?;
            return Ok(SurfaceStmt::AliasDef {
                class,
                name,
                path,
                span: start.to(self.prev_span()),
            });
        }
        // Struct-typed local: `Struct name ;` / `Struct name = expr ;`
        if matches!(self.peek(), TokenKind::Ident(k) if k != "this" && k != "static_cast")
            && matches!(self.peek_at(1), TokenKind::Ident(_))
        {
            return self.local_def();
        }
        // Pure call statement: `name(args);` (ident immediately followed by `(`).
        if matches!(self.peek(), TokenKind::Ident(k) if k != "this" && k != "static_cast")
            && *self.peek_at(1) == TokenKind::LParen
        {
            let (name, _) = self.ident()?;
            let (args, _) = self.call_args()?;
            self.expect(TokenKind::Semi)?;
            return Ok(SurfaceStmt::PureCall {
                name,
                args,
                span: start.to(self.prev_span()),
            });
        }
        // Otherwise: a path followed by `(` (traverse), `=` (assign/new).
        let path = self.path()?;
        if *self.peek() == TokenKind::LParen {
            // Traversing call: last arrow step is the method name.
            let mut receiver = path;
            if receiver.dots.is_empty() {
                let Some(last) = receiver.arrows.pop() else {
                    return Err(self.error("traversal call requires `->method(...)`"));
                };
                let (args, _) = self.call_args()?;
                self.expect(TokenKind::Semi)?;
                return Ok(SurfaceStmt::Traverse {
                    receiver,
                    method: last.name,
                    args,
                    span: start.to(self.prev_span()),
                });
            }
            return Err(self.error("method calls cannot follow `.` member accesses"));
        }
        self.expect(TokenKind::Assign)?;
        if self.is_kw("new") {
            self.bump();
            let (class, _) = self.ident()?;
            self.expect(TokenKind::LParen)?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(SurfaceStmt::New {
                target: path,
                class,
                span: start.to(self.prev_span()),
            });
        }
        let value = self.expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(SurfaceStmt::Assign {
            target: path,
            value,
            span: start.to(self.prev_span()),
        })
    }

    fn local_def(&mut self) -> PResult<SurfaceStmt> {
        let start = self.span();
        let ty = self.type_name()?;
        let (name, _) = self.ident()?;
        let init = if self.eat(TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(SurfaceStmt::LocalDef {
            ty,
            name,
            init,
            span: start.to(self.prev_span()),
        })
    }

    fn if_stmt(&mut self) -> PResult<SurfaceStmt> {
        let start = self.expect_kw("if")?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut then_branch = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            then_branch.push(self.stmt()?);
        }
        let mut else_branch = Vec::new();
        if self.eat_kw("else") {
            self.expect(TokenKind::LBrace)?;
            while !self.eat(TokenKind::RBrace) {
                else_branch.push(self.stmt()?);
            }
        }
        Ok(SurfaceStmt::If {
            cond,
            then_branch,
            else_branch,
            span: start.to(self.prev_span()),
        })
    }

    /// A parenthesised argument list, one level below the call, and the
    /// height of the call (one above its tallest argument).
    fn call_args(&mut self) -> PResult<(Vec<SurfaceExpr>, usize)> {
        self.nested(|p| {
            p.expect(TokenKind::LParen)?;
            let mut args = Vec::new();
            let mut height = 1;
            if !p.eat(TokenKind::RParen) {
                loop {
                    let (arg, h) = p.binary_expr(0)?;
                    args.push(arg);
                    height = height.max(h + 1);
                    if !p.eat(TokenKind::Comma) {
                        break;
                    }
                }
                p.expect(TokenKind::RParen)?;
            }
            Ok((args, height))
        })
    }

    // ---- paths -----------------------------------------------------------

    fn path(&mut self) -> PResult<SurfacePath> {
        let start = self.span();
        let base = if self.is_kw("this") {
            self.bump();
            PathBase::This
        } else if self.is_kw("static_cast") {
            self.bump();
            self.expect(TokenKind::Lt)?;
            let (class, _) = self.ident()?;
            self.expect(TokenKind::Star)?;
            self.expect(TokenKind::Gt)?;
            self.expect(TokenKind::LParen)?;
            let inner = self.nested(Self::path)?;
            self.expect(TokenKind::RParen)?;
            PathBase::Cast {
                class,
                inner: Box::new(inner),
            }
        } else {
            let (name, _) = self.ident()?;
            PathBase::Ident(name)
        };
        let mut arrows = Vec::new();
        while *self.peek() == TokenKind::Arrow {
            self.bump();
            let (name, _) = self.ident()?;
            arrows.push(ArrowStep { name });
        }
        let mut dots = Vec::new();
        while *self.peek() == TokenKind::Dot {
            self.bump();
            let (name, _) = self.ident()?;
            dots.push(name);
        }
        Ok(SurfacePath {
            base,
            arrows,
            dots,
            span: start.to(self.prev_span()),
        })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> PResult<SurfaceExpr> {
        Ok(self.binary_expr(0)?.0)
    }

    /// Parses a chain of left-associative binary operators binding at
    /// least as tightly as `min_prec` (precedence climbing).
    fn binary_expr(&mut self, min_prec: u8) -> PResult<Nested> {
        let (mut lhs, mut height) = self.unary_expr()?;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.binary_expr(prec + 1)?;
            height = height.max(rhs_height) + 1;
            self.check_nesting(height)?;
            let span = lhs.span().to(rhs.span());
            lhs = SurfaceExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> PResult<Nested> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.primary_expr(),
        };
        self.nested(|p| {
            p.bump();
            let (expr, height) = p.unary_expr()?;
            let span = start.to(expr.span());
            let unary = SurfaceExpr::Unary {
                op,
                expr: Box::new(expr),
                span,
            };
            Ok((unary, height + 1))
        })
    }

    fn primary_expr(&mut self) -> PResult<Nested> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok((SurfaceExpr::Literal(Literal::Int(v), start), 0))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok((SurfaceExpr::Literal(Literal::Float(v), start), 0))
            }
            TokenKind::LParen => self.nested(|p| {
                p.bump();
                let (inner, height) = p.binary_expr(0)?;
                p.expect(TokenKind::RParen)?;
                Ok((inner, height + 1))
            }),
            TokenKind::Ident(name) => {
                if name == "true" || name == "false" {
                    self.bump();
                    let literal = Literal::Bool(name == "true");
                    return Ok((SurfaceExpr::Literal(literal, start), 0));
                }
                // Pure call in expression position: `name(args)`.
                if name != "this" && name != "static_cast" && *self.peek_at(1) == TokenKind::LParen
                {
                    self.bump();
                    let (args, height) = self.call_args()?;
                    let call = SurfaceExpr::Call {
                        name,
                        args,
                        span: start.to(self.prev_span()),
                    };
                    return Ok((call, height));
                }
                let path = self.path()?;
                let mut height = 0;
                let mut base = &path.base;
                while let PathBase::Cast { inner, .. } = base {
                    height += 1;
                    base = &inner.base;
                }
                Ok((SurfaceExpr::Path(path), height))
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }
}

/// The binary operator a token denotes and its precedence, tightest
/// highest: `||`, `&&`, equality, relational, additive, multiplicative.
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::EqEq => (BinOp::Eq, 2),
        TokenKind::NotEq => (BinOp::Ne, 2),
        TokenKind::Lt => (BinOp::Lt, 3),
        TokenKind::Le => (BinOp::Le, 3),
        TokenKind::Gt => (BinOp::Gt, 3),
        TokenKind::Ge => (BinOp::Ge, 3),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Rem, 5),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> SurfaceProgram {
        match parse(src) {
            Ok(p) => p,
            Err(errs) => panic!("parse failed: {}", errs[0].render(src)),
        }
    }

    #[test]
    fn parses_figure2_style_program() {
        let src = r#"
            global int CHAR_WIDTH = 8;
            struct String { int Length; }
            tree class Element {
                child Element* Next;
                int Height = 0; int Width = 0;
                int MaxHeight = 0; int TotalWidth = 0;
                virtual traversal computeWidth() {}
                virtual traversal computeHeight() {}
            }
            tree class TextBox : public Element {
                String Text;
                traversal computeWidth() {
                    this->Next->computeWidth();
                    this.Width = this.Text.Length;
                    this.TotalWidth = this->Next.Width + this.Width;
                }
                traversal computeHeight() {
                    this->Next->computeHeight();
                    this.Height = this.Text.Length * (this.Width / CHAR_WIDTH) + 1;
                    this.MaxHeight = this.Height;
                    if (this->Next.Height > this.Height) {
                        this.MaxHeight = this->Next.Height;
                    }
                }
            }
            tree class End : public Element { }
        "#;
        let p = parse_ok(src);
        assert_eq!(p.classes.len(), 3);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.classes[0].members.len(), 7);
        assert_eq!(p.classes[1].supers, vec!["Element".to_string()]);
    }

    #[test]
    fn parses_alias_new_delete() {
        let src = r#"
            tree class N {
                child N* left;
                child N* right;
                int v = 0;
                traversal go() {
                    N* const l = this->left;
                    l->right->go();
                    this->left = new N();
                    delete this->right;
                }
            }
        "#;
        let p = parse_ok(src);
        let Member::Traversal(t) = &p.classes[0].members[3] else {
            panic!("expected traversal");
        };
        assert_eq!(t.body.len(), 4);
        assert!(matches!(t.body[0], SurfaceStmt::AliasDef { .. }));
        assert!(matches!(t.body[1], SurfaceStmt::Traverse { .. }));
        assert!(matches!(t.body[2], SurfaceStmt::New { .. }));
        assert!(matches!(t.body[3], SurfaceStmt::Delete { .. }));
    }

    #[test]
    fn parses_static_cast_path() {
        let src = r#"
            tree class A {
                child A* c;
                int x = 0;
                traversal f() {
                    this.x = static_cast<A*>(this->c).x;
                }
            }
        "#;
        let p = parse_ok(src);
        let Member::Traversal(t) = &p.classes[0].members[2] else {
            panic!("expected traversal");
        };
        let SurfaceStmt::Assign { value, .. } = &t.body[0] else {
            panic!("expected assignment");
        };
        let SurfaceExpr::Path(path) = value else {
            panic!("expected path read");
        };
        assert!(matches!(path.base, PathBase::Cast { .. }));
    }

    #[test]
    fn parses_pure_calls_and_locals() {
        let src = r#"
            pure float sqrtf(float x);
            tree class A {
                int x = 0;
                traversal f(int p) {
                    float t = sqrtf(3.5);
                    int u = p + 1;
                    this.x = u * 2;
                    logIt(t);
                }
            }
            pure bool logIt(float v);
        "#;
        let p = parse_ok(src);
        assert_eq!(p.pures.len(), 2);
        let Member::Traversal(t) = &p.classes[0].members[1] else {
            panic!("expected traversal");
        };
        assert_eq!(t.params.len(), 1);
        assert!(matches!(t.body[3], SurfaceStmt::PureCall { .. }));
    }

    #[test]
    fn precedence_is_sane() {
        let src = r#"
            tree class A {
                int x = 0;
                bool b = false;
                traversal f() {
                    this.b = 1 + 2 * 3 == 7 && !(4 > 5);
                }
            }
        "#;
        let p = parse_ok(src);
        let Member::Traversal(t) = &p.classes[0].members[2] else {
            panic!();
        };
        let SurfaceStmt::Assign { value, .. } = &t.body[0] else {
            panic!();
        };
        let SurfaceExpr::Binary { op: BinOp::And, .. } = value else {
            panic!("expected && at top: {value:?}");
        };
    }

    #[test]
    fn rejects_call_after_dot() {
        let err = parse("tree class A { int x = 0; traversal f() { this.x(); } }").unwrap_err();
        assert!(err[0].message.contains("member accesses"), "{err:?}");
    }

    #[test]
    fn rejects_unknown_top_level() {
        let err = parse("fn whatever() {}").unwrap_err();
        assert!(err[0].message.contains("top level"));
    }

    #[test]
    fn empty_traversal_body_allowed() {
        let p = parse_ok("tree class A { virtual traversal f() {} }");
        assert_eq!(p.classes.len(), 1);
    }

    /// Parses a program whose traversal body is `body`, on a thread with
    /// room for a debug build's parser frames at the cap (up to 16 KiB per
    /// level, more than the default 2 MiB test thread holds at 256 levels).
    fn parse_traversal(body: &str) -> Result<SurfaceProgram, DiagnosticBag> {
        let src = format!("tree class A {{ int x = 0; traversal f() {{ {body} }} }}");
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(move || parse(&src))
            .unwrap()
            .join()
            .unwrap()
    }

    fn parens(levels: usize, inner: &str) -> String {
        format!("{}{inner}{}", "(".repeat(levels), ")".repeat(levels))
    }

    fn chain(terms: usize) -> String {
        vec!["1"; terms].join(" + ")
    }

    fn ifs(levels: usize, inner: &str) -> String {
        format!(
            "{}{inner}{}",
            "if (true) { ".repeat(levels),
            " }".repeat(levels)
        )
    }

    #[test]
    fn nesting_is_capped_at_max_nesting() {
        let n = MAX_NESTING;
        let cast = |levels: usize| {
            format!(
                "x = {}this{}.x;",
                "static_cast<A*>(".repeat(levels),
                ")".repeat(levels)
            )
        };
        // (deepest accepted, shallowest rejected) pairs, one per shape.
        let cases = [
            (
                format!("x = {};", parens(n, "1")),
                format!("x = {};", parens(n + 1, "1")),
            ),
            (
                format!("x = {};", chain(n + 1)),
                format!("x = {};", chain(n + 2)),
            ),
            (
                format!("x = {}1;", "-".repeat(n)),
                format!("x = {}1;", "-".repeat(n + 1)),
            ),
            (
                format!("x = {}1{};", "f(".repeat(n), ")".repeat(n)),
                format!("x = {}1{};", "f(".repeat(n + 1), ")".repeat(n + 1)),
            ),
            (ifs(n, "x = 1;"), ifs(n + 1, "x = 1;")),
            (cast(n), cast(n + 1)),
            // Levels add up across shapes: 100 ifs, 100 parentheses and a
            // chain of 56 operators is exactly the cap.
            (
                ifs(100, &format!("x = {};", parens(100, &chain(57)))),
                ifs(100, &format!("x = {};", parens(100, &chain(58)))),
            ),
        ];
        for (deepest, too_deep) in &cases {
            if let Err(err) = parse_traversal(deepest) {
                panic!("{deepest}: {err:?}");
            }
            let err = parse_traversal(too_deep).unwrap_err();
            assert_eq!(err[0].stage, Stage::Parse, "{err:?}");
            assert!(err[0].message.contains("nesting"), "{err:?}");
        }
    }
}
