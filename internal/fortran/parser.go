package fortran

import (
	"fmt"
	"strconv"
)

// Parse parses a complete program unit from source text.
func Parse(src string) (*Program, error) {
	toks, err := Tokens(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, params: map[string]*ParamDecl{}}
	return p.parseProgram()
}

type parser struct {
	toks   []Token
	pos    int
	prog   *Program
	params map[string]*ParamDecl
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) skipNewlines() {
	for p.cur().Kind == TokNewline {
		p.pos++
	}
}

// atEndOfStmt reports whether the current token terminates a statement.
func (p *parser) atEndOfStmt() bool {
	k := p.cur().Kind
	return k == TokNewline || k == TokEOF
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.cur().Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind TokenKind) (Token, error) {
	if p.cur().Kind != kind {
		return Token{}, p.errf("expected %s, found %s", kind, p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(word string) error {
	if p.cur().Kind != TokKeyword || p.cur().Text != word {
		return p.errf("expected %s, found %s", word, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) endStatement() error {
	if !p.atEndOfStmt() {
		return p.errf("unexpected %s at end of statement", p.cur())
	}
	if p.cur().Kind == TokNewline {
		p.next()
	}
	return nil
}

func (p *parser) parseProgram() (*Program, error) {
	p.prog = &Program{Name: "MAIN"}
	p.skipNewlines()

	// Optional PROGRAM name.
	if p.cur().Kind == TokKeyword && p.cur().Text == "PROGRAM" {
		p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		p.prog.Name = name.Text
		if err := p.endStatement(); err != nil {
			return nil, err
		}
	}

	// Declarations: DIMENSION, REAL/INTEGER with dims, PARAMETER.
	for {
		p.skipNewlines()
		t := p.cur()
		if t.Kind != TokKeyword {
			break
		}
		switch t.Text {
		case "DIMENSION", "REAL", "INTEGER":
			p.next()
			if err := p.parseDeclList(t.Line); err != nil {
				return nil, err
			}
		case "PARAMETER":
			p.next()
			if err := p.parseParameter(t.Line); err != nil {
				return nil, err
			}
		default:
			goto body
		}
		if err := p.endStatement(); err != nil {
			return nil, err
		}
	}

body:
	stmts, err := p.parseStmts(stopAtEnd)
	if err != nil {
		return nil, err
	}
	p.prog.Body = stmts
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// parseDeclList parses "A(100,100), V(500), X" after DIMENSION/REAL/INTEGER.
// Undimensioned names in type statements are scalars and are ignored (the
// subset types scalars implicitly).
func (p *parser) parseDeclList(line int) error {
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if p.cur().Kind == TokLParen {
			p.next()
			var dims []int
			for {
				d, err := p.parseConstInt()
				if err != nil {
					return err
				}
				if d <= 0 {
					return &ParseError{Line: line, Msg: fmt.Sprintf("array %s: dimension must be positive, got %d", name.Text, d)}
				}
				dims = append(dims, d)
				if p.cur().Kind != TokComma {
					break
				}
				p.next()
			}
			if _, err := p.expect(TokRParen); err != nil {
				return err
			}
			if len(dims) > 2 {
				return &ParseError{Line: line, Msg: fmt.Sprintf("array %s: only up to two dimensions are supported (got %d)", name.Text, len(dims))}
			}
			if p.prog.Array(name.Text) != nil {
				return &ParseError{Line: line, Msg: fmt.Sprintf("array %s declared twice", name.Text)}
			}
			p.prog.Arrays = append(p.prog.Arrays, &ArrayDecl{Name: name.Text, Dims: dims, Line: line})
		}
		if p.cur().Kind != TokComma {
			return nil
		}
		p.next()
	}
}

// parseParameter parses "PARAMETER (N = 100, EPS = 1.0E-6)".
func (p *parser) parseParameter(line int) error {
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return err
		}
		neg := false
		if p.cur().Kind == TokMinus {
			neg = true
			p.next()
		}
		t := p.cur()
		var decl *ParamDecl
		switch t.Kind {
		case TokInt:
			v, _ := strconv.ParseFloat(t.Text, 64)
			decl = &ParamDecl{Name: name.Text, Value: v, IsInt: true, Line: line}
		case TokReal:
			v, _ := strconv.ParseFloat(t.Text, 64)
			decl = &ParamDecl{Name: name.Text, Value: v, Line: line}
		default:
			return p.errf("PARAMETER value must be a literal, found %s", t)
		}
		p.next()
		if neg {
			decl.Value = -decl.Value
		}
		p.prog.Params = append(p.prog.Params, decl)
		p.params[decl.Name] = decl
		if p.cur().Kind != TokComma {
			break
		}
		p.next()
	}
	_, err := p.expect(TokRParen)
	return err
}

// parseConstInt parses an integer literal or integer PARAMETER name.
func (p *parser) parseConstInt() (int, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return 0, p.errf("bad integer %q", t.Text)
		}
		return v, nil
	case TokIdent:
		if d, ok := p.params[t.Text]; ok && d.IsInt {
			p.next()
			return int(d.Value), nil
		}
	}
	return 0, p.errf("expected integer constant, found %s", t)
}

// stop predicates for statement-list parsing.
type stopFunc func(p *parser) bool

func stopAtEnd(p *parser) bool {
	t := p.cur()
	return t.Kind == TokEOF || (t.Kind == TokKeyword && t.Text == "END")
}

func stopAtEndDo(p *parser) bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	if t.Text == "ENDDO" {
		return true
	}
	// "END DO" splits into END + DO keywords on one line.
	if t.Text == "END" && p.pos+1 < len(p.toks) {
		n := p.toks[p.pos+1]
		return n.Kind == TokKeyword && n.Text == "DO"
	}
	return false
}

func stopAtLabel(label string) stopFunc {
	return func(p *parser) bool {
		t := p.cur()
		return t.Kind == TokLabel && t.Text == label
	}
}

func stopAtElseOrEndif(p *parser) bool {
	t := p.cur()
	return t.Kind == TokKeyword && (t.Text == "ELSE" || t.Text == "ELSEIF" || t.Text == "ENDIF")
}

// parseStmts parses statements until the stop predicate matches (the
// stopping token is not consumed).
func (p *parser) parseStmts(stop stopFunc) ([]Stmt, error) {
	var stmts []Stmt
	for {
		p.skipNewlines()
		if stop(p) {
			return stmts, nil
		}
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected end of input")
		}
		s, err := p.parseStmt(stop)
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
	}
}

// parseStmt parses one statement. It may return a nil statement for
// labeled CONTINUEs consumed as loop terminators (handled by the DO logic).
func (p *parser) parseStmt(stop stopFunc) (Stmt, error) {
	// Optional statement label on a plain statement (e.g. "5 X = 1.0").
	if p.cur().Kind == TokLabel {
		// Labels are only meaningful as DO terminators, which parseDo
		// consumes itself; a label reaching here is attached to an ordinary
		// statement and is ignored.
		p.next()
	}
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "DO":
		return p.parseDo()
	case t.Kind == TokKeyword && t.Text == "IF":
		return p.parseIf()
	case t.Kind == TokKeyword && t.Text == "CONTINUE":
		p.next()
		if err := p.endStatement(); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line}, nil
	case t.Kind == TokKeyword && t.Text == "EXIT":
		p.next()
		if err := p.endStatement(); err != nil {
			return nil, err
		}
		return &ExitStmt{Line: t.Line}, nil
	case t.Kind == TokKeyword && t.Text == "CYCLE":
		p.next()
		if err := p.endStatement(); err != nil {
			return nil, err
		}
		return &CycleStmt{Line: t.Line}, nil
	case t.Kind == TokIdent:
		return p.parseAssign()
	}
	return nil, p.errf("unexpected %s at start of statement", t)
}

func (p *parser) parseDo() (Stmt, error) {
	doTok := p.next() // DO
	label := ""
	if p.cur().Kind == TokLabel || p.cur().Kind == TokInt {
		label = p.next().Text
	}
	varTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.cur().Kind == TokComma {
		p.next()
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.endStatement(); err != nil {
		return nil, err
	}

	do := &DoStmt{Label: label, Var: varTok.Text, From: from, To: to, Step: step, Line: doTok.Line}
	if label != "" {
		body, err := p.parseStmts(stopAtLabel(label))
		if err != nil {
			return nil, err
		}
		do.Body = body
		p.next() // the label token
		// The labeled terminator must be CONTINUE (shared terminators for
		// multiple loops are not supported; each loop has its own label).
		if err := p.expectKeyword("CONTINUE"); err != nil {
			return nil, err
		}
		if err := p.endStatement(); err != nil {
			return nil, err
		}
	} else {
		body, err := p.parseStmts(stopAtEndDo)
		if err != nil {
			return nil, err
		}
		do.Body = body
		if p.cur().Text == "ENDDO" {
			p.next()
		} else { // END DO
			p.next() // END
			p.next() // DO
		}
		if err := p.endStatement(); err != nil {
			return nil, err
		}
	}
	return do, nil
}

func (p *parser) parseIf() (Stmt, error) {
	ifTok := p.next() // IF
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}

	st := &IfStmt{Cond: cond, Line: ifTok.Line}

	// Block IF: "IF (c) THEN".
	if p.cur().Kind == TokKeyword && p.cur().Text == "THEN" {
		p.next()
		if err := p.endStatement(); err != nil {
			return nil, err
		}
		thenStmts, err := p.parseStmts(stopAtElseOrEndif)
		if err != nil {
			return nil, err
		}
		st.Then = thenStmts
		for {
			t := p.cur()
			switch t.Text {
			case "ENDIF":
				p.next()
				return st, p.endStatement()
			case "ELSEIF":
				p.next()
				nested, err := p.parseElseIfChain()
				if err != nil {
					return nil, err
				}
				st.Else = []Stmt{nested}
				return st, nil
			case "ELSE":
				p.next()
				// "ELSE IF (c) THEN" appears as ELSE followed by IF.
				if p.cur().Kind == TokKeyword && p.cur().Text == "IF" {
					p.next()
					nested, err := p.parseElseIfChain()
					if err != nil {
						return nil, err
					}
					st.Else = []Stmt{nested}
					return st, nil
				}
				if err := p.endStatement(); err != nil {
					return nil, err
				}
				elseStmts, err := p.parseStmts(stopAtElseOrEndif)
				if err != nil {
					return nil, err
				}
				st.Else = elseStmts
			default:
				return nil, p.errf("expected ELSE or ENDIF, found %s", t)
			}
		}
	}

	// Logical IF: "IF (c) stmt" with a single simple statement.
	inner, err := p.parseSimpleStmtForLogicalIf()
	if err != nil {
		return nil, err
	}
	st.Then = []Stmt{inner}
	return st, nil
}

// parseElseIfChain parses the IF following an ELSE IF / ELSEIF, reusing the
// block-IF machinery by synthesizing the condition parse here.
func (p *parser) parseElseIfChain() (Stmt, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("THEN"); err != nil {
		return nil, err
	}
	if err := p.endStatement(); err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Line: p.cur().Line}
	thenStmts, err := p.parseStmts(stopAtElseOrEndif)
	if err != nil {
		return nil, err
	}
	st.Then = thenStmts
	t := p.cur()
	switch t.Text {
	case "ENDIF":
		p.next()
		return st, p.endStatement()
	case "ELSEIF":
		p.next()
		nested, err := p.parseElseIfChain()
		if err != nil {
			return nil, err
		}
		st.Else = []Stmt{nested}
		return st, nil
	case "ELSE":
		p.next()
		if p.cur().Kind == TokKeyword && p.cur().Text == "IF" {
			p.next()
			nested, err := p.parseElseIfChain()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
			return st, nil
		}
		if err := p.endStatement(); err != nil {
			return nil, err
		}
		elseStmts, err := p.parseStmts(stopAtElseOrEndif)
		if err != nil {
			return nil, err
		}
		st.Else = elseStmts
		if err := p.expectKeyword("ENDIF"); err != nil {
			return nil, err
		}
		return st, p.endStatement()
	}
	return nil, p.errf("expected ELSE or ENDIF, found %s", t)
}

// parseSimpleStmtForLogicalIf parses the single statement allowed after a
// logical IF: assignment, EXIT, CYCLE, or CONTINUE.
func (p *parser) parseSimpleStmtForLogicalIf() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Kind == TokKeyword && t.Text == "EXIT":
		p.next()
		return &ExitStmt{Line: t.Line}, p.endStatement()
	case t.Kind == TokKeyword && t.Text == "CYCLE":
		p.next()
		return &CycleStmt{Line: t.Line}, p.endStatement()
	case t.Kind == TokKeyword && t.Text == "CONTINUE":
		p.next()
		return &ContinueStmt{Line: t.Line}, p.endStatement()
	case t.Kind == TokIdent:
		return p.parseAssign()
	}
	return nil, p.errf("statement not allowed after logical IF: %s", t)
}

func (p *parser) parseAssign() (Stmt, error) {
	lhs, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endStatement(); err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: lhs, RHS: rhs, Line: lhs.Line}, nil
}

// parseRef parses an lvalue: NAME or NAME(sub[,sub]).
func (p *parser) parseRef() (*RefExpr, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	ref := &RefExpr{Name: name.Text, Line: name.Line}
	if p.cur().Kind == TokLParen {
		p.next()
		for {
			sub, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ref.Subs = append(ref.Subs, sub)
			if p.cur().Kind != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if len(ref.Subs) > 2 {
			return nil, &ParseError{Line: name.Line, Msg: fmt.Sprintf("%s: more than two subscripts", name.Text)}
		}
	}
	return ref, nil
}

// Expression grammar (loosest to tightest):
//
//	expr    := orTerm { .OR. orTerm }
//	orTerm  := relTerm { .AND. relTerm }
//	relTerm := [.NOT.] arith [relop arith]
//	arith   := term { (+|-) term }
//	term    := factor { (*|/) factor }
//	factor  := [-] power
//	power   := primary [** factor]
//	primary := number | ref | call | ( expr )
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseOrTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokLogop && p.cur().Text == ".OR." {
		p.next()
		r, err := p.parseOrTerm()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: ".OR.", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseOrTerm() (Expr, error) {
	l, err := p.parseRelTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokLogop && p.cur().Text == ".AND." {
		p.next()
		r, err := p.parseRelTerm()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: ".AND.", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelTerm() (Expr, error) {
	if p.cur().Kind == TokNot {
		p.next()
		x, err := p.parseRelTerm()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: ".NOT.", X: x}, nil
	}
	l, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokRelop {
		op := p.next().Text
		r, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseArith() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokPlus:
			p.next()
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "+", L: l, R: r}
		case TokMinus:
			p.next()
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokStar:
			p.next()
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "*", L: l, R: r}
		case TokSlash:
			p.next()
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseFactor() (Expr, error) {
	if p.cur().Kind == TokMinus {
		p.next()
		x, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "-", X: x}, nil
	}
	if p.cur().Kind == TokPlus {
		p.next()
		return p.parseFactor()
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokPow {
		p.next()
		// ** is right-associative.
		exp, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: "**", L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	// REAL is a type keyword and an intrinsic: followed by "(" in an
	// expression it is the conversion call.
	if t.Kind == TokKeyword && t.Text == "REAL" && p.toks[p.pos+1].Kind == TokLParen {
		t.Kind = TokIdent
	}
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &NumExpr{Value: v, IsInt: true}, nil
	case TokReal:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &NumExpr{Value: v}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		name := p.next().Text
		// PARAMETER constants fold to literals.
		if d, ok := p.params[name]; ok && p.cur().Kind != TokLParen {
			return &NumExpr{Value: d.Value, IsInt: d.IsInt}, nil
		}
		if p.cur().Kind != TokLParen {
			return &RefExpr{Name: name, Line: t.Line}, nil
		}
		p.next() // (
		var args []Expr
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().Kind != TokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if Intrinsics[name] && p.prog.Array(name) == nil {
			return &CallExpr{Name: name, Args: args}, nil
		}
		if len(args) > 2 {
			return nil, &ParseError{Line: t.Line, Msg: fmt.Sprintf("%s: more than two subscripts", name)}
		}
		return &RefExpr{Name: name, Subs: args, Line: t.Line}, nil
	}
	return nil, p.errf("unexpected %s in expression", t)
}
