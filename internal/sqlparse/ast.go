// Package sqlparse implements a recursive-descent parser for the MySQL
// dialect subset exercised by the Joza evaluation: SELECT (with WHERE,
// GROUP BY, HAVING, ORDER BY, LIMIT and UNION [ALL]), INSERT, UPDATE,
// DELETE, CREATE TABLE and DROP TABLE, plus a full expression grammar.
//
// The parser serves three consumers:
//
//   - the PTI daemon parses intercepted queries to locate critical tokens
//     before fragment matching (the paper's second PTI optimization);
//   - the query-structure cache keys on a skeleton of the query in which
//     data nodes (numbers, string literals) are blanked out, so queries
//     differing only in data share one cached safety verdict;
//   - the minidb engine executes the AST so testbed exploits really run.
package sqlparse

import "joza/internal/sqltoken"

// Statement is implemented by all top-level SQL statement nodes.
type Statement interface {
	stmtNode()
}

// SelectStmt is a SELECT statement, optionally chained with UNION.
type SelectStmt struct {
	Distinct bool
	Columns  []SelectExpr
	// From is empty for table-less selects such as "SELECT 1".
	From string
	// FromAlias is the optional alias of the FROM table.
	FromAlias string
	// Joins are the JOIN clauses following FROM, in order.
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   *LimitClause
	// Union chains the next SELECT of a UNION, if any.
	Union *UnionClause
}

// JoinClause is one JOIN following the FROM table.
type JoinClause struct {
	Table string
	Alias string
	// On is the join condition; nil for CROSS JOIN.
	On Expr
	// Left marks a LEFT [OUTER] JOIN; unmatched left rows are kept with
	// NULL right columns.
	Left bool
}

// SelectExpr is one projected column of a SELECT.
type SelectExpr struct {
	// Star is set for a bare "*" projection; Expr is nil in that case.
	Star  bool
	Expr  Expr
	Alias string
}

// UnionClause links a SELECT to the next arm of a UNION.
type UnionClause struct {
	All   bool
	Right *SelectStmt
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// LimitClause is a LIMIT [offset,] count clause.
type LimitClause struct {
	Offset int64
	Count  int64
}

// InsertStmt is an INSERT INTO statement with inline VALUES.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one "col = expr" pair in an UPDATE SET list.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is a DELETE FROM statement.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is a CREATE TABLE statement.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
}

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name string
	// Type is the declared type name, upper-cased (INT, TEXT, VARCHAR, ...).
	Type string
}

// DropTableStmt is a DROP TABLE statement.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

func (*SelectStmt) stmtNode()      {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*CreateTableStmt) stmtNode() {}
func (*DropTableStmt) stmtNode()   {}

// Expr is implemented by all expression nodes.
type Expr interface {
	exprNode()
}

// BinaryExpr is a binary operation; Op is the upper-cased operator or
// keyword (e.g. "=", "AND", "OR", "+").
type BinaryExpr struct {
	Op string
	L  Expr
	R  Expr
}

// UnaryExpr is a prefix operation: "-", "+", "NOT", "!".
type UnaryExpr struct {
	Op string
	X  Expr
}

// LiteralKind discriminates Literal values.
type LiteralKind int

// Literal kinds.
const (
	LitNumber LiteralKind = iota + 1
	LitString
	LitNull
	LitBool
)

// Literal is a literal value. For LitNumber, Text holds the source text;
// for LitString, Str holds the decoded contents; for LitBool, Bool holds
// the value.
type Literal struct {
	Kind LiteralKind
	Text string
	Str  string
	Bool bool
}

// ColumnRef names a column, optionally table-qualified.
type ColumnRef struct {
	Table string
	Name  string
}

// FuncCall is a function invocation. Star is set for COUNT(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

// InExpr is "x [NOT] IN (list)".
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	X   Expr
	Lo  Expr
	Hi  Expr
	Not bool
}

// LikeExpr is "x [NOT] LIKE pattern".
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Not     bool
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*Literal) exprNode()     {}
func (*ColumnRef) exprNode()   {}
func (*FuncCall) exprNode()    {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}
func (*LikeExpr) exprNode()    {}
func (*IsNullExpr) exprNode()  {}

// StructureKey returns a skeleton of query in which data tokens (numbers
// and string-literal bodies) are replaced by fixed markers while all other
// bytes — keywords, operators, comments, and even inter-token whitespace —
// are preserved verbatim. Two queries share a StructureKey iff they are
// identical except for data values.
//
// Byte-exactness outside data positions is a soundness requirement of the
// PTI query-structure cache: fragment coverage is a byte-level property
// (case- and whitespace-sensitive), so a cached "safe" verdict may only be
// reused by queries whose non-data bytes are identical. A key that
// case-normalized keywords would let a safe lowercase variant certify an
// unsafe uppercase one.
func StructureKey(query string) string {
	return StructureKeyDialect(sqltoken.MySQL, query)
}

// StructureKeyDialect is StructureKey tokenized under dialect d. Keys from
// different dialects must never share a cache namespace: the same bytes can
// lex to different string/code boundaries per dialect (a dollar-quoted body
// is data in Postgres and live tokens in MySQL), so callers key caches by
// (dialect, skeleton), not skeleton alone.
func StructureKeyDialect(d sqltoken.Dialect, query string) string {
	return StructureKeyTokens(query, d.Lex(query))
}

// StructureKeyTokens is StructureKeyDialect over an existing lex of query,
// for callers that need the tokens too.
func StructureKeyTokens(query string, toks []sqltoken.Token) string {
	var stack [256]byte
	return string(AppendStructureKey(stack[:0], query, toks))
}

// AppendStructureKey appends the StructureKeyTokens key of query, lexed as
// toks, to dst and returns the extended buffer, so a caller probing a
// cache with the key builds no string until it keeps one.
func AppendStructureKey(dst []byte, query string, toks []sqltoken.Token) []byte {
	pos := 0
	for _, t := range toks {
		dst = append(dst, query[pos:t.Start]...)
		switch t.Kind {
		case sqltoken.KindNumber:
			dst = append(dst, "\x00N"...)
		case sqltoken.KindString:
			// Keep the quote characters: adjacent-coverage of operators
			// next to a literal depends on the quote byte.
			dst = append(dst, query[t.Start])
			dst = append(dst, "\x00S"...)
			if !t.Unterminated {
				dst = append(dst, query[t.End-1])
			}
		default:
			dst = append(dst, t.Text...)
		}
		pos = t.End
	}
	return append(dst, query[pos:]...)
}
