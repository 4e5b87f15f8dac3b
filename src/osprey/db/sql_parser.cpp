#include "osprey/db/sql_parser.h"

#include <cstdlib>

#include "osprey/db/sql_lexer.h"

namespace osprey::db::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> parse() {
    Result<Statement> stmt = parse_statement_inner();
    if (!stmt.ok()) return stmt;
    accept_symbol(";");
    if (!at_kind(TokenKind::kEnd)) {
      return fail("unexpected trailing tokens");
    }
    return stmt;
  }

 private:
  const Token& cur() const { return tokens_[pos_]; }
  bool at_kind(TokenKind k) const { return cur().kind == k; }
  bool at_keyword(const char* kw) const {
    return cur().kind == TokenKind::kKeyword && cur().text == kw;
  }
  bool at_symbol(const char* s) const {
    return cur().kind == TokenKind::kSymbol && cur().text == s;
  }
  void advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool accept_keyword(const char* kw) {
    if (at_keyword(kw)) {
      advance();
      return true;
    }
    return false;
  }
  bool accept_symbol(const char* s) {
    if (at_symbol(s)) {
      advance();
      return true;
    }
    return false;
  }

  Error make_error(const std::string& msg) const {
    return Error(ErrorCode::kInvalidArgument,
                 "SQL parse error: " + msg + " near offset " +
                     std::to_string(cur().offset));
  }
  template <typename T = Statement>
  Result<T> fail(const std::string& msg) const {
    return make_error(msg);
  }

  Result<std::string> expect_identifier(const char* what) {
    if (!at_kind(TokenKind::kIdentifier)) {
      return Result<std::string>(make_error(std::string("expected ") + what));
    }
    std::string name = cur().text;
    advance();
    return name;
  }

  Status expect_keyword(const char* kw) {
    if (!accept_keyword(kw)) {
      return Status(make_error(std::string("expected ") + kw));
    }
    return Status::ok();
  }

  Status expect_symbol(const char* s) {
    if (!accept_symbol(s)) {
      return Status(make_error(std::string("expected '") + s + "'"));
    }
    return Status::ok();
  }

  Result<Statement> parse_statement_inner() {
    if (accept_keyword("SELECT")) return parse_select();
    if (accept_keyword("INSERT")) return parse_insert();
    if (accept_keyword("UPDATE")) return parse_update();
    if (accept_keyword("DELETE")) return parse_delete();
    if (accept_keyword("CREATE")) return parse_create();
    if (accept_keyword("DROP")) return parse_drop();
    if (accept_keyword("BEGIN")) return Statement{BeginStmt{}};
    if (accept_keyword("COMMIT")) return Statement{CommitStmt{}};
    if (accept_keyword("ROLLBACK")) return Statement{RollbackStmt{}};
    return fail("expected a statement keyword");
  }

  Result<Statement> parse_select() {
    SelectStmt stmt;
    auto parse_aggregate = [&](Aggregate kind) -> Status {
      if (Status s = expect_symbol("("); !s.is_ok()) return s;
      Result<std::string> column = expect_identifier("aggregate column");
      if (!column.ok()) return Status(column.error());
      if (Status s = expect_symbol(")"); !s.is_ok()) return s;
      stmt.aggregate = kind;
      stmt.aggregate_column = std::move(column).take();
      return Status::ok();
    };
    if (accept_symbol("*")) {
      stmt.star = true;
    } else if (accept_keyword("COUNT")) {
      if (Status s = expect_symbol("("); !s.is_ok()) return s.error();
      if (Status s = expect_symbol("*"); !s.is_ok()) return s.error();
      if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
      stmt.count = true;
    } else if (accept_keyword("MIN")) {
      if (Status s = parse_aggregate(Aggregate::kMin); !s.is_ok()) return s.error();
    } else if (accept_keyword("MAX")) {
      if (Status s = parse_aggregate(Aggregate::kMax); !s.is_ok()) return s.error();
    } else if (accept_keyword("SUM")) {
      if (Status s = parse_aggregate(Aggregate::kSum); !s.is_ok()) return s.error();
    } else if (accept_keyword("AVG")) {
      if (Status s = parse_aggregate(Aggregate::kAvg); !s.is_ok()) return s.error();
    } else {
      while (true) {
        Result<std::string> name = expect_identifier("column name");
        if (!name.ok()) return name.error();
        stmt.columns.push_back(std::move(name).take());
        if (!accept_symbol(",")) break;
      }
    }
    if (Status s = expect_keyword("FROM"); !s.is_ok()) return s.error();
    Result<std::string> table = expect_identifier("table name");
    if (!table.ok()) return table.error();
    stmt.table = std::move(table).take();

    if (accept_keyword("WHERE")) {
      Result<ExprPtr> e = parse_expr();
      if (!e.ok()) return e.error();
      stmt.where = std::move(e).take();
    }
    if (accept_keyword("ORDER")) {
      if (Status s = expect_keyword("BY"); !s.is_ok()) return s.error();
      Result<std::vector<OrderTerm>> terms = parse_terms("ORDER BY column");
      if (!terms.ok()) return terms.error();
      stmt.order_by = std::move(terms).take();
    }
    if (accept_keyword("LIMIT")) {
      if (at_kind(TokenKind::kInteger)) {
        stmt.limit = std::strtoll(cur().text.c_str(), nullptr, 10);
        advance();
      } else if (at_kind(TokenKind::kParam)) {
        stmt.limit_is_param = true;
        stmt.limit_param_index = next_param_++;
        advance();
      } else {
        return fail("expected integer or ? after LIMIT");
      }
    }
    return Statement{std::move(stmt)};
  }

  Result<Statement> parse_insert() {
    if (Status s = expect_keyword("INTO"); !s.is_ok()) return s.error();
    InsertStmt stmt;
    Result<std::string> table = expect_identifier("table name");
    if (!table.ok()) return table.error();
    stmt.table = std::move(table).take();
    if (accept_symbol("(")) {
      while (true) {
        Result<std::string> name = expect_identifier("column name");
        if (!name.ok()) return name.error();
        stmt.columns.push_back(std::move(name).take());
        if (!accept_symbol(",")) break;
      }
      if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
    }
    if (Status s = expect_keyword("VALUES"); !s.is_ok()) return s.error();
    if (Status s = expect_symbol("("); !s.is_ok()) return s.error();
    while (true) {
      Result<ExprPtr> e = parse_expr();
      if (!e.ok()) return e.error();
      stmt.values.push_back(std::move(e).take());
      if (!accept_symbol(",")) break;
    }
    if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
    return Statement{std::move(stmt)};
  }

  Result<Statement> parse_update() {
    UpdateStmt stmt;
    Result<std::string> table = expect_identifier("table name");
    if (!table.ok()) return table.error();
    stmt.table = std::move(table).take();
    if (Status s = expect_keyword("SET"); !s.is_ok()) return s.error();
    while (true) {
      Result<std::string> name = expect_identifier("column name");
      if (!name.ok()) return name.error();
      if (Status s = expect_symbol("="); !s.is_ok()) return s.error();
      Result<ExprPtr> e = parse_expr();
      if (!e.ok()) return e.error();
      stmt.assignments.emplace_back(std::move(name).take(), std::move(e).take());
      if (!accept_symbol(",")) break;
    }
    if (accept_keyword("WHERE")) {
      Result<ExprPtr> e = parse_expr();
      if (!e.ok()) return e.error();
      stmt.where = std::move(e).take();
    }
    return Statement{std::move(stmt)};
  }

  Result<Statement> parse_delete() {
    if (Status s = expect_keyword("FROM"); !s.is_ok()) return s.error();
    DeleteStmt stmt;
    Result<std::string> table = expect_identifier("table name");
    if (!table.ok()) return table.error();
    stmt.table = std::move(table).take();
    if (accept_keyword("WHERE")) {
      Result<ExprPtr> e = parse_expr();
      if (!e.ok()) return e.error();
      stmt.where = std::move(e).take();
    }
    return Statement{std::move(stmt)};
  }

  Result<Statement> parse_create() {
    if (accept_keyword("TABLE")) {
      CreateTableStmt stmt;
      Result<std::string> table = expect_identifier("table name");
      if (!table.ok()) return table.error();
      stmt.table = std::move(table).take();
      if (Status s = expect_symbol("("); !s.is_ok()) return s.error();
      while (true) {
        Result<std::string> name = expect_identifier("column name");
        if (!name.ok()) return name.error();
        ColumnDef def;
        def.name = std::move(name).take();
        if (accept_keyword("INTEGER")) def.type = ColumnType::kInt;
        else if (accept_keyword("REAL")) def.type = ColumnType::kReal;
        else if (accept_keyword("TEXT")) def.type = ColumnType::kText;
        else return fail("expected column type (INTEGER, REAL, TEXT)");
        while (true) {
          if (accept_keyword("PRIMARY")) {
            if (Status s = expect_keyword("KEY"); !s.is_ok()) return s.error();
            def.primary_key = true;
            def.nullable = false;
          } else if (accept_keyword("NOT")) {
            if (Status s = expect_keyword("NULL"); !s.is_ok()) return s.error();
            def.nullable = false;
          } else {
            break;
          }
        }
        stmt.columns.push_back(std::move(def));
        if (!accept_symbol(",")) break;
      }
      if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
      return Statement{std::move(stmt)};
    }
    if (accept_keyword("INDEX")) {
      // CREATE INDEX ON t (a, b DESC, ...) — the index name is implicit in
      // our engine: its spec (index_spec_string) names it.
      if (Status s = expect_keyword("ON"); !s.is_ok()) return s.error();
      CreateIndexStmt stmt;
      Result<std::string> table = expect_identifier("table name");
      if (!table.ok()) return table.error();
      stmt.table = std::move(table).take();
      if (Status s = expect_symbol("("); !s.is_ok()) return s.error();
      Result<std::vector<OrderTerm>> terms = parse_terms("column name");
      if (!terms.ok()) return terms.error();
      stmt.columns = std::move(terms).take();
      if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
      return Statement{std::move(stmt)};
    }
    return fail("expected TABLE or INDEX after CREATE");
  }

  // terms := column [ASC|DESC] (, column [ASC|DESC])*
  Result<std::vector<OrderTerm>> parse_terms(const char* what) {
    std::vector<OrderTerm> terms;
    do {
      Result<std::string> name = expect_identifier(what);
      if (!name.ok()) return name.error();
      OrderTerm term{std::move(name).take(), true};
      if (accept_keyword("DESC")) {
        term.ascending = false;
      } else {
        accept_keyword("ASC");
      }
      terms.push_back(std::move(term));
    } while (accept_symbol(","));
    return terms;
  }

  Result<Statement> parse_drop() {
    if (Status s = expect_keyword("TABLE"); !s.is_ok()) return s.error();
    DropTableStmt stmt;
    Result<std::string> table = expect_identifier("table name");
    if (!table.ok()) return table.error();
    stmt.table = std::move(table).take();
    return Statement{std::move(stmt)};
  }

  // --- expressions (precedence climbing) ---------------------------------
  // or_expr  := and_expr (OR and_expr)*
  // and_expr := not_expr (AND not_expr)*
  // not_expr := NOT not_expr | cmp_expr
  // cmp_expr := add_expr ((=|!=|<>|<|<=|>|>=) add_expr
  //             | IS [NOT] NULL | [NOT] IN (expr,...))?
  // add_expr := mul_expr ((+|-) mul_expr)*
  // mul_expr := unary ((*|/) unary)*
  // unary    := - unary | primary
  // primary  := literal | ? | identifier | ( or_expr )

  Result<ExprPtr> parse_expr() { return parse_or(); }

  Result<ExprPtr> parse_or() {
    Result<ExprPtr> lhs = parse_and();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).take();
    while (accept_keyword("OR")) {
      Result<ExprPtr> rhs = parse_and();
      if (!rhs.ok()) return rhs;
      e = bin(BinOp::kOr, std::move(e), std::move(rhs).take());
    }
    return e;
  }

  Result<ExprPtr> parse_and() {
    Result<ExprPtr> lhs = parse_not();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).take();
    while (accept_keyword("AND")) {
      Result<ExprPtr> rhs = parse_not();
      if (!rhs.ok()) return rhs;
      e = bin(BinOp::kAnd, std::move(e), std::move(rhs).take());
    }
    return e;
  }

  Result<ExprPtr> parse_not() {
    if (accept_keyword("NOT")) {
      Result<ExprPtr> inner = parse_not();
      if (!inner.ok()) return inner;
      return not_(std::move(inner).take());
    }
    return parse_cmp();
  }

  Result<ExprPtr> parse_cmp() {
    Result<ExprPtr> lhs = parse_add();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).take();

    if (accept_keyword("IS")) {
      bool negated = accept_keyword("NOT");
      if (Status s = expect_keyword("NULL"); !s.is_ok()) return s.error();
      ExprPtr test = is_null(std::move(e));
      return negated ? not_(std::move(test)) : test;
    }
    bool negated_in = false;
    if (at_keyword("NOT")) {
      // lookahead for NOT IN
      std::size_t save = pos_;
      advance();
      if (at_keyword("IN")) {
        negated_in = true;
      } else {
        pos_ = save;
      }
    }
    if (accept_keyword("IN")) {
      if (Status s = expect_symbol("("); !s.is_ok()) return s.error();
      std::vector<ExprPtr> items;
      while (true) {
        Result<ExprPtr> item = parse_expr();
        if (!item.ok()) return item;
        items.push_back(std::move(item).take());
        if (!accept_symbol(",")) break;
      }
      if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
      ExprPtr test = in_list(std::move(e), std::move(items));
      return negated_in ? not_(std::move(test)) : test;
    }

    struct { const char* sym; BinOp op; } ops[] = {
        {"=", BinOp::kEq},  {"!=", BinOp::kNe}, {"<>", BinOp::kNe},
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"<", BinOp::kLt},
        {">", BinOp::kGt},
    };
    for (const auto& candidate : ops) {
      if (at_symbol(candidate.sym)) {
        advance();
        Result<ExprPtr> rhs = parse_add();
        if (!rhs.ok()) return rhs;
        return bin(candidate.op, std::move(e), std::move(rhs).take());
      }
    }
    return e;
  }

  Result<ExprPtr> parse_add() {
    Result<ExprPtr> lhs = parse_mul();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).take();
    while (at_symbol("+") || at_symbol("-")) {
      BinOp op = at_symbol("+") ? BinOp::kAdd : BinOp::kSub;
      advance();
      Result<ExprPtr> rhs = parse_mul();
      if (!rhs.ok()) return rhs;
      e = bin(op, std::move(e), std::move(rhs).take());
    }
    return e;
  }

  Result<ExprPtr> parse_mul() {
    Result<ExprPtr> lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    ExprPtr e = std::move(lhs).take();
    while (at_symbol("*") || at_symbol("/")) {
      BinOp op = at_symbol("*") ? BinOp::kMul : BinOp::kDiv;
      advance();
      Result<ExprPtr> rhs = parse_unary();
      if (!rhs.ok()) return rhs;
      e = bin(op, std::move(e), std::move(rhs).take());
    }
    return e;
  }

  Result<ExprPtr> parse_unary() {
    if (accept_symbol("-")) {
      Result<ExprPtr> inner = parse_unary();
      if (!inner.ok()) return inner;
      // Fold negative literals; otherwise 0 - x.
      if (inner.value()->kind == ExprKind::kLiteral) {
        const Value& v = inner.value()->literal;
        if (v.is_int()) return lit(Value(-v.as_int()));
        if (v.is_real()) return lit(Value(-v.as_real()));
      }
      return bin(BinOp::kSub, lit(Value(std::int64_t{0})),
                 std::move(inner).take());
    }
    return parse_primary();
  }

  Result<ExprPtr> parse_primary() {
    switch (cur().kind) {
      case TokenKind::kInteger: {
        std::int64_t v = std::strtoll(cur().text.c_str(), nullptr, 10);
        advance();
        return lit(Value(v));
      }
      case TokenKind::kReal: {
        double v = std::strtod(cur().text.c_str(), nullptr);
        advance();
        return lit(Value(v));
      }
      case TokenKind::kString: {
        std::string s = cur().text;
        advance();
        return lit(Value(std::move(s)));
      }
      case TokenKind::kParam: {
        advance();
        return param(next_param_++);
      }
      case TokenKind::kIdentifier: {
        std::string name = cur().text;
        advance();
        return col(std::move(name));
      }
      case TokenKind::kKeyword:
        if (accept_keyword("NULL")) return lit(Value(nullptr));
        return Result<ExprPtr>(make_error("unexpected keyword in expression"));
      case TokenKind::kSymbol:
        if (accept_symbol("(")) {
          Result<ExprPtr> e = parse_expr();
          if (!e.ok()) return e;
          if (Status s = expect_symbol(")"); !s.is_ok()) return s.error();
          return e;
        }
        return Result<ExprPtr>(make_error("unexpected symbol in expression"));
      case TokenKind::kEnd:
        return Result<ExprPtr>(make_error("unexpected end of statement"));
    }
    return Result<ExprPtr>(make_error("unexpected token"));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int next_param_ = 0;
};

}  // namespace

Result<Statement> parse_statement(const std::string& sql) {
  Result<std::vector<Token>> tokens = tokenize(sql);
  if (!tokens.ok()) return tokens.error();
  return Parser(std::move(tokens).take()).parse();
}

}  // namespace osprey::db::sql
