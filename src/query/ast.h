// Expression AST for set-expression queries over coordinated samples.
//
// A query names sketches as operands — `site:3` (one collected site's
// sketch), `group:7` (the merged sketch of every site tagged with group 7),
// or a bare identifier resolved by the caller — and combines them with
//
//   |   union          lowest precedence, left-associative
//   \   difference     (also spelled -), left-associative
//   &   intersection
//   !   complement     highest precedence, prefix
//
// so `(site:0 | site:1) & !site:2` is "labels on link 0 or 1 but not 2".
// The AST is deliberately dumb — five node kinds, no annotations — because
// the two consumers want different things from it: the printer wants
// structure (minimal-paren round trip, tests/test_query.cpp pins
// parse(print(E)) == E), and the evaluator wants membership logic (the
// operands' candidate bitsets are pushed through the tree, 64 candidates
// per word).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ustream::query {

enum class ExprKind : std::uint8_t {
  kOperand,
  kUnion,       // left | right
  kIntersect,   // left & right
  kDifference,  // left \ right
  kComplement,  // !left
};

enum class OperandKind : std::uint8_t { kSite, kGroup, kName };

struct Expr {
  ExprKind kind = ExprKind::kOperand;
  std::size_t pos = 0;  // byte offset of this node's first token (errors)

  // kOperand only:
  OperandKind operand = OperandKind::kName;
  std::uint32_t id = 0;  // site:N / group:N
  std::string name;      // bare-identifier operand

  std::unique_ptr<Expr> left;
  std::unique_ptr<Expr> right;  // null for kComplement
};

using ExprPtr = std::unique_ptr<Expr>;

// Canonical spelling of an operand leaf: "site:3", "group:7", or the name.
// Two leaves with equal keys denote the same set.
std::string operand_key(const Expr& e);

// Minimal-parenthesis printer. parse(to_string(e)) is structurally
// identical to e (the fuzzer's round-trip invariant): associativity is
// preserved by parenthesizing a right child of its own precedence, e.g.
// Union(a, Union(b, c)) prints "a | (b | c)" while Union(Union(a, b), c)
// prints "a | b | c".
std::string to_string(const Expr& e);

bool structurally_equal(const Expr& a, const Expr& b);

// Distinct operand leaves (by operand_key) in first-appearance order; the
// evaluator assigns operand membership rows in this order.
std::vector<const Expr*> collect_operands(const Expr& e);

// True iff support(e) is guaranteed to be a subset of the union of e's
// operand sets — the condition under which enumerating candidates from the
// operands' samples is sound. Complement alone is unbounded ("everything
// not in A" needs a universe); intersection launders it (`a & !b` is
// bounded by a), union and the right side of a difference don't.
bool is_bounded(const Expr& e);

}  // namespace ustream::query
