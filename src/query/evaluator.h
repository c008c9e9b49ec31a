// DLRT-style expression evaluation over coordinated samples.
//
// Set expressions (union, intersection, difference — and Jaccard as
// |A & B| / |A | B|) over any number of coordinated operands, following
// "A Framework for Estimating Stream Expression Cardinalities"
// (Dasgupta–Lang–Rhodes–Thaler; PAPERS.md): because every operand sketch
// flips the SAME per-label coins (shared hash), restricting every sample
// to the common threshold level L = max over operands of level_j makes the
// samples comparable — S_j^L is exactly {x in set_j : level(x) >= L}. The
// candidate set C = union of the S_j^L then contains every sampled label of
// every bounded expression's support, each candidate's per-operand
// membership bitmask is exact, and
//
//   |E|  ~  2^L * |{x in C : x satisfies E}|
//
// with the count Binomial(|E|, 2^-L), giving the plug-in variance bound
//   Var = |E| * (2^L - 1)   =>   SE ~ sqrt(est * (2^L - 1)).
//
// Per copy, that's one scan over the operands' retained entries; the
// estimator's copies are medianed exactly like plain F0, and the reported
// SE is the median copy's plug-in. Accuracy degrades with the ratio
// |union of operands| / |E| — small intersections need capacity — which
// EXPERIMENTS.md E19 quantifies against exact ground truth.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/dense_map.h"
#include "query/ast.h"
#include "query/parser.h"

namespace ustream::query {

struct QueryResult {
  double estimate = 0.0;
  double std_error = 0.0;     // plug-in SE: sqrt(estimate * (2^L - 1))
  int level = 0;              // common threshold level of the median copy
  std::size_t operands = 0;   // distinct operand leaves in the expression
  std::size_t candidates = 0; // candidate labels at level L (median copy)
};

// Postfix compilation of an Expr for fast per-candidate membership tests:
// one pass over the tree at build time, then eval(mask) runs a tiny stack
// machine per candidate (no pointer chasing, no allocation after reserve).
class CompiledExpr {
 public:
  // `bit_of` maps an operand leaf to its bitmask bit (its index in
  // collect_operands order, deduplicated by operand_key).
  CompiledExpr(const Expr& e,
               const std::function<unsigned(const Expr&)>& bit_of) {
    compile(e, bit_of);
    stack_.reserve(prog_.size());
  }

  bool eval(std::uint64_t mask) {
    stack_.clear();
    for (const Inst& inst : prog_) {
      switch (inst.op) {
        case Op::kLeaf:
          stack_.push_back((mask >> inst.bit) & 1u);
          break;
        case Op::kComplement:
          stack_.back() ^= 1u;
          break;
        default: {
          const std::uint8_t rhs = stack_.back();
          stack_.pop_back();
          std::uint8_t& lhs = stack_.back();
          if (inst.op == Op::kUnion) lhs = lhs | rhs;
          else if (inst.op == Op::kIntersect) lhs = lhs & rhs;
          else lhs = lhs & static_cast<std::uint8_t>(rhs ^ 1u);  // difference
          break;
        }
      }
    }
    return stack_.back() != 0;
  }

 private:
  enum class Op : std::uint8_t { kLeaf, kUnion, kIntersect, kDifference, kComplement };
  struct Inst {
    Op op = Op::kLeaf;
    unsigned bit = 0;
  };

  void compile(const Expr& e, const std::function<unsigned(const Expr&)>& bit_of) {
    if (e.kind == ExprKind::kOperand) {
      prog_.push_back({Op::kLeaf, bit_of(e)});
      return;
    }
    compile(*e.left, bit_of);
    if (e.right) compile(*e.right, bit_of);
    switch (e.kind) {
      case ExprKind::kUnion: prog_.push_back({Op::kUnion, 0}); break;
      case ExprKind::kIntersect: prog_.push_back({Op::kIntersect, 0}); break;
      case ExprKind::kDifference: prog_.push_back({Op::kDifference, 0}); break;
      default: prog_.push_back({Op::kComplement, 0}); break;
    }
  }

  std::vector<Inst> prog_;
  std::vector<std::uint8_t> stack_;
};

// Maps each distinct operand leaf to its bit index; shared by the sketch
// and exact evaluators so their membership logic is identical by
// construction. Throws QueryError for >64 distinct operands or an
// unbounded expression.
class OperandTable {
 public:
  explicit OperandTable(const Expr& expr) : leaves_(collect_operands(expr)) {
    if (leaves_.size() > 64) {
      throw QueryError(expr.pos, "too many distinct operands (" +
                                     std::to_string(leaves_.size()) +
                                     ", max 64)");
    }
    if (!is_bounded(expr)) {
      throw QueryError(expr.pos,
                       "unbounded expression (complement without an "
                       "intersecting bounded operand): rewrite as e.g. "
                       "site:0 & !site:1");
    }
    for (const Expr* leaf : leaves_) keys_.push_back(operand_key(*leaf));
  }

  const std::vector<const Expr*>& leaves() const noexcept { return leaves_; }
  std::size_t size() const noexcept { return leaves_.size(); }

  unsigned bit_of(const Expr& leaf) const {
    const std::string key = operand_key(leaf);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return static_cast<unsigned>(i);
    }
    throw QueryError(leaf.pos, "operand '" + key + "' missing from table");
  }

 private:
  std::vector<const Expr*> leaves_;
  std::vector<std::string> keys_;
};

// Evaluates `expr` over sketches named by its operands. `resolve` returns
// the estimator for an operand leaf, or nullptr for an unknown name (which
// becomes a QueryError at that leaf's position). All resolved estimators
// must be pairwise mergeable (same params + seed — i.e. coordinated).
template <typename Est>
QueryResult evaluate(const Expr& expr,
                     const std::function<const Est*(const Expr&)>& resolve) {
  const OperandTable table(expr);
  std::vector<const Est*> ops;
  ops.reserve(table.size());
  for (const Expr* leaf : table.leaves()) {
    const Est* est = resolve(*leaf);
    if (est == nullptr) {
      throw QueryError(leaf->pos, "unknown operand '" + operand_key(*leaf) + "'");
    }
    if (!ops.empty() && !ops.front()->can_merge_with(*est)) {
      throw QueryError(leaf->pos, "operand '" + operand_key(*leaf) +
                                      "' is not coordinated with '" +
                                      operand_key(*table.leaves().front()) +
                                      "' (different parameters or seed)");
    }
    ops.push_back(est);
  }
  CompiledExpr compiled(expr, [&](const Expr& leaf) { return table.bit_of(leaf); });

  const std::size_t copies = ops.front()->num_copies();
  struct CopyOutcome {
    double est = 0.0;
    int level = 0;
    std::size_t candidates = 0;
  };
  std::vector<CopyOutcome> outcomes(copies);
  for (std::size_t i = 0; i < copies; ++i) {
    int level = 0;
    for (const Est* op : ops) level = std::max(level, op->copy(i).level());
    // label -> membership bitmask over operands, at the common level.
    DenseMap<std::uint64_t> mask(64);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const std::uint64_t bit = 1ull << j;
      for (const auto& e : ops[j]->copy(i).entries()) {
        if (e.value.level < level) continue;
        auto [slot, inserted] = mask.try_emplace(e.key, 0);
        (void)inserted;
        slot->value |= bit;
      }
    }
    std::size_t count = 0;
    for (const auto& e : mask) {
      if (compiled.eval(e.value)) ++count;
    }
    outcomes[i] = {std::ldexp(static_cast<double>(count), level), level,
                   mask.size()};
  }
  // Median copy by estimate (lower middle for even copy counts, so the
  // reported level/candidates always come from a concrete copy).
  std::vector<std::size_t> order(copies);
  for (std::size_t i = 0; i < copies; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return outcomes[a].est < outcomes[b].est;
  });
  const CopyOutcome& med = outcomes[order[(copies - 1) / 2]];

  QueryResult result;
  result.estimate = med.est;
  result.std_error =
      std::sqrt(med.est * (std::ldexp(1.0, med.level) - 1.0));
  result.level = med.level;
  result.operands = table.size();
  result.candidates = med.candidates;
  return result;
}

// Exact reference evaluator: operands resolve to full label sets. Same
// candidate/bitmask machinery, no sampling — tests compare evaluate()
// against this within the DLRT error envelope.
double exact_evaluate(
    const Expr& expr,
    const std::function<const std::vector<std::uint64_t>*(const Expr&)>& resolve);

}  // namespace ustream::query
