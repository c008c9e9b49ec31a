#include "query/evaluator.h"

#include <bit>

namespace ustream::query {

WordProgram::WordProgram(const Expr& expr, const OperandTable& table) {
  compile(expr, table);
  stack_.resize(prog_.size());
}

void WordProgram::compile(const Expr& e, const OperandTable& table) {
  if (e.kind == ExprKind::kOperand) {
    prog_.push_back({Op::kLeaf, table.row_of(e)});
    return;
  }
  compile(*e.left, table);
  if (e.right) compile(*e.right, table);
  switch (e.kind) {
    case ExprKind::kUnion: prog_.push_back({Op::kUnion, 0}); break;
    case ExprKind::kIntersect: prog_.push_back({Op::kIntersect, 0}); break;
    case ExprKind::kDifference: prog_.push_back({Op::kDifference, 0}); break;
    default: prog_.push_back({Op::kComplement, 0}); break;
  }
}

std::size_t WordProgram::count(const std::uint64_t* rows, std::size_t stride,
                               std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::size_t top = 0;
    for (const Inst& inst : prog_) {
      switch (inst.op) {
        case Op::kLeaf: stack_[top++] = rows[inst.row * stride + w]; break;
        case Op::kComplement: stack_[top - 1] = ~stack_[top - 1]; break;
        case Op::kUnion: --top; stack_[top - 1] |= stack_[top]; break;
        case Op::kIntersect: --top; stack_[top - 1] &= stack_[top]; break;
        case Op::kDifference: --top; stack_[top - 1] &= ~stack_[top]; break;
      }
    }
    std::uint64_t word = stack_[0];
    // A complement sets the bits past the last candidate; dropping them
    // keeps the count exact for any expression, bounded or not.
    if (w + 1 == words && n % 64 != 0) word &= (std::uint64_t{1} << (n % 64)) - 1;
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

CandidateSet& thread_candidates() {
  thread_local CandidateSet candidates;
  return candidates;
}

double exact_evaluate(
    const Expr& expr,
    const std::function<const std::vector<std::uint64_t>*(const Expr&)>& resolve) {
  const OperandTable table(expr);
  std::vector<const std::vector<std::uint64_t>*> sets;
  sets.reserve(table.size());
  std::size_t labels = 0;
  for (const Expr* leaf : table.leaves()) {
    const auto* set = resolve(*leaf);
    if (set == nullptr) {
      throw QueryError(leaf->pos, "unknown operand '" + operand_key(*leaf) + "'");
    }
    sets.push_back(set);
    labels += set->size();
  }
  WordProgram program(expr, table);
  CandidateSet candidates(sets.size(), labels);
  for (std::size_t j = 0; j < sets.size(); ++j) {
    for (std::uint64_t label : *sets[j]) candidates.add(j, label);
  }
  return static_cast<double>(candidates.count(program));
}

}  // namespace ustream::query
