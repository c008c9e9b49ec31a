// The query subsystem (DESIGN.md §13): grammar round trips and precise
// error offsets, a parser fuzzer (token soup + mutations of valid
// expressions — the `fuzz` label the sanitizer presets run), the DLRT
// common-threshold evaluator against exact ground truth across workload
// shapes and every hash family, the evaluator against a test-only
// reference implementation (bit for bit), and the grouped-collection
// ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/frame.h"
#include "common/random.h"
#include "core/f0_estimator.h"
#include "core/merge_engine.h"
#include "distributed/collect.h"
#include "hash/hash_family.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/service.h"
#include "stream/partitioner.h"

namespace ustream {
namespace {

using query::Expr;
using query::ExprKind;
using query::ExprPtr;
using query::OperandKind;
using query::QueryError;

// ---------------------------------------------------------------- parser

TEST(QueryParser, PrecedenceBindsIntersectOverDiffOverUnion) {
  const ExprPtr e = query::parse("a | b & c \\ d");
  // Precedence low->high is | then \ then &, so this reads as
  // Union(a, Difference(Intersect(b, c), d)).
  ASSERT_EQ(e->kind, ExprKind::kUnion);
  ASSERT_EQ(e->right->kind, ExprKind::kDifference);
  ASSERT_EQ(e->right->left->kind, ExprKind::kIntersect);
  EXPECT_EQ(query::to_string(*e), "a | b & c \\ d");
}

TEST(QueryParser, BinariesAreLeftAssociative) {
  for (const char* text : {"a | b | c", "a \\ b \\ c", "a & b & c"}) {
    const ExprPtr e = query::parse(text);
    // ((a OP b) OP c): the left child is the nested application.
    ASSERT_EQ(e->left->kind, e->kind) << text;
    EXPECT_EQ(e->left->left->name, "a") << text;
    EXPECT_EQ(e->right->name, "c") << text;
    EXPECT_EQ(query::to_string(*e), text);
  }
}

TEST(QueryParser, MinusIsDifferenceAndBangIsPrefix) {
  const ExprPtr e = query::parse("a - b & !c");
  ASSERT_EQ(e->kind, ExprKind::kDifference);
  ASSERT_EQ(e->right->kind, ExprKind::kIntersect);
  ASSERT_EQ(e->right->right->kind, ExprKind::kComplement);
  EXPECT_EQ(e->right->right->left->name, "c");
  // The canonical spelling uses '\': print -> parse is still an identity.
  EXPECT_EQ(query::to_string(*e), "a \\ b & !c");
}

TEST(QueryParser, OperandFormsAndIdLimits) {
  const ExprPtr site = query::parse("site:4294967295");
  EXPECT_EQ(site->operand, OperandKind::kSite);
  EXPECT_EQ(site->id, 4294967295u);
  const ExprPtr group = query::parse("group:65535");
  EXPECT_EQ(group->operand, OperandKind::kGroup);
  EXPECT_EQ(group->id, 65535u);
  const ExprPtr name = query::parse("backbone_7");
  EXPECT_EQ(name->operand, OperandKind::kName);
  EXPECT_EQ(name->name, "backbone_7");
  EXPECT_THROW((void)query::parse("site:4294967296"), QueryError);
  EXPECT_THROW((void)query::parse("group:65536"), QueryError);
  EXPECT_THROW((void)query::parse("foo:3"), QueryError);  // unknown namespace
}

TEST(QueryParser, ErrorsCarryExactByteOffsets) {
  const struct {
    const char* text;
    std::size_t pos;
  } cases[] = {
      {"site:0 &", 8},    // operand missing at end of input
      {"(site:0", 7},     // unclosed paren, reported at EOF
      {"site:0)", 6},     // trailing token after a complete expression
      {"foo:3", 0},       // unknown namespace, reported at the identifier
      {"site:0 | $", 9},  // character outside the grammar
  };
  for (const auto& c : cases) {
    try {
      (void)query::parse(c.text);
      FAIL() << "parse accepted '" << c.text << "'";
    } catch (const QueryError& e) {
      EXPECT_EQ(e.pos(), c.pos) << c.text << " -> " << e.what();
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
  }
}

TEST(QueryParser, PrinterUsesMinimalParens) {
  // Redundant parens are dropped; structure-bearing ones survive.
  EXPECT_EQ(query::to_string(*query::parse("((a) | (b & c))")), "a | b & c");
  EXPECT_EQ(query::to_string(*query::parse("(a | b) & c")), "(a | b) & c");
  EXPECT_EQ(query::to_string(*query::parse("a | (b | c)")), "a | (b | c)");
  EXPECT_EQ(query::to_string(*query::parse("!(a | b)")), "!(a | b)");
  EXPECT_EQ(query::to_string(*query::parse("!!a")), "!!a");
}

TEST(QueryParser, CollectOperandsDedupsInFirstAppearanceOrder) {
  const ExprPtr e = query::parse("site:1 & (group:2 | site:1) \\ other");
  const auto ops = query::collect_operands(*e);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(query::operand_key(*ops[0]), "site:1");
  EXPECT_EQ(query::operand_key(*ops[1]), "group:2");
  EXPECT_EQ(query::operand_key(*ops[2]), "other");
}

TEST(QueryParser, BoundednessRules) {
  EXPECT_TRUE(query::is_bounded(*query::parse("a")));
  EXPECT_FALSE(query::is_bounded(*query::parse("!a")));
  EXPECT_TRUE(query::is_bounded(*query::parse("a & !b")));
  EXPECT_TRUE(query::is_bounded(*query::parse("!b & a")));
  EXPECT_FALSE(query::is_bounded(*query::parse("a | !b")));
  EXPECT_TRUE(query::is_bounded(*query::parse("a \\ !b")));   // left-bounded
  EXPECT_FALSE(query::is_bounded(*query::parse("!a \\ b")));  // support of !a
  EXPECT_FALSE(query::is_bounded(*query::parse("!(a & !b)")));
  EXPECT_TRUE(query::is_bounded(*query::parse("(a | b) & !(c | d)")));
}

// ----------------------------------------------------------------- fuzz

// A leaf over `pool` sites (site:0 .. site:pool-1) when pool > 0, else a
// mix of site:, group: and bare-name operands.
ExprPtr random_leaf(Xoshiro256& rng, std::uint32_t pool = 0) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kOperand;
  if (pool > 0) {
    e->operand = OperandKind::kSite;
    e->id = static_cast<std::uint32_t>(rng.below(pool));
    return e;
  }
  switch (rng.below(3)) {
    case 0:
      e->operand = OperandKind::kSite;
      e->id = static_cast<std::uint32_t>(rng.below(9));
      break;
    case 1:
      e->operand = OperandKind::kGroup;
      e->id = static_cast<std::uint32_t>(rng.below(9));
      break;
    default:
      e->operand = OperandKind::kName;
      e->name = std::string(1, static_cast<char>('a' + rng.below(4)));
      break;
  }
  return e;
}

ExprPtr random_expr(Xoshiro256& rng, int depth, std::uint32_t pool = 0) {
  if (depth <= 0 || rng.below(3) == 0) return random_leaf(rng, pool);
  auto e = std::make_unique<Expr>();
  switch (rng.below(4)) {
    case 0: e->kind = ExprKind::kUnion; break;
    case 1: e->kind = ExprKind::kIntersect; break;
    case 2: e->kind = ExprKind::kDifference; break;
    default: e->kind = ExprKind::kComplement; break;
  }
  e->left = random_expr(rng, depth - 1, pool);
  if (e->kind != ExprKind::kComplement) e->right = random_expr(rng, depth - 1, pool);
  return e;
}

TEST(QueryFuzz, RandomAstsRoundTripThroughPrintAndParse) {
  Xoshiro256 rng(101);
  for (int i = 0; i < 500; ++i) {
    const ExprPtr e = random_expr(rng, 5);
    const std::string text = query::to_string(*e);
    const ExprPtr reparsed = query::parse(text);
    ASSERT_TRUE(query::structurally_equal(*e, *reparsed)) << text;
    // And the printer is a fixed point: print(parse(print(e))) == print(e).
    ASSERT_EQ(query::to_string(*reparsed), text);
  }
}

TEST(QueryFuzz, TokenSoupNeverCrashesAndErrorsStayInBounds) {
  static const char kAlphabet[] = "()|&\\!-:_ \tabgrsiteoup0123456789$%#";
  Xoshiro256 rng(102);
  for (int i = 0; i < 4000; ++i) {
    std::string s;
    const std::size_t len = rng.below(41);
    for (std::size_t k = 0; k < len; ++k) {
      s += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
    try {
      const ExprPtr e = query::parse(s);
      // Anything the parser accepts must round-trip.
      ASSERT_TRUE(query::structurally_equal(*e, *query::parse(query::to_string(*e)))) << s;
    } catch (const QueryError& err) {
      ASSERT_LE(err.pos(), s.size()) << s;
    }
  }
}

TEST(QueryFuzz, MutationsOfValidExpressionsNeverCrash) {
  static const char kAlphabet[] = "()|&\\!-: site:group:0123456789abz";
  Xoshiro256 rng(103);
  for (int i = 0; i < 500; ++i) {
    std::string s = query::to_string(*random_expr(rng, 4));
    // A few stacked byte-level mutations: insert, delete, or replace.
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t k = 0; k < edits && !s.empty(); ++k) {
      const std::size_t at = rng.below(s.size());
      switch (rng.below(3)) {
        case 0: s.insert(at, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]); break;
        case 1: s.erase(at, 1); break;
        default: s[at] = kAlphabet[rng.below(sizeof(kAlphabet) - 1)]; break;
      }
    }
    try {
      const ExprPtr e = query::parse(s);
      ASSERT_TRUE(query::structurally_equal(*e, *query::parse(query::to_string(*e)))) << s;
    } catch (const QueryError& err) {
      ASSERT_LE(err.pos(), s.size()) << s;
    }
  }
}

// ------------------------------------------------------------- evaluator

// Exact reference sets + coordinated sketches for the same streams, so the
// two evaluators can be compared expression by expression.
template <typename Est>
struct Fixture {
  std::vector<Est> sketches;
  std::vector<std::vector<std::uint64_t>> sets;

  void add_site(const std::vector<std::uint64_t>& labels, const EstimatorParams& p) {
    Est est(p);
    std::set<std::uint64_t> distinct;
    for (const std::uint64_t x : labels) {
      est.add(x);
      distinct.insert(x);
    }
    sketches.push_back(std::move(est));
    sets.emplace_back(distinct.begin(), distinct.end());
  }

  query::QueryResult evaluate(const std::string& text) const {
    const ExprPtr e = query::parse(text);
    std::function<const Est*(const Expr&)> resolve = [this](const Expr& leaf) -> const Est* {
      if (leaf.operand != OperandKind::kSite || leaf.id >= sketches.size()) return nullptr;
      return &sketches[leaf.id];
    };
    return query::evaluate<Est>(*e, resolve);
  }

  double exact(const std::string& text) const {
    const ExprPtr e = query::parse(text);
    std::function<const std::vector<std::uint64_t>*(const Expr&)> resolve =
        [this](const Expr& leaf) -> const std::vector<std::uint64_t>* {
      if (leaf.operand != OperandKind::kSite || leaf.id >= sets.size()) return nullptr;
      return &sets[leaf.id];
    };
    return query::exact_evaluate(*e, resolve);
  }
};

// The DLRT envelope: count ~ Binomial(|E|, 2^-L), so a 5-sigma band around
// truth (floored for near-empty results, since copies are medianed the
// band is generous) must contain the estimate.
void expect_within_envelope(const query::QueryResult& r, double exact,
                            const std::string& what) {
  const double scale = std::ldexp(1.0, r.level) - 1.0;
  const double sigma = std::sqrt(std::max(exact, 1.0) * scale);
  const double tol = 5.0 * sigma + 4.0 * (scale + 1.0);
  EXPECT_NEAR(r.estimate, exact, tol) << what << " (level " << r.level << ")";
  // The reported plug-in SE must agree with the formula on its own output.
  EXPECT_DOUBLE_EQ(r.std_error, std::sqrt(r.estimate * scale)) << what;
}

TEST(QueryEvaluator, ExactReferenceOnHandComputedSets) {
  Fixture<F0Estimator> fx;  // sketches unused here; sets drive exact_evaluate
  const EstimatorParams p{.capacity = 64, .copies = 3, .seed = 1};
  fx.add_site({1, 2, 3}, p);
  fx.add_site({2, 3, 4}, p);
  EXPECT_DOUBLE_EQ(fx.exact("site:0 | site:1"), 4.0);
  EXPECT_DOUBLE_EQ(fx.exact("site:0 & site:1"), 2.0);
  EXPECT_DOUBLE_EQ(fx.exact("site:0 \\ site:1"), 1.0);
  EXPECT_DOUBLE_EQ(fx.exact("site:0 & !site:1"), 1.0);
  EXPECT_DOUBLE_EQ(fx.exact("(site:0 | site:1) \\ (site:0 & site:1)"), 2.0);
  EXPECT_DOUBLE_EQ(fx.exact("site:0 \\ site:0"), 0.0);
}

// Workload matrix: disjoint sites, nested subsets, and Zipf-skewed streams
// with pairwise overlap — the three shapes E19 sweeps.
TEST(QueryEvaluator, EnvelopeOnDisjointSites) {
  const EstimatorParams p{.capacity = 8192, .copies = 5, .seed = 31};
  const auto w = make_distributed_workload(
      {.sites = 4, .union_distinct = 40'000, .overlap = 0.0, .duplication = 1.5, .seed = 41});
  Fixture<F0Estimator> fx;
  for (const auto& stream : w.site_streams) {
    std::vector<std::uint64_t> labels;
    labels.reserve(stream.size());
    for (const Item& item : stream) labels.push_back(item.label);
    fx.add_site(labels, p);
  }
  for (const char* text :
       {"site:0 | site:1 | site:2 | site:3", "site:0 & site:1",
        "(site:0 | site:1) \\ site:2", "(site:0 | site:1) & !site:2"}) {
    expect_within_envelope(fx.evaluate(text), fx.exact(text), text);
  }
  // Disjoint sites share no labels, so the coordinated intersection is not
  // merely small — it is empty at every level.
  EXPECT_DOUBLE_EQ(fx.evaluate("site:0 & site:1").estimate, 0.0);
}

TEST(QueryEvaluator, EnvelopeOnNestedSites) {
  const EstimatorParams p{.capacity = 8192, .copies = 5, .seed = 32};
  Xoshiro256 rng(42);
  std::vector<std::uint64_t> big(30'000);
  for (auto& x : big) x = rng.next();
  const std::vector<std::uint64_t> mid(big.begin(), big.begin() + 10'000);
  const std::vector<std::uint64_t> small(big.begin(), big.begin() + 3'000);
  Fixture<F0Estimator> fx;
  fx.add_site(big, p);
  fx.add_site(mid, p);
  fx.add_site(small, p);
  for (const char* text :
       {"site:0 \\ site:1", "site:0 & site:1", "site:1 & !site:2",
        "(site:0 \\ site:1) | site:2", "site:0 & site:1 & site:2"}) {
    expect_within_envelope(fx.evaluate(text), fx.exact(text), text);
  }
  // Nesting gives sharp exact answers to compare against.
  EXPECT_DOUBLE_EQ(fx.exact("site:0 \\ site:1"), 20'000.0);
  EXPECT_DOUBLE_EQ(fx.exact("site:1 & site:2"), 3'000.0);
}

TEST(QueryEvaluator, EnvelopeOnZipfOverlappingSites) {
  const EstimatorParams p{.capacity = 8192, .copies = 5, .seed = 33};
  const auto w = make_distributed_workload({.sites = 3, .union_distinct = 30'000,
                                            .overlap = 0.5, .duplication = 2.0,
                                            .zipf_alpha = 1.0, .seed = 43});
  Fixture<F0Estimator> fx;
  for (const auto& stream : w.site_streams) {
    std::vector<std::uint64_t> labels;
    labels.reserve(stream.size());
    for (const Item& item : stream) labels.push_back(item.label);
    fx.add_site(labels, p);
  }
  for (const char* text :
       {"site:0 | site:1 | site:2", "site:0 & site:1", "site:0 \\ site:1",
        "(site:0 | site:1) & !site:2", "(site:0 & site:1) | (site:1 & site:2)"}) {
    expect_within_envelope(fx.evaluate(text), fx.exact(text), text);
  }
}

TEST(QueryEvaluator, AssociativityAndCommutativityAreExact) {
  const EstimatorParams p{.capacity = 2048, .copies = 5, .seed = 34};
  const auto w = make_distributed_workload(
      {.sites = 3, .union_distinct = 20'000, .overlap = 0.4, .duplication = 1.5, .seed = 44});
  Fixture<F0Estimator> fx;
  for (const auto& stream : w.site_streams) {
    std::vector<std::uint64_t> labels;
    for (const Item& item : stream) labels.push_back(item.label);
    fx.add_site(labels, p);
  }
  // Same operand set, same common level, same candidate set: reassociating
  // or commuting | and & must not move the estimate by even one ULP.
  const struct {
    const char* a;
    const char* b;
  } laws[] = {
      {"site:0 | site:1", "site:1 | site:0"},
      {"site:0 & site:1", "site:1 & site:0"},
      {"(site:0 | site:1) | site:2", "site:0 | (site:1 | site:2)"},
      {"(site:0 & site:1) & site:2", "site:0 & (site:1 & site:2)"},
      {"site:0 \\ site:1", "site:0 & !site:1"},  // difference as intersection
  };
  for (const auto& law : laws) {
    EXPECT_DOUBLE_EQ(fx.evaluate(law.a).estimate, fx.evaluate(law.b).estimate)
        << law.a << " vs " << law.b;
  }
  // Duplicated operands collapse onto one membership row.
  EXPECT_DOUBLE_EQ(fx.evaluate("site:0 & site:0").estimate,
                   fx.evaluate("site:0").estimate);
  EXPECT_DOUBLE_EQ(fx.evaluate("site:0 \\ site:0").estimate, 0.0);
}

TEST(QueryEvaluator, UnboundedExpressionsRejected) {
  const EstimatorParams p{.capacity = 64, .copies = 3, .seed = 35};
  Fixture<F0Estimator> fx;
  fx.add_site({1, 2, 3}, p);
  fx.add_site({3, 4}, p);
  EXPECT_THROW((void)fx.evaluate("!site:0"), QueryError);
  EXPECT_THROW((void)fx.evaluate("site:0 | !site:1"), QueryError);
  EXPECT_NO_THROW((void)fx.evaluate("site:0 & !site:1"));
  try {
    (void)fx.evaluate("!site:0");
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("unbounded"), std::string::npos);
  }
}

TEST(QueryEvaluator, UnknownAndUncoordinatedOperandsRejectedWithPositions) {
  const EstimatorParams p{.capacity = 64, .copies = 3, .seed = 36};
  Fixture<F0Estimator> fx;
  fx.add_site({1, 2, 3}, p);
  try {
    (void)fx.evaluate("site:0 | site:9");
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_EQ(e.pos(), 9u);  // the offending leaf, not the whole expression
    EXPECT_NE(std::string(e.what()).find("unknown operand 'site:9'"),
              std::string::npos);
  }
  // A sketch built under a different seed is not coordinated: its sample
  // decisions used different coins, so set algebra on the samples is
  // meaningless and must be refused.
  const EstimatorParams other{.capacity = 64, .copies = 3, .seed = 99};
  fx.add_site({1, 2, 3}, other);
  try {
    (void)fx.evaluate("site:0 & site:1");
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_NE(std::string(e.what()).find("not coordinated"), std::string::npos);
  }
}

// Every hash family in the wire matrix drives the same evaluator through
// the same envelope check — the common-threshold argument only needs the
// operands to share ONE hash, whichever family it is.
template <typename H>
class QueryHashMatrix : public ::testing::Test {};
using HashFamilies =
    ::testing::Types<PairwiseHash, TabulationHash, MurmurMixHash, MultiplyShiftHash>;
TYPED_TEST_SUITE(QueryHashMatrix, HashFamilies, );

TYPED_TEST(QueryHashMatrix, EvaluatorMatchesExactAcrossFamilies) {
  using Est = BasicF0Estimator<TypeParam>;
  const EstimatorParams p{.capacity = 4096, .copies = 5, .seed = 71};
  Xoshiro256 rng(72);
  std::vector<std::uint64_t> shared(6'000), only0(8'000), only1(5'000), only2(4'000);
  for (auto& x : shared) x = rng.next();
  for (auto& x : only0) x = rng.next();
  for (auto& x : only1) x = rng.next();
  for (auto& x : only2) x = rng.next();
  Fixture<Est> fx;
  auto with_shared = [&](const std::vector<std::uint64_t>& own) {
    std::vector<std::uint64_t> labels = shared;
    labels.insert(labels.end(), own.begin(), own.end());
    return labels;
  };
  fx.add_site(with_shared(only0), p);
  fx.add_site(with_shared(only1), p);
  fx.add_site(only2, p);
  for (const char* text : {"site:0 | site:1 | site:2", "site:0 & site:1",
                           "(site:0 | site:1) & !site:2", "site:0 \\ site:1"}) {
    expect_within_envelope(fx.evaluate(text), fx.exact(text), text);
  }
  EXPECT_DOUBLE_EQ(fx.exact("site:0 & site:1"), 6'000.0);
}

// ------------------------------------------- differential reference
//
// A test-only evaluator that shares nothing with query::evaluate beyond
// the AST: per copy, a std::unordered_map of candidate -> operand bitmask,
// then a recursive walk of the Expr for every candidate. evaluate() must
// match it exactly — same level, candidates, estimate and SE — on random
// expressions over 1 to 64 distinct operands.

using LeafIndex = std::unordered_map<const Expr*, unsigned>;

// Numbers every leaf by its operand's position in collect_operands order.
void index_leaves(const Expr& e, const std::vector<std::string>& keys, LeafIndex& out) {
  if (e.kind == ExprKind::kOperand) {
    const auto at = std::find(keys.begin(), keys.end(), query::operand_key(e));
    out[&e] = static_cast<unsigned>(at - keys.begin());
    return;
  }
  index_leaves(*e.left, keys, out);
  if (e.right) index_leaves(*e.right, keys, out);
}

bool reference_member(const Expr& e, const LeafIndex& leaves, std::uint64_t mask) {
  switch (e.kind) {
    case ExprKind::kOperand: return ((mask >> leaves.at(&e)) & 1u) != 0;
    case ExprKind::kUnion:
      return reference_member(*e.left, leaves, mask) ||
             reference_member(*e.right, leaves, mask);
    case ExprKind::kIntersect:
      return reference_member(*e.left, leaves, mask) &&
             reference_member(*e.right, leaves, mask);
    case ExprKind::kDifference:
      return reference_member(*e.left, leaves, mask) &&
             !reference_member(*e.right, leaves, mask);
    case ExprKind::kComplement: return !reference_member(*e.left, leaves, mask);
  }
  return false;
}

struct Reference {
  std::vector<std::string> keys;  // operand keys, collect_operands order
  LeafIndex leaves;

  explicit Reference(const Expr& expr) {
    for (const Expr* leaf : query::collect_operands(expr)) {
      keys.push_back(query::operand_key(*leaf));
    }
    index_leaves(expr, keys, leaves);
  }

  // ops[j] is the sketch of operand keys[j].
  query::QueryResult evaluate(const Expr& expr,
                              const std::vector<const F0Estimator*>& ops) const {
    const std::size_t copies = ops.front()->num_copies();
    std::vector<query::QueryResult> per_copy(copies);
    for (std::size_t i = 0; i < copies; ++i) {
      int level = 0;
      for (const F0Estimator* op : ops) level = std::max(level, op->copy(i).level());
      std::unordered_map<std::uint64_t, std::uint64_t> candidates;
      for (std::size_t j = 0; j < ops.size(); ++j) {
        for (const auto& e : ops[j]->copy(i).entries()) {
          if (e.value.level >= level) candidates[e.key] |= std::uint64_t{1} << j;
        }
      }
      std::size_t count = 0;
      for (const auto& [label, mask] : candidates) {
        if (reference_member(expr, leaves, mask)) ++count;
      }
      per_copy[i].estimate = std::ldexp(static_cast<double>(count), level);
      per_copy[i].level = level;
      per_copy[i].candidates = candidates.size();
    }
    // The median rule: copies sorted by estimate, the lower middle one.
    std::vector<std::size_t> order(copies);
    for (std::size_t i = 0; i < copies; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return per_copy[a].estimate < per_copy[b].estimate;
    });
    query::QueryResult r = per_copy[order[(copies - 1) / 2]];
    r.std_error = std::sqrt(r.estimate * (std::ldexp(1.0, r.level) - 1.0));
    r.operands = keys.size();
    return r;
  }

  // |E| recounted over std::sets of the operands' full label sets.
  std::size_t exact(const Expr& expr,
                    const std::vector<std::set<std::uint64_t>>& sets) const {
    std::set<std::uint64_t> universe;
    for (const auto& set : sets) universe.insert(set.begin(), set.end());
    std::size_t count = 0;
    for (const std::uint64_t x : universe) {
      std::uint64_t mask = 0;
      for (std::size_t j = 0; j < sets.size(); ++j) {
        if (sets[j].count(x) != 0) mask |= std::uint64_t{1} << j;
      }
      if (reference_member(expr, leaves, mask)) ++count;
    }
    return count;
  }
};

ExprPtr make_node(ExprKind kind, ExprPtr left, ExprPtr right) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->left = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr site_leaf(std::uint32_t id) {
  auto e = std::make_unique<Expr>();
  e->operand = OperandKind::kSite;
  e->id = id;
  return e;
}

// A random bounded expression over exactly `operands` distinct sites:
// random subtrees joined by random binary operators until every site
// appears, often followed by `& !site:x`, and intersected with a site when
// the result would be unbounded.
ExprPtr random_bounded_expr(Xoshiro256& rng, std::uint32_t operands) {
  constexpr ExprKind kBinary[] = {ExprKind::kUnion, ExprKind::kIntersect,
                                  ExprKind::kDifference};
  ExprPtr e = random_expr(rng, 4, operands);
  while (query::collect_operands(*e).size() < operands) {
    e = make_node(kBinary[rng.below(3)], std::move(e), random_expr(rng, 4, operands));
  }
  if (rng.below(2) == 0) {
    auto negated = std::make_unique<Expr>();
    negated->kind = ExprKind::kComplement;
    negated->left = site_leaf(static_cast<std::uint32_t>(rng.below(operands)));
    e = make_node(ExprKind::kIntersect, std::move(e), std::move(negated));
  }
  if (!query::is_bounded(*e)) {
    e = make_node(ExprKind::kIntersect,
                  site_leaf(static_cast<std::uint32_t>(rng.below(operands))),
                  std::move(e));
  }
  return e;
}

// Runs `expr` through evaluate(), exact_evaluate() and the reference, over
// the fixture's sites, and asserts they agree exactly.
void expect_matches_reference(const Fixture<F0Estimator>& fx, const Expr& expr) {
  const std::string text = query::to_string(expr);
  const Reference ref(expr);
  std::vector<const F0Estimator*> ops;
  std::vector<std::set<std::uint64_t>> sets;
  for (const Expr* leaf : query::collect_operands(expr)) {
    ops.push_back(&fx.sketches.at(leaf->id));
    sets.emplace_back(fx.sets.at(leaf->id).begin(), fx.sets.at(leaf->id).end());
  }
  const query::QueryResult got = fx.evaluate(text);
  const query::QueryResult want = ref.evaluate(expr, ops);
  EXPECT_EQ(got.estimate, want.estimate) << text;
  EXPECT_EQ(got.std_error, want.std_error) << text;
  EXPECT_EQ(got.level, want.level) << text;
  EXPECT_EQ(got.candidates, want.candidates) << text;
  EXPECT_EQ(got.operands, want.operands) << text;
  EXPECT_EQ(fx.exact(text), static_cast<double>(ref.exact(expr, sets))) << text;
}

TEST(QueryDifferential, RandomExpressionsOverOneToSixtyFourOperands) {
  // Small capacity over a shared universe: operands sit at different
  // levels copy by copy, so the common level and its filtering matter.
  const EstimatorParams p{.capacity = 48, .copies = 5, .seed = 91};
  Xoshiro256 rng(92);
  std::vector<std::uint64_t> universe(600);
  for (auto& x : universe) x = rng.next();
  Fixture<F0Estimator> fx;
  for (int s = 0; s < 64; ++s) {
    std::vector<std::uint64_t> labels;
    const std::size_t size = 1 + rng.below(universe.size());
    for (std::size_t k = 0; k < size; ++k) labels.push_back(universe[rng.below(universe.size())]);
    fx.add_site(labels, p);
  }
  for (std::uint32_t operands = 1; operands <= 64; ++operands) {
    for (int trial = 0; trial < 3; ++trial) {
      const ExprPtr e = random_bounded_expr(rng, operands);
      ASSERT_EQ(query::collect_operands(*e).size(), operands);
      expect_matches_reference(fx, *e);
    }
  }
}

TEST(QueryDifferential, CandidateCountsOnAndAroundWordBoundaries) {
  // Capacity above every union: all copies stay at level 0, so each copy's
  // candidate count is exactly the union of the operands' sets.
  const EstimatorParams p{.capacity = 1024, .copies = 3, .seed = 93};
  Xoshiro256 rng(94);
  const char* const exprs[] = {
      "site:0 & !site:1 & !site:2", "(site:0 | site:2) & !site:1",
      "site:2 \\ (site:0 & site:1)", "site:0 | site:1 | site:2",
      "(site:1 & !site:0) | (site:2 & !site:1)"};
  std::vector<std::size_t> sizes = {1, 2};
  for (std::size_t k = 1; k <= 4; ++k) {
    for (const std::size_t n : {64 * k - 1, 64 * k, 64 * k + 1}) sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    // Every label lands in a random non-empty subset of the three sites.
    std::vector<std::vector<std::uint64_t>> labels(3);
    for (std::size_t x = 0; x < n; ++x) {
      const std::uint64_t label = rng.next();
      const std::uint64_t in = 1 + rng.below(7);
      for (std::size_t s = 0; s < 3; ++s) {
        if ((in >> s) & 1u) labels[s].push_back(label);
      }
    }
    Fixture<F0Estimator> fx;
    for (const auto& l : labels) fx.add_site(l, p);
    for (const char* text : exprs) {
      const ExprPtr e = query::parse(text);
      expect_matches_reference(fx, *e);
      EXPECT_EQ(fx.evaluate(text).candidates, n) << text;
    }
  }
}

// `a & !b` is bounded, but its sub-expression `!b` is not: run on its own,
// the NOT sets every bit past the last candidate, and count() must drop
// them. One CandidateSet is reused across sizes, so reset() must also
// leave no stale bits behind.
TEST(QueryDifferential, WordProgramMasksTheLastWord) {
  const ExprPtr e = query::parse("a & !b");
  const query::OperandTable table(*e);
  query::WordProgram whole(*e, table);
  query::WordProgram not_b(*e->right, table);
  query::CandidateSet candidates(table.size(), 4 * 64);
  for (const std::size_t n : {129u, 1u, 63u, 64u, 65u, 191u, 192u, 193u, 2u, 256u, 0u, 127u}) {
    // b's members shift with n, so stale bits from a previous size show.
    std::size_t in_b = 0;
    for (std::uint64_t x = 0; x < n; ++x) {
      candidates.add(0, x);
      if ((x + n) % 3 == 0) {
        candidates.add(1, x);
        ++in_b;
      }
    }
    ASSERT_EQ(candidates.size(), n);
    EXPECT_EQ(candidates.count(not_b), n - in_b) << n;
    EXPECT_EQ(candidates.count(whole), n - in_b) << n;
    candidates.reset();
    EXPECT_EQ(candidates.size(), 0u);
  }
}

// ------------------------------------------ copies on a thread pool
//
// evaluate() runs the copies on a pool. Its answer may not depend on the
// pool's size or on which thread took which chunk, and every error must be
// the one the caller would see with no pool at all.

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<F0Estimator> workload_sketches(const EstimatorParams& p, double zipf_alpha,
                                           std::uint64_t seed) {
  const auto w = make_distributed_workload({.sites = 8, .union_distinct = 16'000,
                                            .overlap = 0.5, .duplication = 1.0,
                                            .zipf_alpha = zipf_alpha, .seed = seed});
  std::vector<F0Estimator> out;
  for (const auto& stream : w.site_streams) {
    std::vector<std::uint64_t> labels;
    labels.reserve(stream.size());
    for (const Item& item : stream) labels.push_back(item.label);
    F0Estimator est(p);
    est.add_batch(labels);
    out.push_back(std::move(est));
  }
  return out;
}

query::QueryResult evaluate_on(const std::vector<F0Estimator>& sketches, const Expr& expr,
                               ThreadPool& pool) {
  const std::function<const F0Estimator*(const Expr&)> resolve =
      [&sketches](const Expr& leaf) -> const F0Estimator* {
    if (leaf.operand != OperandKind::kSite || leaf.id >= sketches.size()) return nullptr;
    return &sketches[leaf.id];
  };
  return query::evaluate<F0Estimator>(expr, resolve, pool);
}

void expect_identical(const query::QueryResult& a, const query::QueryResult& b,
                      const std::string& what) {
  EXPECT_EQ(hex(a.estimate), hex(b.estimate)) << what;
  EXPECT_EQ(hex(a.std_error), hex(b.std_error)) << what;
  EXPECT_EQ(a.level, b.level) << what;
  EXPECT_EQ(a.operands, b.operands) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
}

TEST(QueryPool, AnswersAreBitIdenticalForAnyPoolSize) {
  ThreadPool inline_pool(0);
  ThreadPool pool(3);
  const char* const fixed[] = {
      "site:0 | site:1",
      "site:0 & site:1",
      "site:2 \\ site:3",
      "(site:0 | site:1) & !site:2",
      "(site:0 | site:1 | site:2 | site:3) & (site:4 | site:5) \\ (site:6 & !site:7)",
      "site:0 & site:1 & site:2 & site:3 & site:4 & site:5 & site:6 & site:7"};
  Xoshiro256 rng(52);
  for (const double eps : {0.3, 0.1, 0.05}) {
    const EstimatorParams p = EstimatorParams::for_guarantee(eps, 0.05, 51);
    for (const double zipf_alpha : {0.0, 1.2}) {
      const std::vector<F0Estimator> sketches = workload_sketches(p, zipf_alpha, 53);
      std::vector<ExprPtr> exprs;
      for (const char* text : fixed) exprs.push_back(query::parse(text));
      for (int i = 0; i < 2; ++i) exprs.push_back(random_bounded_expr(rng, 8));
      for (const ExprPtr& e : exprs) {
        const std::string what = query::to_string(*e) + " eps " + std::to_string(eps) +
                                 " zipf " + std::to_string(zipf_alpha);
        const query::QueryResult serial = evaluate_on(sketches, *e, inline_pool);
        expect_identical(evaluate_on(sketches, *e, pool), serial, what);
      }
    }
  }
}

TEST(QueryPool, ErrorsAreThrownOnTheCallerForAnyPoolSize) {
  const EstimatorParams p{.capacity = 64, .copies = 5, .seed = 54};
  std::vector<F0Estimator> sketches(2, F0Estimator(p));
  sketches[0].add_batch(std::vector<std::uint64_t>{1, 2, 3});
  sketches[1].add_batch(std::vector<std::uint64_t>{3, 4});
  sketches.emplace_back(EstimatorParams{.capacity = 64, .copies = 5, .seed = 55});
  ThreadPool inline_pool(0);
  ThreadPool pool(3);
  const auto error_of = [&](const std::string& text, ThreadPool& on) {
    const ExprPtr e = query::parse(text);
    try {
      (void)evaluate_on(sketches, *e, on);
    } catch (const QueryError& err) {
      return std::to_string(err.pos()) + ": " + err.what();
    }
    return std::string("no error");
  };
  for (const char* text : {"site:0 | site:9", "site:0 & site:2", "!site:0"}) {
    const std::string serial = error_of(text, inline_pool);
    EXPECT_NE(serial, "no error") << text;
    EXPECT_EQ(error_of(text, pool), serial) << text;
    EXPECT_EQ(error_of(text, MergeEngine::shared().pool()), serial) << text;
  }
  EXPECT_EQ(error_of("site:0 | site:9", pool).rfind("9: ", 0), 0u);
  EXPECT_NE(error_of("site:0 & site:2", pool).find("not coordinated"), std::string::npos);
  EXPECT_NE(error_of("!site:0", pool).find("unbounded"), std::string::npos);
}

// The live referee's shape: the admin handler and another client query
// while the end-of-round union runs, all on MergeEngine::shared()'s pool.
// Run under the tsan preset (`query` label).
TEST(QueryPool, ConcurrentQueriesAndReduceShareTheEnginePool) {
  const EstimatorParams p = EstimatorParams::for_guarantee(0.3, 0.05, 56);
  const std::vector<F0Estimator> sketches = workload_sketches(p, 0.0, 57);
  const query::ResolveSketch resolve = [&sketches](const Expr& leaf) -> const F0Estimator* {
    if (leaf.operand != OperandKind::kSite || leaf.id >= sketches.size()) return nullptr;
    return &sketches[leaf.id];
  };
  const std::vector<std::string> texts = {
      "site:0 | site:1 | site:2", "(site:0 | site:3) & !site:4",
      "(site:1 | site:2 | site:5) \\ (site:6 & site:7)", "site:4 & site:5"};
  ThreadPool inline_pool(0);
  std::vector<query::QueryResult> expected;
  for (const std::string& text : texts) {
    expected.push_back(evaluate_on(sketches, *query::parse(text), inline_pool));
  }
  F0Estimator fold = sketches[0];
  for (std::size_t s = 1; s < sketches.size(); ++s) fold.merge(sketches[s]);
  const std::vector<std::uint8_t> union_bytes = fold.serialize();

  std::atomic<int> wrong_answers{0};
  std::atomic<int> wrong_unions{0};
  const auto querier = [&](std::size_t offset) {
    for (int round = 0; round < 12; ++round) {
      for (std::size_t k = 0; k < texts.size(); ++k) {
        const std::size_t i = (k + offset) % texts.size();
        const query::QueryResult r = query::run_query(texts[i], resolve);
        if (hex(r.estimate) != hex(expected[i].estimate) ||
            hex(r.std_error) != hex(expected[i].std_error) ||
            r.level != expected[i].level || r.candidates != expected[i].candidates) {
          ++wrong_answers;
        }
      }
    }
  };
  std::thread a(querier, 0);
  std::thread b(querier, 1);
  std::thread c([&] {
    for (int round = 0; round < 12; ++round) {
      std::vector<F0Estimator> parts = sketches;
      const auto merged = MergeEngine::shared().reduce(std::move(parts));
      if (!merged || merged->serialize() != union_bytes) ++wrong_unions;
    }
  });
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(wrong_answers.load(), 0);
  EXPECT_EQ(wrong_unions.load(), 0);
}

// Each thread keeps its candidate table across queries, within
// kScratchSlack of what the current query needs: a small query after a
// huge one leaves the table at the size a fresh thread would build.
TEST(QueryPool, ScratchShrinksToTheSmallQueryAfterAHugeOne) {
  const EstimatorParams p{.capacity = 4096, .copies = 2, .seed = 58};
  Xoshiro256 rng(59);
  std::vector<F0Estimator> sketches;
  std::string huge;
  for (int s = 0; s < 64; ++s) {
    std::vector<std::uint64_t> labels(4'000);
    for (auto& x : labels) x = rng.next();
    F0Estimator est(p);
    est.add_batch(labels);
    sketches.push_back(std::move(est));
    huge += (s == 0 ? "site:" : " | site:") + std::to_string(s);
  }
  const ExprPtr huge_expr = query::parse(huge);
  const ExprPtr small_expr = query::parse("site:0 & site:1");
  const ExprPtr one_expr = query::parse("site:0");
  ThreadPool inline_pool(0);  // every chunk runs here, on this thread's table

  std::size_t fresh_small = 0;
  std::thread fresh([&] {
    (void)evaluate_on(sketches, *small_expr, inline_pool);
    fresh_small = query::thread_candidates().bytes_used();
  });
  fresh.join();

  const query::QueryResult huge_answer = evaluate_on(sketches, *huge_expr, inline_pool);
  EXPECT_EQ(huge_answer.candidates, 64u * 4'000u);
  const std::size_t huge_bytes = query::thread_candidates().bytes_used();
  EXPECT_GT(huge_bytes, query::CandidateSet::kScratchSlack * fresh_small);

  (void)evaluate_on(sketches, *small_expr, inline_pool);
  EXPECT_EQ(query::thread_candidates().bytes_used(), fresh_small);
  // A smaller shape within the slack reuses the table as it is.
  (void)evaluate_on(sketches, *one_expr, inline_pool);
  EXPECT_EQ(query::thread_candidates().bytes_used(), fresh_small);
  EXPECT_LE(fresh_small, query::CandidateSet::kScratchSlack *
                             query::CandidateSet::bytes_for(1, 4'000));
}

// ------------------------------------------------ two-set expressions
//
// The classic coordinated-sampling quantities between two streams —
// union, intersection, difference, Jaccard as |A & B| / |A | B| — are just
// two-operand expressions.

query::QueryResult two_site_query(const std::string& text, const F0Estimator& a,
                                  const F0Estimator& b) {
  query::ResolveSketch resolve = [&](const Expr& leaf) -> const F0Estimator* {
    if (leaf.operand != OperandKind::kSite || leaf.id > 1) return nullptr;
    return leaf.id == 0 ? &a : &b;
  };
  return query::run_query(text, resolve);
}

double two_site_jaccard(const F0Estimator& a, const F0Estimator& b) {
  return two_site_query("site:0 & site:1", a, b).estimate /
         two_site_query("site:0 | site:1", a, b).estimate;
}

TEST(QuerySetExpressions, ExactCountsInTheSmallRegime) {
  // |A| = |B| = 100 with 40 shared: everything fits every copy at level 0,
  // so each answer is an exact count.
  const EstimatorParams p{.capacity = 1024, .copies = 3, .seed = 9};
  F0Estimator a(p), b(p);
  Xoshiro256 rng(1);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t x = rng.next();
    a.add(x);
    b.add(x);
  }
  for (int i = 0; i < 60; ++i) a.add(rng.next());
  for (int i = 0; i < 60; ++i) b.add(rng.next());
  const query::QueryResult uni = two_site_query("site:0 | site:1", a, b);
  EXPECT_EQ(uni.level, 0);
  EXPECT_DOUBLE_EQ(uni.estimate, 160.0);
  EXPECT_DOUBLE_EQ(two_site_query("site:0 & site:1", a, b).estimate, 40.0);
  EXPECT_DOUBLE_EQ(two_site_query("site:0 \\ site:1", a, b).estimate, 60.0);
  EXPECT_DOUBLE_EQ(two_site_jaccard(a, b), 0.25);
}

TEST(QuerySetExpressions, DisjointSetsGiveZeroIntersection) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 22);
  F0Estimator a(params), b(params);
  Xoshiro256 rng(4);
  for (int i = 0; i < 40'000; ++i) a.add(rng.next() | 1);      // odd labels
  for (int i = 0; i < 40'000; ++i) b.add(rng.next() & ~1ull);  // even labels
  EXPECT_DOUBLE_EQ(two_site_query("site:0 & site:1", a, b).estimate, 0.0);
  EXPECT_DOUBLE_EQ(two_site_jaccard(a, b), 0.0);
}

TEST(QuerySetExpressions, IdenticalSetsGiveIntersectionEqualToUnion) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 23);
  F0Estimator a(params), b(params);
  Xoshiro256 rng(5);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t x = rng.next();
    a.add(x);
    b.add(x);
  }
  EXPECT_DOUBLE_EQ(two_site_query("site:0 & site:1", a, b).estimate,
                   two_site_query("site:0 | site:1", a, b).estimate);
  EXPECT_DOUBLE_EQ(two_site_query("site:0 \\ site:1", a, b).estimate, 0.0);
  EXPECT_DOUBLE_EQ(two_site_jaccard(a, b), 1.0);
}

TEST(QuerySetExpressions, UnionMatchesTheMergeEstimate) {
  // While the union fits in capacity the merge raises no level, so the
  // expression union and merge-then-estimate count the same sample.
  const EstimatorParams p{.capacity = 4096, .copies = 5, .seed = 24};
  F0Estimator a(p), b(p);
  Xoshiro256 rng(6);
  for (int i = 0; i < 1500; ++i) a.add(rng.next());
  for (int i = 0; i < 1500; ++i) b.add(rng.next());
  F0Estimator merged = a;
  merged.merge(b);
  EXPECT_DOUBLE_EQ(two_site_query("site:0 | site:1", a, b).estimate, merged.estimate());

  // Under pressure the merge raises its level and the two differ, but both
  // stay within the error band.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 24);
  F0Estimator c(params), d(params);
  for (int i = 0; i < 30'000; ++i) c.add(rng.next());
  for (int i = 0; i < 30'000; ++i) d.add(rng.next());
  F0Estimator both = c;
  both.merge(d);
  EXPECT_NEAR(two_site_query("site:0 | site:1", c, d).estimate, 60'000.0, 6'000.0);
  EXPECT_NEAR(both.estimate(), 60'000.0, 6'000.0);
}

TEST(QuerySetExpressions, MismatchedSeedsRejected) {
  const F0Estimator a(EstimatorParams{.capacity = 32, .copies = 3, .seed = 1});
  const F0Estimator b(EstimatorParams{.capacity = 32, .copies = 3, .seed = 9});
  EXPECT_THROW((void)two_site_query("site:0 & site:1", a, b), QueryError);
}

// Unions over subsets of sites and comparisons between site groups: the
// referee keeps every site's sketch and the expression names the subset.
TEST(QuerySetExpressions, SubsetUnionsAndGroupOverlapMatchExactRecounts) {
  const auto p = EstimatorParams::for_guarantee(0.1, 0.05, 404);
  const auto w = make_distributed_workload(
      {.sites = 6, .union_distinct = 60'000, .overlap = 0.4, .duplication = 2.0, .seed = 3});
  Fixture<F0Estimator> fx;
  for (const auto& stream : w.site_streams) {
    std::vector<std::uint64_t> labels;
    for (const Item& item : stream) labels.push_back(item.label);
    fx.add_site(labels, p);
  }
  for (const char* text : {"site:0", "site:1 | site:2", "site:0 | site:3 | site:5",
                           "site:0 | site:1 | site:2 | site:3 | site:4 | site:5"}) {
    EXPECT_NEAR(fx.evaluate(text).estimate / fx.exact(text), 1.0, 0.1) << text;
  }
  EXPECT_DOUBLE_EQ(fx.evaluate("site:2").estimate, fx.sketches[2].estimate());
  const char* overlap = "(site:0 | site:1 | site:2) & (site:3 | site:4 | site:5)";
  EXPECT_NEAR(fx.evaluate(overlap).estimate / fx.exact(overlap), 1.0, 0.25);
}

// -------------------------------------------------------------- service

TEST(QueryService, RunQueryFormatsTextAndJson) {
  const EstimatorParams p{.capacity = 1024, .copies = 3, .seed = 81};
  Fixture<F0Estimator> fx;
  Xoshiro256 rng(82);
  std::vector<std::uint64_t> labels(5'000);
  for (auto& x : labels) x = rng.next();
  fx.add_site(labels, p);
  query::ResolveSketch resolve = [&fx](const Expr& leaf) -> const F0Estimator* {
    return leaf.operand == OperandKind::kSite && leaf.id == 0 ? &fx.sketches[0]
                                                              : nullptr;
  };
  const query::QueryResult r = query::run_query("site:0", resolve);
  EXPECT_GT(r.estimate, 0.0);
  const std::string text = query::format_query_text("site:0", r);
  EXPECT_NE(text.find("query: site:0"), std::string::npos);
  EXPECT_NE(text.find("estimate: "), std::string::npos);
  const std::string json = query::format_query_json("site:0", r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  for (const char* key : {"\"query\"", "\"estimate\"", "\"std_error\"", "\"level\"",
                          "\"operands\"", "\"candidates\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_THROW((void)query::run_query("site:0 &", resolve), QueryError);
}

// Estimates are count * 2^L, so large ones carry more than six significant
// digits; both renderings must read the estimate back exactly.
TEST(QueryService, LargeEstimatesSurviveFormatting) {
  for (const double estimate : {std::ldexp(1.0, 21) + 1.0, std::ldexp(1234567.0, 5),
                                std::ldexp(987654321.0, 12)}) {
    query::QueryResult r;
    r.estimate = estimate;
    r.std_error = std::sqrt(estimate * 31.0);
    r.level = 5;
    const std::string json = query::format_query_json("site:0", r);
    const auto number_after = [](const std::string& s, const std::string& key) {
      const std::size_t at = s.find(key);
      EXPECT_NE(at, std::string::npos) << key;
      return std::strtod(s.c_str() + at + key.size(), nullptr);
    };
    EXPECT_EQ(number_after(json, "\"estimate\":"), r.estimate) << json;
    EXPECT_NEAR(number_after(json, "\"std_error\":"), r.std_error, 1e-5 * r.std_error);
    const std::string text = query::format_query_text("site:0", r);
    EXPECT_EQ(number_after(text, "estimate: "), r.estimate) << text;
    EXPECT_NEAR(number_after(text, "(± "), r.std_error, 1e-5 * r.std_error);
  }
  // Estimates print as plain decimals, never as "1e+05".
  query::QueryResult r;
  r.estimate = 100000.0;
  EXPECT_NE(query::format_query_json("a", r).find("\"estimate\":100000,"),
            std::string::npos);
}

TEST(QueryService, PercentEncodingRoundTripsAndRejectsMalformed) {
  const std::string exotic = "(site:0 | site:1) & !group:2 \\ a_b %\t\n";
  EXPECT_EQ(query::percent_decode(query::percent_encode(exotic)), exotic);
  // '+' is a space on the way in (admin clients may form-encode).
  EXPECT_EQ(query::percent_decode("a+%26+b"), "a & b");
  EXPECT_THROW((void)query::percent_decode("abc%2"), QueryError);   // truncated
  EXPECT_THROW((void)query::percent_decode("abc%zz"), QueryError);  // bad hex
  // Encoded text survives the one-line admin request format.
  const std::string encoded = query::percent_encode(exotic);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(encoded.find('\n'), std::string::npos);
}

// ------------------------------------------------------ grouped ledgers

std::vector<std::uint8_t> grouped_frame(std::uint32_t site, std::uint32_t epoch,
                                        std::uint16_t group,
                                        PayloadKind kind = PayloadKind::kF0Estimator) {
  static const std::vector<std::uint8_t> payload{1, 2, 3};
  return frame_encode({kind, site, epoch, group}, payload);
}

TEST(GroupedCollect, ExactlyOnceKeepsFirstGroupTag) {
  CollectState state(2, PayloadKind::kF0Estimator, DedupMode::kExactlyOnce);
  const auto acc = state.ingest(grouped_frame(0, 0, 5));
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->group, 5u);
  EXPECT_EQ(state.report().per_site[0].group, 5u);
  // A duplicate (same site+epoch) is dropped even if it claims another
  // group: the ledger keeps the accepted tag.
  EXPECT_FALSE(state.ingest(grouped_frame(0, 0, 7)).has_value());
  EXPECT_EQ(state.report().duplicates_dropped, 1u);
  EXPECT_EQ(state.report().per_site[0].group, 5u);
  // Ungrouped legacy frames land in group 0.
  const auto legacy = state.ingest(grouped_frame(1, 0, 0));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->group, 0u);
  EXPECT_EQ(state.report().per_site[1].group, 0u);
}

TEST(GroupedCollect, LatestWinsRetagsOnNewerEpochOnly) {
  CollectState state(1, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  ASSERT_TRUE(state.ingest(grouped_frame(0, 1, 1)).has_value());
  EXPECT_EQ(state.report().per_site[0].group, 1u);
  // Newer epoch re-tags the site (a site moved between tenants).
  ASSERT_TRUE(state.ingest(grouped_frame(0, 2, 2)).has_value());
  EXPECT_EQ(state.report().per_site[0].group, 2u);
  // Stale frames do not roll the tag back.
  EXPECT_FALSE(state.ingest(grouped_frame(0, 1, 1)).has_value());
  EXPECT_EQ(state.report().stale_dropped, 1u);
  EXPECT_EQ(state.report().per_site[0].group, 2u);
}

TEST(GroupedCollect, RefusalAndRestoreCarryGroups) {
  CollectState state(1, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  ASSERT_TRUE(state.ingest(grouped_frame(0, 1, 3)).has_value());
  // The sink refuses the epoch-2 re-tag: the ledger keeps the prior
  // (epoch, group) pair, not just the epoch.
  Frame refused = frame_decode(grouped_frame(0, 2, 4));
  EXPECT_EQ(state.admit(refused, [](Frame&) { return false; }), Verdict::kQuarantined);
  EXPECT_EQ(state.report().per_site[0].accepted_epoch, 1u);
  EXPECT_EQ(state.report().per_site[0].group, 3u);
  // Crash recovery transplants (site, epoch, group) in one call.
  CollectState resumed(2, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  resumed.restore_accepted(1, 9, 6);
  EXPECT_TRUE(resumed.report().per_site[1].reported);
  EXPECT_EQ(resumed.report().per_site[1].accepted_epoch, 9u);
  EXPECT_EQ(resumed.report().per_site[1].group, 6u);
}

TEST(GroupedCollect, DeltaWithChangedGroupForcesResync) {
  CollectState state(1, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  state.enable_deltas(PayloadKind::kF0Delta);
  ASSERT_TRUE(state.ingest(grouped_frame(0, 1, 2)).has_value());
  // A delta that extends the chain but claims a different group is a stale
  // mirror of a re-tagged site: drop it and demand a full re-base.
  EXPECT_FALSE(state.ingest(grouped_frame(0, 2, 3, PayloadKind::kF0Delta)).has_value());
  EXPECT_EQ(state.report().resyncs, 1u);
  EXPECT_EQ(state.report().per_site[0].group, 2u);
  // The same delta under the chain's own group extends it.
  const auto acc = state.ingest(grouped_frame(0, 2, 2, PayloadKind::kF0Delta));
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc->kind, PayloadKind::kF0Delta);
  EXPECT_EQ(state.report().per_site[0].accepted_epoch, 2u);
}

TEST(GroupedCollect, ReduceGroupsBucketsDeterministically) {
  const EstimatorParams p{.capacity = 512, .copies = 3, .seed = 91};
  Xoshiro256 rng(92);
  auto sketch = [&](int items) {
    F0Estimator est(p);
    for (int i = 0; i < items; ++i) est.add(rng.next());
    return est;
  };
  // Sites 0..4 tagged {2, 1, 2, 0, 1}; site 5 never reported.
  const std::uint16_t tags[] = {2, 1, 2, 0, 1};
  CollectReport report;
  report.sites_total = 6;
  report.per_site.resize(6);
  std::vector<std::optional<F0Estimator>> accepted(6);
  std::vector<F0Estimator> originals;
  for (std::size_t s = 0; s < 5; ++s) {
    report.per_site[s].reported = true;
    report.per_site[s].group = tags[s];
    originals.push_back(sketch(2'000 + static_cast<int>(s) * 100));
    accepted[s] = originals.back();
  }
  const auto groups = reduce_groups<F0Estimator>(report, std::move(accepted));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].group, 0u);
  EXPECT_EQ(groups[1].group, 1u);
  EXPECT_EQ(groups[2].group, 2u);
  EXPECT_EQ(groups[0].sites, (std::vector<std::size_t>{3}));
  EXPECT_EQ(groups[1].sites, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(groups[2].sites, (std::vector<std::size_t>{0, 2}));
  // Byte identity against a sequential site-order fold per bucket — the
  // single-group-per-collection equivalence the sharded tests build on.
  for (const auto& g : groups) {
    F0Estimator manual = originals[g.sites[0]];
    for (std::size_t i = 1; i < g.sites.size(); ++i) manual.merge(originals[g.sites[i]]);
    EXPECT_EQ(g.sketch.serialize(), manual.serialize()) << "group " << g.group;
  }
}

}  // namespace
}  // namespace ustream
