// Coordinated samples support more than the union: because every sketch
// flips the SAME per-label coins, two sketches are comparable element-wise,
// giving intersection / difference / Jaccard estimates between streams that
// never met. (This is the trick modern theta sketches inherit from
// coordinated sampling.)
//
// Scenario: audience overlap between two ad campaigns, measured from
// per-campaign impression streams at two different servers.
#include <cstdio>

#include "common/random.h"
#include "query/service.h"

int main() {
  using namespace ustream;

  // Both servers agree on parameters once (seed is the coordination).
  const EstimatorParams params = EstimatorParams::for_guarantee(0.05, 0.01, 1618);

  // Campaign A reaches 1.2M users, campaign B 0.9M; 300k saw both.
  constexpr std::uint64_t kOnlyA = 900'000, kOnlyB = 600'000, kBoth = 300'000;
  F0Estimator campaign_a(params), campaign_b(params);
  Xoshiro256 rng(5);
  for (std::uint64_t i = 0; i < kBoth; ++i) {
    const std::uint64_t user = rng.next();
    campaign_a.add(user);
    campaign_b.add(user);
  }
  for (std::uint64_t i = 0; i < kOnlyA; ++i) campaign_a.add(rng.next());
  for (std::uint64_t i = 0; i < kOnlyB; ++i) campaign_b.add(rng.next());

  // The query engine names the two sketches site:0 and site:1; every
  // quantity below is one set expression over them.
  const query::ResolveSketch campaigns = [&](const query::Expr& leaf) -> const F0Estimator* {
    if (leaf.operand != query::OperandKind::kSite || leaf.id > 1) return nullptr;
    return leaf.id == 0 ? &campaign_a : &campaign_b;
  };
  const auto estimate = [&](const char* expr) {
    return query::run_query(expr, campaigns).estimate;
  };
  const double union_est = estimate("site:0 | site:1");
  const double overlap_est = estimate("site:0 & site:1");
  const double union_truth = kOnlyA + kOnlyB + kBoth;
  const double jaccard_truth = static_cast<double>(kBoth) / union_truth;

  std::printf("%-22s %12s %12s\n", "quantity", "truth", "estimate");
  std::printf("%-22s %12.0f %12.0f\n", "|A| (reach A)", double(kOnlyA + kBoth),
              campaign_a.estimate());
  std::printf("%-22s %12.0f %12.0f\n", "|B| (reach B)", double(kOnlyB + kBoth),
              campaign_b.estimate());
  std::printf("%-22s %12.0f %12.0f\n", "|A u B| (total reach)", union_truth, union_est);
  std::printf("%-22s %12.0f %12.0f\n", "|A n B| (overlap)", double(kBoth), overlap_est);
  std::printf("%-22s %12.0f %12.0f\n", "|A \\ B|", double(kOnlyA), estimate("site:0 \\ site:1"));
  std::printf("%-22s %12.4f %12.4f\n", "Jaccard", jaccard_truth, overlap_est / union_est);
  std::printf("\nsketch memory per server: %zu bytes\n", campaign_a.bytes_used());
  return 0;
}
