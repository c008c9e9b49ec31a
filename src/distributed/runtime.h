// DistributedRun — the end-to-end shape of the paper's model for any
// mergeable, serializable sketch:
//
//   1. each of t sites owns a private sketch built from the SAME root seed
//      (the coordination contract) and observes only its own stream;
//   2. when a site's stream ends, it serializes its sketch, wraps it in a
//      checksummed wire frame (common/frame.h) and sends it to the referee
//      over the Transport — one LOGICAL message per site; the transport may
//      require retransmissions, and the referee dedups by (site, epoch) so
//      each site is merged exactly once;
//   3. the referee validates frames (quarantining any that fail CRC or
//      decode), merges the accepted sketches in site order, and answers
//      queries about the UNION of the streams. If some sites never get a
//      frame through within the retry budget, the merge proceeds without
//      them: the estimate is then a certified lower bound and the
//      CollectReport says exactly which prefixes are missing.
//
// Sketch requirements (concept UnionSketch): add-like mutators (left to the
// caller), serialize() -> bytes, static deserialize(span), merge(Sketch).
// F0Estimator, DistinctSumEstimator and RangeF0Estimator all satisfy it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/frame.h"
#include "core/distinct_sum.h"
#include "core/f0_estimator.h"
#include "distributed/channel.h"
#include "distributed/collect.h"
#include "distributed/transport.h"

namespace ustream {

template <typename S>
concept UnionSketch = requires(S s, const S cs, std::span<const std::uint8_t> bytes) {
  { cs.serialize() } -> std::convertible_to<std::vector<std::uint8_t>>;
  { S::deserialize(bytes) } -> std::convertible_to<S>;
  s.merge(cs);
};

// Frame-layer type tag for a sketch, so a frame of one protocol cannot be
// fed to another even when both payloads happen to parse. Unregistered
// sketch types travel as kOpaque (still CRC-protected, just untyped).
template <typename Sketch>
struct FrameKindOf {
  static constexpr PayloadKind value = PayloadKind::kOpaque;
};
template <typename Hash>
struct FrameKindOf<BasicF0Estimator<Hash>> {
  static constexpr PayloadKind value = PayloadKind::kF0Estimator;
};
template <typename Hash, typename V>
struct FrameKindOf<BasicDistinctSumEstimator<Hash, V>> {
  static constexpr PayloadKind value = PayloadKind::kDistinctSum;
};

template <UnionSketch Sketch>
class DistributedRun {
 public:
  // `make_sketch` must produce identically-parameterized sketches (same
  // root seed) — sites clone the referee's configuration, never invent
  // their own, mirroring how a deployment ships one config to all monitors.
  // The default transport is the perfect in-process Channel; pass a
  // FaultyChannel to soak the collection protocol.
  DistributedRun(std::size_t sites, const std::function<Sketch()>& make_sketch,
                 std::unique_ptr<Transport> transport = nullptr)
      : make_sketch_(make_sketch),
        transport_(transport ? std::move(transport) : std::make_unique<Channel>(sites)) {
    USTREAM_REQUIRE(sites >= 1, "need at least one site");
    USTREAM_REQUIRE(transport_->num_sites() == sites,
                    "transport site count does not match the run");
    sites_.reserve(sites);
    for (std::size_t i = 0; i < sites; ++i) sites_.push_back(make_sketch_());
  }

  std::size_t num_sites() const noexcept { return sites_.size(); }

  // Mutable access to site i's sketch during the observation phase.
  Sketch& site(std::size_t i) {
    if (collected_) {
      throw ProtocolError("observation phase is over: site sketches are sealed after collect()");
    }
    return sites_.at(i);
  }

  // Ends the observation phase: every site ships its framed sketch; the
  // referee retries per policy, dedups by (site, epoch), quarantines
  // corrupt frames and merges whatever arrived in site order — on the
  // merge engine's pool (tree reduction, byte-identical to the sequential
  // fold; pass an engine to control pool size). Idempotent via the
  // collected_ latch (the report of the first collect() stands).
  const Sketch& collect(const RetryPolicy& policy = RetryPolicy{},
                        MergeEngine* engine = nullptr) {
    if (collected_) return *referee_;
    CollectState state(sites_.size(), FrameKindOf<Sketch>::value, DedupMode::kExactlyOnce);
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(sites_.size());
    for (const Sketch& s : sites_) payloads.push_back(s.serialize());
    std::vector<std::optional<Sketch>> accepted(sites_.size());
    // A payload that will not parse despite its CRC (a 2^-32 collision on
    // a corrupted frame) is refused: quarantined, and the site stays open
    // for the retry loop rather than poisoning the merge.
    const auto sink = [&accepted](Frame& frame) {
      try {
        accepted[frame.header.site].emplace(
            Sketch::deserialize(std::span<const std::uint8_t>(frame.payload)));
        return true;
      } catch (const SerializationError&) {
        return false;
      }
    };
    const auto ingest_drained = [&] {
      for (const auto& message : transport_->drain()) state.admit(message, sink);
    };

    for (std::uint32_t round = 0; round < policy.max_attempts_per_site; ++round) {
      if (round > 0) apply_backoff(policy, round);
      bool sent_any = false;
      for (std::size_t i = 0; i < sites_.size(); ++i) {
        if (state.site_reported(i)) continue;
        state.record_send(i);
        transport_->send(i, frame_encode({FrameKindOf<Sketch>::value,
                                          static_cast<std::uint32_t>(i), /*epoch=*/0},
                                         payloads[i]));
        sent_any = true;
      }
      if (!sent_any) break;
      ingest_drained();
      if (state.all_reported()) break;
    }
    state.finalize(policy.max_attempts_per_site);

    // Tree-reduce in site order on the engine's pool: bit-identical to
    // the sequential site-order fold regardless of delivery order, pool
    // size or scheduling (merge_engine.h).
    referee_ = (engine ? *engine : MergeEngine::shared()).reduce(std::move(accepted));
    // Total loss still yields a queryable (empty) referee — maximally
    // degraded, and the report says so.
    if (!referee_) referee_.emplace(make_sketch_());
    report_ = state.report();
    collected_ = true;
    return *referee_;
  }

  // The merged union sketch; referee state only exists after collect().
  const Sketch& referee() const {
    if (!collected_) {
      throw ProtocolError("referee queried before collection: call collect() first");
    }
    return *referee_;
  }

  // How collection went: reported/missing sites, retries, quarantined and
  // deduplicated frames. Only meaningful after collect().
  const CollectReport& collect_report() const {
    if (!collected_) {
      throw ProtocolError("collect report requested before collection");
    }
    return report_;
  }

  bool collected() const noexcept { return collected_; }
  ChannelStats channel_stats() const { return transport_->stats(); }
  Transport& transport() noexcept { return *transport_; }

 private:
  std::function<Sketch()> make_sketch_;
  std::vector<Sketch> sites_;
  std::unique_ptr<Transport> transport_;
  std::optional<Sketch> referee_;
  CollectReport report_;
  bool collected_ = false;
};

// Feeds per-site workloads concurrently, one thread per site — each site's
// sketch is touched only by its own thread, exactly the isolation the model
// prescribes. `feed(site_index, sketch)` must only touch that sketch.
template <UnionSketch Sketch>
void observe_in_parallel(DistributedRun<Sketch>& run,
                         const std::function<void(std::size_t, Sketch&)>& feed) {
  std::vector<std::thread> threads;
  threads.reserve(run.num_sites());
  for (std::size_t i = 0; i < run.num_sites(); ++i) {
    threads.emplace_back([&run, &feed, i] { feed(i, run.site(i)); });
  }
  for (auto& t : threads) t.join();
}

}  // namespace ustream
