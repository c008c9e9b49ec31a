// E19 — the query engine: what a set-expression answer costs. Rows gated
// against bench/BENCH_query.json by `bench/run_gates.py query`:
//
//   * BM_QueryParse/<ops> — tokenize + parse an <ops>-operand expression;
//     items == expressions, so items_per_second is parses per second.
//   * BM_QueryEval/<ops>  — the DLRT common-threshold evaluation over
//     <ops> coordinated sketches (parse hoisted out of the loop); the
//     dominant cost is walking each copy's retained entries at the common
//     level, so the row scales with operands x capacity x copies. The
//     copies run on MergeEngine::shared()'s pool, so the row reports wall
//     time (UseRealTime): the caller's CPU time would leave out the pool
//     threads' share.
//   * BM_QueryEndToEnd    — a full `GET /query?e=...` admin round trip
//     (connect, percent-decode, resolve, evaluate, format, close) against
//     a LIVE RefereeServer with the query handler installed — the path
//     `ustream query --from` exercises.
//
// The runner's floor: parse must stay >= 10x faster than evaluation at 8
// operands — the grammar is off the hot path, and a parser rewrite that
// lands it there should trip a gate, not a profile.
#include <benchmark/benchmark.h>

#include <sys/socket.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/f0_estimator.h"
#include "core/params.h"
#include "net/referee_server.h"
#include "net/socket.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/service.h"
#include "stream/partitioner.h"

namespace {
using namespace ustream;

// "(site:0 | ... | site:n-2) \ site:n-1": n operands, mixed operators,
// bounded at the top level (a pure union chain would be, too, but the
// difference keeps the evaluator's mask machine honest).
std::string expr_with_operands(std::size_t n) {
  std::string s = "(";
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i > 0) s += " | ";
    s += "site:" + std::to_string(i);
  }
  s += ") \\ site:" + std::to_string(n - 1);
  return s;
}

// Coordinated per-site sketches over a shared overlapping workload — the
// operand pool every row draws from.
std::vector<F0Estimator> make_sketches(std::size_t sites) {
  DistributedConfig config;
  config.sites = sites;
  config.union_distinct = 60'000;
  config.overlap = 0.3;
  config.seed = 19;
  const DistributedWorkload data = make_distributed_workload(config);
  const EstimatorParams params = EstimatorParams::for_guarantee(0.1, 0.05, 19);
  std::vector<F0Estimator> out;
  for (std::size_t s = 0; s < sites; ++s) {
    F0Estimator est(params);
    for (const Item& item : data.site_streams[s]) est.add(item.label);
    out.push_back(std::move(est));
  }
  return out;
}

query::ResolveSketch resolver(const std::vector<F0Estimator>& sketches) {
  return [&sketches](const query::Expr& leaf) -> const F0Estimator* {
    if (leaf.operand != query::OperandKind::kSite) return nullptr;
    return leaf.id < sketches.size() ? &sketches[leaf.id] : nullptr;
  };
}

void BM_QueryParse(benchmark::State& state) {
  const std::string text = expr_with_operands(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::parse(text));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryParse)->Arg(2)->Arg(4)->Arg(8);

void BM_QueryEval(benchmark::State& state) {
  const auto ops = static_cast<std::size_t>(state.range(0));
  const std::vector<F0Estimator> sketches = make_sketches(ops);
  const query::ExprPtr expr = query::parse(expr_with_operands(ops));
  const query::ResolveSketch resolve = resolver(sketches);
  for (auto _ : state) {
    const query::QueryResult r = query::evaluate<F0Estimator>(*expr, resolve);
    benchmark::DoNotOptimize(r.estimate);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(std::to_string(sketches.front().num_copies()) + " copies");
}
BENCHMARK(BM_QueryEval)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMicrosecond);

// One admin round trip, same shape as `ustream query --from`: connect,
// one-line request, read to EOF (the admin protocol is response-then-close).
std::string admin_roundtrip(std::uint16_t port, const std::string& request) {
  net::Socket sock = net::connect_tcp("127.0.0.1", port, std::chrono::milliseconds{2000},
                                      std::chrono::milliseconds{2000});
  const std::string line = request + "\n";
  net::send_all(sock, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  return out;
}

void BM_QueryEndToEnd(benchmark::State& state) {
  const std::vector<F0Estimator> sketches = make_sketches(4);
  net::RefereeServerConfig config;
  config.sites = 1;  // never reports: the loop runs until request_stop()
  config.dedup = DedupMode::kLatestWins;
  config.admin_port = 0;
  config.query_handler = [&sketches](const std::string& raw, bool as_json) {
    const std::string text = query::percent_decode(raw);
    const query::QueryResult r = query::run_query(text, resolver(sketches));
    return as_json ? query::format_query_json(text, r)
                   : query::format_query_text(text, r);
  };
  net::RefereeServer server(std::move(config));
  std::thread referee([&server] {
    server.run([](std::size_t, std::uint32_t, std::uint16_t, PayloadKind,
                  std::vector<std::uint8_t>&&) { return true; });
  });
  const std::string request =
      "GET /query?e=" + query::percent_encode("(site:0 | site:1) & !site:2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(admin_roundtrip(*server.admin_port(), request));
  }
  server.request_stop();
  referee.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryEndToEnd)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
