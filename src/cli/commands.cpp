#include "cli/commands.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <tuple>

#include "common/random.h"

#include "baselines/exact.h"
#include "cli/args.h"
#include "common/frame.h"
#include "common/serialize.h"
#include "core/params.h"
#include "distributed/continuous.h"
#include "distributed/faulty_channel.h"
#include "distributed/runtime.h"
#include "distributed/site_store.h"
#include "durability/recovery.h"
#include "freq/freq_sketch.h"
#include "freq/universal_sketch.h"
#include "net/referee_server.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "query/service.h"
#include "stream/generators.h"
#include "stream/partitioner.h"
#include "stream/trace_io.h"

namespace ustream::cli {

namespace {

// printf onto the end of `out`, sized from vsnprintf's own count, so a
// long line (a --json heavy-hitter table, a deep path) is never cut short.
void vappendf(std::string& out, const char* format, va_list args) {
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  if (n <= 0) return;
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, format, args);
  out.resize(at + static_cast<std::size_t>(n));
}

void appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  vappendf(out, format, args);
  va_end(args);
}

// appendf plus a newline: one output line.
void append(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  vappendf(out, format, args);
  va_end(args);
  out += '\n';
}

// Minimal JSON string escaping for the --json output lines (paths are the
// only free-form strings we emit).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(out, "\\u%04x", static_cast<unsigned>(c) & 0xff);
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --group G: the frame's group tag (0 = ungrouped).
std::uint16_t parse_group(const Args& args) {
  const std::uint64_t group = args.u64("group", 0);
  USTREAM_REQUIRE(group <= 0xffff, "--group out of range (max 65535)");
  return static_cast<std::uint16_t>(group);
}

// "HOST:PORT" as used by --to/--from/--upstream. The flag name is only for
// the error message.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& flag,
                                                      const std::string& value) {
  const auto colon = value.rfind(':');
  USTREAM_REQUIRE(colon != std::string::npos && colon > 0 && colon + 1 < value.size(),
                  flag + " expects host:port, got '" + value + "'");
  const std::uint64_t port = std::strtoull(value.c_str() + colon + 1, nullptr, 10);
  USTREAM_REQUIRE(port >= 1 && port <= 0xffff, flag + " port out of range in '" + value + "'");
  return {value.substr(0, colon), static_cast<std::uint16_t>(port)};
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  USTREAM_REQUIRE(f != nullptr, "cannot open file: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size < 0 ? 0 : size));
  const bool ok = buf.empty() || std::fread(buf.data(), 1, buf.size(), f) == buf.size();
  std::fclose(f);
  if (!ok) throw SerializationError("short read: " + path);
  return buf;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  USTREAM_REQUIRE(f != nullptr, "cannot open file for writing: " + path);
  const bool ok = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) throw SerializationError("short write: " + path);
}

int cmd_generate(const Args& args, std::string& out) {
  StreamConfig config;
  config.distinct = args.u64("distinct", 100'000);
  config.total_items = args.u64("items", config.distinct * 3);
  config.zipf_alpha = args.f64("alpha", 1.0);
  config.seed = args.u64("seed", 1);
  config.value_lo = args.f64("value-lo", 0.0);
  config.value_hi = args.f64("value-hi", 1.0);
  const std::string kind = args.str("labels", "random");
  config.label_kind = kind == "sequential" ? LabelKind::kSequential
                      : kind == "clustered" ? LabelKind::kClustered
                                            : LabelKind::kRandom64;
  const std::string path = args.required_str("out");
  args.reject_unknown();
  SyntheticStream stream(config);
  write_trace(path, stream.to_vector());
  append(out, "wrote %zu items (%zu distinct, alpha %.2f) to %s", config.total_items,
         config.distinct, config.zipf_alpha, path.c_str());
  return 0;
}

// Framed freq/universal sketch files share the F0 file shape: one CRC
// frame whose kind tags the payload; site/epoch are 0 for files at rest.
void write_framed_payload(const std::string& path, PayloadKind kind,
                          const std::vector<std::uint8_t>& payload,
                          std::uint16_t group = 0) {
  write_file(path, frame_encode({kind, 0, 0, group}, payload));
}

// Kind of a sketch file for dispatch: its frame header's tag. Every sketch
// file is CRC32C-framed (common/frame.h); unframed bytes are refused.
PayloadKind framed_kind_of(const std::string& path) {
  const auto bytes = read_file(path);
  if (!looks_like_frame(bytes)) throw SerializationError("not a framed sketch file: " + path);
  return frame_decode(bytes).header.kind;
}

Frame read_framed_kind(const std::string& path, PayloadKind kind) {
  const auto bytes = read_file(path);
  if (!looks_like_frame(bytes)) {
    throw SerializationError(std::string("not a framed ") + payload_kind_name(kind) +
                             " file: " + path);
  }
  Frame frame = frame_decode(bytes);
  if (frame.header.kind != kind) {
    throw SerializationError(std::string("sketch file ") + path + " carries a " +
                             payload_kind_name(frame.header.kind) + " frame, expected " +
                             payload_kind_name(kind));
  }
  return frame;
}

FreqSketch read_freq_file(const std::string& path) {
  const Frame frame = read_framed_kind(path, PayloadKind::kFreqSketch);
  return FreqSketch::deserialize(std::span<const std::uint8_t>(frame.payload));
}

UniversalSketch read_universal_file(const std::string& path) {
  const Frame frame = read_framed_kind(path, PayloadKind::kUniversalSketch);
  return UniversalSketch::deserialize(std::span<const std::uint8_t>(frame.payload));
}

// `top(K)` / `freq(LABEL)` — the frequency query surface. Returns false
// when `text` is not a call of that name; throws InvalidArgument on a
// malformed argument.
bool parse_freq_call(const std::string& text, const char* name, std::uint64_t& value) {
  const std::string prefix = std::string(name) + "(";
  if (text.rfind(prefix, 0) != 0) return false;
  USTREAM_REQUIRE(text.size() > prefix.size() + 1 && text.back() == ')',
                  std::string(name) + " expects " + name + "(N)");
  const std::string num = text.substr(prefix.size(), text.size() - prefix.size() - 1);
  char* end = nullptr;
  value = std::strtoull(num.c_str(), &end, 10);
  USTREAM_REQUIRE(end != nullptr && *end == '\0' && !num.empty(),
                  std::string(name) + " expects a non-negative integer, got '" + num + "'");
  return true;
}

// [{"label":..,"estimate":..,"lower":..,"upper":..},...] for --json output.
std::string hitters_json(const std::vector<FreqSketch::HeavyHitter>& hitters) {
  std::string out = "[";
  for (std::size_t i = 0; i < hitters.size(); ++i) {
    appendf(out, "%s{\"label\":%llu,\"estimate\":%llu,\"lower\":%llu,\"upper\":%llu}",
            i > 0 ? "," : "", static_cast<unsigned long long>(hitters[i].label),
            static_cast<unsigned long long>(hitters[i].estimate),
            static_cast<unsigned long long>(hitters[i].lower),
            static_cast<unsigned long long>(hitters[i].upper));
  }
  out += ']';
  return out;
}

void append_hitter_lines(std::string& out, const std::vector<FreqSketch::HeavyHitter>& hitters) {
  for (const auto& hh : hitters) {
    append(out, "  label %llu: ~%llu in [%llu, %llu]", static_cast<unsigned long long>(hh.label),
           static_cast<unsigned long long>(hh.estimate),
           static_cast<unsigned long long>(hh.lower),
           static_cast<unsigned long long>(hh.upper));
  }
}

// Answers a top(k)/freq(label) expression against one (already merged)
// freq sketch — shared by `query` over files and the freq referee's admin
// /query endpoint.
std::string freq_query_answer(const FreqSketch& sketch, const std::string& text,
                              bool as_json) {
  std::string out;
  std::uint64_t arg = 0;
  if (parse_freq_call(text, "top", arg)) {
    const auto hitters = sketch.top(static_cast<std::size_t>(arg));
    if (as_json) {
      append(out, "{\"query\":\"%s\",\"f1\":%llu,\"hitters\":%s}", json_escape(text).c_str(),
             static_cast<unsigned long long>(sketch.items_processed()),
             hitters_json(hitters).c_str());
    } else {
      append(out, "%s: %zu heavy hitters over %llu items", text.c_str(), hitters.size(),
             static_cast<unsigned long long>(sketch.items_processed()));
      append_hitter_lines(out, hitters);
    }
    return out;
  }
  if (parse_freq_call(text, "freq", arg)) {
    const auto bound = sketch.bound(arg);
    const std::uint64_t estimate = sketch.estimate(arg);
    const bool tracked = sketch.heavy().contains(arg);
    if (as_json) {
      append(out,
             "{\"query\":\"%s\",\"label\":%llu,\"estimate\":%llu,"
             "\"lower\":%llu,\"upper\":%llu,\"tracked\":%s}",
             json_escape(text).c_str(), static_cast<unsigned long long>(arg),
             static_cast<unsigned long long>(estimate),
             static_cast<unsigned long long>(bound.lower),
             static_cast<unsigned long long>(bound.upper), tracked ? "true" : "false");
    } else {
      append(out, "%s: ~%llu in [%llu, %llu]%s", text.c_str(),
             static_cast<unsigned long long>(estimate),
             static_cast<unsigned long long>(bound.lower),
             static_cast<unsigned long long>(bound.upper),
             tracked ? "" : " (untracked: upper is the absent bound)");
    }
    return out;
  }
  throw InvalidArgument("freq queries are top(K) or freq(LABEL), got '" + text + "'");
}

// `sketch --kind freq|universal`: frequency summaries over the trace,
// written under their own PayloadKinds. Batched ingest end to end.
int cmd_sketch_freq(const Args& args, bool universal, std::string& out) {
  const std::string in = args.required_str("in");
  const std::string out_path = args.required_str("out");
  const std::uint64_t seed = args.u64("seed", 0x5eed0123456789abULL);
  const std::uint16_t group = parse_group(args);
  const std::size_t depth = args.u64("depth", 4);
  const std::size_t width_log2 = args.u64("width-log2", universal ? 10 : 12);
  const std::size_t heavy = args.u64("heavy", universal ? 32 : 64);
  const std::size_t levels = args.u64("levels", 8);
  args.reject_unknown();
  const auto items = read_trace(in);
  std::vector<std::uint64_t> labels;
  labels.reserve(items.size());
  for (const Item& item : items) labels.push_back(item.label);
  if (universal) {
    UniversalSketch sketch({.levels = levels, .depth = depth, .width_log2 = width_log2,
                            .heavy_capacity = heavy, .seed = seed});
    sketch.add_batch(labels);
    write_framed_payload(out_path, PayloadKind::kUniversalSketch, sketch.serialize(), group);
    append(out,
           "sketched %zu items from %s -> %s (%zu bytes, %zu levels, f1 %.0f, "
           "f2 %.4g, entropy %.3f bits)",
           items.size(), in.c_str(), out_path.c_str(), read_file(out_path).size(),
           sketch.levels(), sketch.f1(), sketch.f2(), sketch.entropy());
  } else {
    FreqSketch sketch({.depth = depth, .width_log2 = width_log2, .heavy_capacity = heavy,
                       .seed = seed});
    sketch.add_batch(labels);
    write_framed_payload(out_path, PayloadKind::kFreqSketch, sketch.serialize(), group);
    append(out,
           "sketched %zu items from %s -> %s (%zu bytes, %zux%zu counters, "
           "%zu tracked heavy labels, f2 %.4g)",
           items.size(), in.c_str(), out_path.c_str(), read_file(out_path).size(),
           sketch.count_sketch().depth(), sketch.count_sketch().width(),
           sketch.heavy().size(), sketch.f2());
  }
  return 0;
}

int cmd_sketch(const Args& args, std::string& out) {
  const std::string sketch_kind = args.str("kind", "f0");
  if (sketch_kind == "freq" || sketch_kind == "universal") {
    return cmd_sketch_freq(args, sketch_kind == "universal", out);
  }
  USTREAM_REQUIRE(sketch_kind == "f0", "--kind must be f0, freq, or universal");
  const std::string in = args.required_str("in");
  const std::string out_path = args.required_str("out");
  const double eps = args.f64("eps", 0.1);
  const double delta = args.f64("delta", 0.05);
  const std::uint64_t seed = args.u64("seed", 0x5eed0123456789abULL);
  const std::uint16_t group = parse_group(args);
  args.reject_unknown();
  F0Estimator estimator(EstimatorParams::for_guarantee(eps, delta, seed));
  const auto items = read_trace(in);
  for (const Item& item : items) estimator.add(item.label);
  write_sketch_file(out_path, estimator, group);
  append(out, "sketched %zu items from %s -> %s (%zu bytes, estimate %.0f)", items.size(),
         in.c_str(), out_path.c_str(), read_file(out_path).size(), estimator.estimate());
  return 0;
}

// Pre-scan framed inputs for a payload-kind mismatch so a mixed batch
// fails with ONE line naming both kinds ("a.sk is f0-estimator, b.sk is
// bottom-k") instead of the generic per-file decode error a user has to
// cross-reference by hand. Unframed/corrupt files are skipped here — they
// produce their own precise error when actually read.
void require_uniform_kinds(const std::vector<std::string>& paths) {
  std::optional<PayloadKind> first_kind;
  std::string first_path;
  for (const auto& path : paths) {
    PayloadKind kind;
    try {
      const auto bytes = read_file(path);
      if (!looks_like_frame(bytes)) continue;
      kind = frame_decode(bytes).header.kind;
    } catch (const std::exception&) {
      continue;
    }
    if (!first_kind.has_value()) {
      first_kind = kind;
      first_path = path;
    } else if (kind != *first_kind) {
      throw InvalidArgument("inputs mix payload kinds: " + first_path + " is " +
                            payload_kind_name(*first_kind) + ", " + path + " is " +
                            payload_kind_name(kind));
    }
  }
}

// The files' sketches folded in order — the referee's site-order fold.
template <typename Sketch>
Sketch merge_files(const std::vector<std::string>& paths, Sketch (*read)(const std::string&)) {
  Sketch merged = read(paths[0]);
  for (std::size_t i = 1; i < paths.size(); ++i) merged.merge(read(paths[i]));
  return merged;
}

int cmd_merge(const Args& args, std::string& out) {
  const std::string out_path = args.required_str("out");
  args.reject_unknown();
  const auto& inputs = args.positional();
  USTREAM_REQUIRE(!inputs.empty(), "merge needs at least one input sketch");
  require_uniform_kinds(inputs);
  const PayloadKind kind = framed_kind_of(inputs[0]);
  if (kind == PayloadKind::kFreqSketch) {
    const FreqSketch merged = merge_files(inputs, read_freq_file);
    write_framed_payload(out_path, PayloadKind::kFreqSketch, merged.serialize());
    append(out, "merged %zu freq sketches -> %s (%llu items, %zu tracked heavy labels)",
           inputs.size(), out_path.c_str(),
           static_cast<unsigned long long>(merged.items_processed()),
           merged.heavy().size());
    return 0;
  }
  if (kind == PayloadKind::kUniversalSketch) {
    const UniversalSketch merged = merge_files(inputs, read_universal_file);
    write_framed_payload(out_path, PayloadKind::kUniversalSketch, merged.serialize());
    append(out, "merged %zu universal sketches -> %s (f1 %.0f, f2 %.4g, entropy %.3f bits)",
           inputs.size(), out_path.c_str(), merged.f1(), merged.f2(), merged.entropy());
    return 0;
  }
  const F0Estimator merged = merge_files(inputs, read_sketch_file);
  write_sketch_file(out_path, merged);
  append(out, "merged %zu sketches -> %s (union estimate %.0f)", inputs.size(),
         out_path.c_str(), merged.estimate());
  return 0;
}

int cmd_estimate(const Args& args, std::string& out) {
  const bool json = args.flag("json");
  args.reject_unknown();
  USTREAM_REQUIRE(!args.positional().empty(), "estimate needs a sketch file");
  require_uniform_kinds(args.positional());
  for (const auto& path : args.positional()) {
    const PayloadKind kind = framed_kind_of(path);
    if (kind == PayloadKind::kFreqSketch) {
      const FreqSketch est = read_freq_file(path);
      if (json) {
        append(out,
               "{\"file\":\"%s\",\"f1\":%llu,\"f2\":%.17g,\"tracked\":%zu,"
               "\"absent_bound\":%llu}",
               json_escape(path).c_str(),
               static_cast<unsigned long long>(est.items_processed()), est.f2(),
               est.heavy().size(),
               static_cast<unsigned long long>(est.heavy().absent_bound()));
      } else {
        append(out, "%s: %llu items, f2 %.4g, %zu tracked heavy labels (absent bound %llu)",
               path.c_str(), static_cast<unsigned long long>(est.items_processed()),
               est.f2(), est.heavy().size(),
               static_cast<unsigned long long>(est.heavy().absent_bound()));
      }
      continue;
    }
    if (kind == PayloadKind::kUniversalSketch) {
      const UniversalSketch est = read_universal_file(path);
      if (json) {
        append(out,
               "{\"file\":\"%s\",\"f1\":%.17g,\"f2\":%.17g,\"entropy\":%.17g,"
               "\"levels\":%zu}",
               json_escape(path).c_str(), est.f1(), est.f2(), est.entropy(), est.levels());
      } else {
        append(out, "%s: f1 %.0f, f2 %.4g, entropy %.3f bits (%zu levels)", path.c_str(),
               est.f1(), est.f2(), est.entropy(), est.levels());
      }
      continue;
    }
    const F0Estimator est = read_sketch_file(path);
    if (json) {
      // One machine-readable line per file; scripts parse this instead of
      // scraping the prose output.
      append(out, "{\"file\":\"%s\",\"estimate\":%.17g,\"copies\":%zu,\"capacity\":%zu}",
             json_escape(path).c_str(), est.estimate(), est.params().copies,
             est.params().capacity);
    } else {
      append(out, "%s: distinct ~= %.0f", path.c_str(), est.estimate());
    }
  }
  return 0;
}

int cmd_exact(const Args& args, std::string& out) {
  const std::string in = args.required_str("in");
  args.reject_unknown();
  ExactDistinctCounter exact;
  const auto items = read_trace(in);
  for (const Item& item : items) exact.add(item.label);
  append(out, "%s: %zu items, %llu distinct (exact)", in.c_str(), items.size(),
         static_cast<unsigned long long>(exact.count()));
  return 0;
}

// Per-structure byte footprint for --json info output: serialized size of
// the whole estimator, per-copy serialized sampler sizes, and the live
// in-memory footprint — capacity planning without a debugger.
std::string footprint_json(const F0Estimator& est) {
  std::string out;
  appendf(out, "\"state_bytes\":%zu,\"memory_bytes\":%zu,\"copy_bytes\":[",
          est.serialize().size(), est.bytes_used());
  for (std::size_t i = 0; i < est.num_copies(); ++i) {
    appendf(out, "%s%zu", i > 0 ? "," : "", est.copy(i).serialize().size());
  }
  out += ']';
  return out;
}

int cmd_info(const Args& args, std::string& out) {
  const bool json = args.flag("json");
  args.reject_unknown();
  USTREAM_REQUIRE(!args.positional().empty(), "info needs at least one file");
  for (const auto& path : args.positional()) {
    const auto bytes = read_file(path);
    if (looks_like_frame(bytes)) {
      const Frame frame = frame_decode(bytes);  // validates CRC before parsing
      const std::span<const std::uint8_t> payload(frame.payload);
      std::string details_json, details_text;  // per kind, after the frame facts
      if (frame.header.kind == PayloadKind::kFreqSketch) {
        const FreqSketch est = FreqSketch::deserialize(payload);
        appendf(details_json,
                "\"depth\":%zu,\"width\":%zu,\"heavy_capacity\":%zu,\"tracked\":%zu,"
                "\"seed\":%llu",
                est.count_sketch().depth(), est.count_sketch().width(), est.heavy().capacity(),
                est.heavy().size(), static_cast<unsigned long long>(est.config().seed));
        appendf(details_text, "%zux%zu counters + %zu/%zu heavy slots, seed %llu",
                est.count_sketch().depth(), est.count_sketch().width(), est.heavy().size(),
                est.heavy().capacity(), static_cast<unsigned long long>(est.config().seed));
      } else if (frame.header.kind == PayloadKind::kUniversalSketch) {
        const UniversalConfig c = UniversalSketch::deserialize(payload).config();
        appendf(details_json,
                "\"levels\":%zu,\"depth\":%zu,\"width\":%zu,\"heavy_capacity\":%zu,"
                "\"seed\":%llu",
                c.levels, c.depth, std::size_t{1} << c.width_log2, c.heavy_capacity,
                static_cast<unsigned long long>(c.seed));
        appendf(details_text, "%zu levels of %zux%zu counters + %zu heavy slots, seed %llu",
                c.levels, c.depth, std::size_t{1} << c.width_log2, c.heavy_capacity,
                static_cast<unsigned long long>(c.seed));
      } else {
        const F0Estimator est = read_sketch_file(path);
        appendf(details_json, "\"copies\":%zu,\"capacity\":%zu,\"seed\":%llu,%s",
                est.params().copies, est.params().capacity,
                static_cast<unsigned long long>(est.params().seed),
                footprint_json(est).c_str());
        appendf(details_text, "%zu copies x capacity %zu, seed %llu", est.params().copies,
                est.params().capacity, static_cast<unsigned long long>(est.params().seed));
      }
      if (json) {
        append(out,
               "{\"file\":\"%s\",\"format\":\"framed-sketch\",\"kind\":\"%s\","
               "\"site\":%u,\"epoch\":%u,\"bytes\":%zu,\"payload_bytes\":%zu,%s}",
               json_escape(path).c_str(), payload_kind_name(frame.header.kind),
               frame.header.site, frame.header.epoch, bytes.size(), frame.payload.size(),
               details_json.c_str());
      } else {
        append(out,
               "%s: framed sketch (%s, site %u, epoch %u, crc ok), %zu bytes "
               "(%zu payload), %s",
               path.c_str(), payload_kind_name(frame.header.kind), frame.header.site,
               frame.header.epoch, bytes.size(), frame.payload.size(), details_text.c_str());
      }
      continue;
    }
    if (bytes.size() >= 4) {
      ByteReader r(bytes);
      const std::uint32_t magic = r.u32();
      if (magic == 0x52545355) {  // "USTR"
        const auto items = read_trace(path);
        if (json) {
          append(out, "{\"file\":\"%s\",\"format\":\"trace\",\"bytes\":%zu,\"items\":%zu}",
                 json_escape(path).c_str(), bytes.size(), items.size());
        } else {
          append(out, "%s: trace, %zu bytes, %zu items", path.c_str(), bytes.size(),
                 items.size());
        }
        continue;
      }
    }
    throw SerializationError("not a framed sketch file or a trace: " + path);
  }
  return 0;
}

// Runs the fault-tolerant distributed collection end to end on a synthetic
// workload: t sites sketch their partitions, ship framed sketches through a
// FaultyChannel with the requested drop/duplicate/reorder/corrupt mix, and
// the referee retries/dedups/quarantines — then prints the union estimate
// next to ground truth and the full CollectReport.
int cmd_collect(const Args& args, std::string& out) {
  DistributedConfig config;
  config.sites = args.u64("sites", 8);
  config.union_distinct = args.u64("distinct", 100'000);
  config.overlap = args.f64("overlap", 0.3);
  config.seed = args.u64("seed", 1);
  FaultSpec faults;
  faults.drop = args.f64("drop", 0.0);
  faults.duplicate = args.f64("duplicate", 0.0);
  faults.reorder = args.f64("reorder", 0.0);
  const double corrupt = args.f64("corrupt", 0.0);
  faults.truncate = corrupt / 2;
  faults.bit_flip = corrupt / 2;
  RetryPolicy policy;
  policy.max_attempts_per_site = static_cast<std::uint32_t>(args.u64("attempts", 6));
  const double eps = args.f64("eps", 0.1);
  const double delta = args.f64("delta", 0.05);
  args.reject_unknown();

  const auto workload = make_distributed_workload(config);
  const auto params = EstimatorParams::for_guarantee(eps, delta, config.seed);
  auto channel =
      std::make_unique<FaultyChannel>(config.sites, faults, SplitMix64::mix(config.seed));
  FaultyChannel* channel_view = channel.get();
  DistributedRun<F0Estimator> run(config.sites, [&params] { return F0Estimator(params); },
                                  std::move(channel));
  for (std::size_t s = 0; s < config.sites; ++s) {
    for (const Item& item : workload.site_streams[s]) run.site(s).add(item.label);
  }
  const double estimate = run.collect(policy).estimate();
  const CollectReport& report = run.collect_report();
  const FaultStats fstats = channel_view->fault_stats();
  const ChannelStats cstats = run.channel_stats();

  append(out, "union estimate %.0f (truth %zu, rel.err %.4f)%s", estimate,
         workload.union_distinct,
         std::abs(estimate - static_cast<double>(workload.union_distinct)) /
             static_cast<double>(workload.union_distinct),
         report.degraded() ? " [DEGRADED: lower bound]" : "");
  out += report.summary();
  out += '\n';
  append(out, "transport: %llu sends, %llu bytes (mean %.0f/frame)",
         static_cast<unsigned long long>(cstats.messages),
         static_cast<unsigned long long>(cstats.total_bytes), cstats.mean_message_bytes());
  append(out,
         "faults injected: %llu dropped, %llu duplicated, %llu reordered, "
         "%llu truncated, %llu bit-flipped",
         static_cast<unsigned long long>(fstats.dropped),
         static_cast<unsigned long long>(fstats.duplicated),
         static_cast<unsigned long long>(fstats.reordered),
         static_cast<unsigned long long>(fstats.truncated),
         static_cast<unsigned long long>(fstats.bit_flipped));
  return report.complete() ? 0 : 3;
}

// site:N / group:G operands over a sketch store: slot N, or the store's
// cached union of group G. Shared by live /query and `query` over files.
query::ResolveSketch store_resolver(const SiteSketchStore<F0Estimator>::View& view) {
  return [&view](const query::Expr& leaf) -> const F0Estimator* {
    if (leaf.operand == query::OperandKind::kSite) return view.site(leaf.id);
    if (leaf.operand == query::OperandKind::kGroup) {
      return view.group(static_cast<std::uint16_t>(leaf.id));
    }
    return nullptr;
  };
}

// Written after bind, before the event loop: a script that waits for the
// file can start pushing immediately.
void write_port_file(const std::string& path, std::uint16_t port) {
  if (path.empty()) return;
  const std::string text = std::to_string(port) + "\n";
  write_file(path, std::vector<std::uint8_t>(text.begin(), text.end()));
}

// The flags every serve kind shares.
struct ServeOptions {
  net::RefereeServerConfig config;
  std::string out_path;
  std::string port_file;
  std::string admin_port_file;
  std::string fsync_name;
  bool json = false;
  bool stats = false;
};

ServeOptions parse_serve_options(const Args& args) {
  ServeOptions o;
  net::RefereeServerConfig& config = o.config;
  config.bind_host = args.str("bind", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.u64("port", 0));
  config.sites = args.u64("sites", 1);
  config.shards = args.u64("shards", 1);
  config.timeout = std::chrono::milliseconds(args.u64("timeout-ms", 0));
  o.out_path = args.str("out", "");
  o.port_file = args.str("port-file", "");
  if (args.has("admin-port")) {
    config.admin_port = static_cast<std::uint16_t>(args.u64("admin-port", 0));
  }
  o.admin_port_file = args.str("admin-port-file", "");
  if (!o.admin_port_file.empty() && !config.admin_port.has_value()) {
    config.admin_port = 0;  // asking for the file implies the endpoint
  }
  // Durability (DESIGN.md §11): --wal-dir turns on the write-ahead frame
  // log (acked implies logged); --recover replays that dir first so a
  // killed referee resumes instead of starting over.
  o.fsync_name = args.str("fsync", "interval");
  const net::RefereeServerConfig::Durability wal{
      .dir = args.str("wal-dir", ""),
      .fsync = durability::parse_fsync_policy(o.fsync_name),
      .fsync_interval = std::chrono::milliseconds(args.u64("fsync-interval-ms", 50)),
      .segment_bytes = args.u64("segment-mb", 64) << 20,
      .snapshot_every = args.u64("snapshot-every", 0),
      .recover = args.flag("recover")};
  USTREAM_REQUIRE(!wal.recover || !wal.dir.empty(), "--recover needs --wal-dir DIR");
  if (!wal.dir.empty()) config.wal = wal;
  o.json = args.flag("json");
  o.stats = args.flag("stats");
  return o;
}

// What a sketch kind plugs into the one referee: its /query answer over
// the live store, an optional hook after every accepted frame, and the
// end-of-run step that reduces the slots and appends the union's JSON
// fields and report lines.
template <typename Sketch>
struct ServeKind {
  using View = typename SiteSketchStore<Sketch>::View;
  using Slots = typename SiteSketchStore<Sketch>::Slots;
  std::function<std::string(const View&, const std::string& text, bool json)> answer;
  std::function<void(SiteSketchStore<Sketch>&)> accepted;
  std::function<void(Slots&&, const CollectReport&, std::string& json, std::string& text)>
      finish;
};

// The referee as a real server: bind a TCP port, collect one framed sketch
// per site (retry/dedup/quarantine via CollectState, exactly as in-process
// collection) into a SiteSketchStore, merge the slots on the parallel
// MergeEngine and report. This is the first half of the multi-process
// deployment of the paper's protocol; `ustream push` is the other half.
template <typename Sketch>
int serve(ServeOptions& o, const ServeKind<Sketch>& kind, std::string& out) {
  SiteSketchStore<Sketch> store(o.config.sites);
  // The admin /query handler runs on shard 0's loop while the sink fires
  // under the arbiter mutex; the store's own mutex orders the two.
  o.config.query_handler = [&store, &kind](const std::string& raw, bool as_json) {
    const std::string text = query::percent_decode(raw);
    return store.read([&](const auto& view) { return kind.answer(view, text, as_json); });
  };
  net::RefereeServer server(o.config);
  write_port_file(o.port_file, server.port());
  if (server.admin_port()) write_port_file(o.admin_port_file, *server.admin_port());
  const net::RefereeServer::Result res =
      server.run([&store, &kind](std::size_t site, std::uint32_t, std::uint16_t group,
                                 PayloadKind k, std::vector<std::uint8_t>&& payload) {
        if (!store.accept(site, group, k, payload)) return false;
        if (kind.accepted) kind.accepted(store);
        return true;
      });
  const CollectReport& report = res.report;
  const auto& wal = res.durability;
  std::string kind_json, kind_text;
  kind.finish(store.take_slots(), report, kind_json, kind_text);

  if (o.json) {
    std::string line;
    appendf(line,
            "{\"port\":%u,\"admin_port\":%u,\"kind\":\"%s\",\"sites_total\":%zu,"
            "\"sites_reported\":%zu,\"degraded\":%s,\"timed_out\":%s%s,"
            "\"attempts\":%llu,\"retries\":%llu,\"frames_quarantined\":%llu,"
            "\"duplicates_dropped\":%llu,\"stale_dropped\":%llu,"
            "\"deltas_applied\":%llu,\"resyncs\":%llu,"
            "\"wire_frames\":%llu,\"wire_bytes\":%llu,\"shards\":[",
            server.port(), server.admin_port().value_or(0),
            payload_kind_name(o.config.expected_kind), report.sites_total,
            report.sites_reported, report.degraded() ? "true" : "false",
            res.timed_out ? "true" : "false", kind_json.c_str(),
            static_cast<unsigned long long>(report.total_attempts()),
            static_cast<unsigned long long>(report.retries),
            static_cast<unsigned long long>(report.frames_quarantined),
            static_cast<unsigned long long>(report.duplicates_dropped),
            static_cast<unsigned long long>(report.stale_dropped),
            static_cast<unsigned long long>(report.deltas_applied),
            static_cast<unsigned long long>(report.resyncs),
            static_cast<unsigned long long>(res.wire.messages),
            static_cast<unsigned long long>(res.wire.total_bytes));
    for (std::size_t k = 0; k < res.shards.size(); ++k) {
      const auto& shard = res.shards[k];
      appendf(line, "%s{\"wire_frames\":%llu,\"wire_bytes\":%llu}", k > 0 ? "," : "",
              static_cast<unsigned long long>(shard.messages),
              static_cast<unsigned long long>(shard.total_bytes));
    }
    line += ']';
    if (wal.enabled) {
      appendf(line,
              ",\"wal\":{\"records\":%llu,\"bytes\":%llu,\"fsyncs\":%llu,"
              "\"snapshots\":%llu,\"recovered_sites\":%zu,\"frames_replayed\":%llu}",
              static_cast<unsigned long long>(wal.records_logged),
              static_cast<unsigned long long>(wal.bytes_logged),
              static_cast<unsigned long long>(wal.fsyncs),
              static_cast<unsigned long long>(wal.snapshots), wal.sites_recovered,
              static_cast<unsigned long long>(wal.frames_replayed));
    }
    out += line + "}\n";
  } else {
    append(out, "listening on %s:%u for %zu %s sites (%zu shard%s)",
           o.config.bind_host.c_str(), server.port(), report.sites_total,
           payload_kind_name(o.config.expected_kind), server.shards(),
           server.shards() == 1 ? "" : "s");
    out += report.summary();
    out += '\n';
    out += kind_text;
    append(out, "wire: %llu frames, %llu bytes (mean %.0f/frame)",
           static_cast<unsigned long long>(res.wire.messages),
           static_cast<unsigned long long>(res.wire.total_bytes),
           res.wire.mean_message_bytes());
    if (server.shards() > 1) {
      for (std::size_t k = 0; k < res.shards.size(); ++k) {
        const auto& shard = res.shards[k];
        append(out, "shard %zu: %llu frames, %llu bytes", k,
               static_cast<unsigned long long>(shard.messages),
               static_cast<unsigned long long>(shard.total_bytes));
      }
    }
    if (wal.enabled) {
      if (wal.recovered) append(out, "%s", wal.recovery_summary.c_str());
      append(out, "wal: %llu records, %llu bytes, %llu fsyncs, %llu snapshots "
                  "(fsync %s) in %s",
             static_cast<unsigned long long>(wal.records_logged),
             static_cast<unsigned long long>(wal.bytes_logged),
             static_cast<unsigned long long>(wal.fsyncs),
             static_cast<unsigned long long>(wal.snapshots), o.fsync_name.c_str(),
             o.config.wal->dir.c_str());
    }
  }
  if (o.stats) out += obs::render_json(obs::default_registry().snapshot()) + "\n";
  return report.complete() ? 0 : 3;
}

// `serve` over F0 sketches: one-shot snapshot collection, or --continuous
// delta chains with a live estimate gauge, optionally relaying the merged
// union upstream.
ServeKind<F0Estimator> f0_serve_kind(const Args& args, ServeOptions& o) {
  // Continuous mode (DESIGN.md §12): latest-wins collection that accepts
  // kF0Delta chain frames, keeps a live per-site mirror set, and exports
  // the running union estimate as the ustream_referee_live_estimate gauge
  // (watch it move with `ustream stats --watch`). The server runs to the
  // deadline — completion never ends a continuous collection.
  const bool continuous = args.flag("continuous");
  if (continuous) {
    USTREAM_REQUIRE(o.config.timeout.count() > 0,
                    "--continuous needs --timeout-ms N (the run ends at the deadline)");
    o.config.dedup = DedupMode::kLatestWins;
    o.config.delta_kind = PayloadKind::kF0Delta;
    o.config.continuous = true;
  }
  // Relay mode (DESIGN.md §10.3): this referee collects a SUBTREE of sites,
  // merges locally, and pushes the one merged sketch frame upstream —
  // composing referees into a fan-in tree. The upstream referee sees this
  // whole subtree as a single site (--relay-site) with --relay-epoch.
  const bool relay = args.flag("relay");
  const std::string upstream = args.str("upstream", "");
  const std::size_t relay_site = args.u64("relay-site", 0);
  const auto relay_epoch = static_cast<std::uint32_t>(args.u64("relay-epoch", 0));
  USTREAM_REQUIRE(!relay || !upstream.empty(), "--relay needs --upstream HOST:PORT");
  // eps/delta/seed shape the EMPTY referee for a fully degraded run (and
  // nothing else — accepted sketches carry their own parameters).
  const double eps = args.f64("eps", 0.1);
  const double delta = args.f64("delta", 0.05);
  const std::uint64_t seed = args.u64("seed", 0x5eed0123456789abULL);

  ServeKind<F0Estimator> kind;
  kind.answer = [](const auto& view, const std::string& text, bool json) {
    const query::QueryResult r = query::run_query(text, store_resolver(view));
    return json ? query::format_query_json(text, r) : query::format_query_text(text, r);
  };
  if (continuous) {
    obs::Gauge& live = obs::default_registry().gauge("ustream_referee_live_estimate");
    kind.accepted = [&live](SiteSketchStore<F0Estimator>& store) {
      // Runs after an accepted frame, so the union holds at least that site.
      live.set(static_cast<std::int64_t>(
          store.read([](const auto& view) { return view.all()->estimate(); })));
    };
  }
  kind.finish = [=, out_path = o.out_path](SiteSketchStore<F0Estimator>::Slots&& slots,
                                           const CollectReport& report, std::string& json,
                                           std::string& text) {
    // Per-group union sketches for the report (the site ledger already
    // knows each site's tag); only surfaced when some accepted frame was
    // grouped.
    std::vector<GroupSketch<F0Estimator>> groups;
    if (std::any_of(report.per_site.begin(), report.per_site.end(),
                    [](const auto& st) { return st.reported && st.group != 0; })) {
      auto copies = slots;
      groups = reduce_groups<F0Estimator>(report, std::move(copies));
    }
    std::optional<F0Estimator> merged = MergeEngine::shared().reduce(std::move(slots));
    const F0Estimator referee =
        merged ? std::move(*merged) : F0Estimator(EstimatorParams::for_guarantee(eps, delta, seed));
    if (!out_path.empty()) write_sketch_file(out_path, referee);

    appendf(json, ",\"estimate\":%.17g", referee.estimate());
    append(text, "union estimate %.0f%s", referee.estimate(),
           report.degraded() ? " [DEGRADED: lower bound]" : "");
    if (!groups.empty()) {
      json += ",\"groups\":[";
      for (std::size_t k = 0; k < groups.size(); ++k) {
        appendf(json, "%s{\"group\":%u,\"sites\":%zu,\"estimate\":%.17g}",
                k > 0 ? "," : "", groups[k].group, groups[k].sites.size(),
                groups[k].sketch.estimate());
        append(text, "group %u: %zu site%s, estimate %.0f", groups[k].group,
               groups[k].sites.size(), groups[k].sites.size() == 1 ? "" : "s",
               groups[k].sketch.estimate());
      }
      json += ']';
    }
    // Relay step: one framed push of the merged subtree sketch to the
    // upstream referee, with the same ack/retry client the sites use. A
    // degraded subtree still relays — its union is a valid lower bound and
    // the upstream referee's ledger shows this subtree as reported.
    if (relay) {
      net::TcpTransportConfig up_config;
      std::tie(up_config.host, up_config.port) = parse_host_port("--upstream", upstream);
      const auto frame = frame_encode(
          {PayloadKind::kF0Estimator, static_cast<std::uint32_t>(relay_site), relay_epoch},
          referee.serialize());
      net::TcpTransport transport(relay_site + 1, up_config);
      const char* ack = net::push_ack_name(transport.send_with_ack(relay_site, frame));
      appendf(json, ",\"relay_ack\":\"%s\"", ack);
      append(text, "relayed to %s as site %zu epoch %u: %s (%zu-byte frame)",
             upstream.c_str(), relay_site, relay_epoch, ack, frame.size());
    }
    if (!out_path.empty()) append(text, "wrote union sketch to %s", out_path.c_str());
  };
  return kind;
}

// `serve --kind freq`: the same referee, collecting one kFreqSketch frame
// per site. The union summary is the componentwise merge (counter addition
// + interval-sum space-saver union); because that merge is associative,
// 1-shard and 4-shard collections of the same site set are byte-identical.
// The admin /query endpoint answers top(K)/freq(LABEL) against the live
// union, and the report carries a heavy-hitter table.
ServeKind<FreqSketch> freq_serve_kind(const Args& args, ServeOptions& o) {
  USTREAM_REQUIRE(!args.has("continuous") && !args.has("relay"),
                  "serve --kind freq does not support --continuous or --relay");
  o.config.expected_kind = PayloadKind::kFreqSketch;
  const std::uint64_t top_k = args.u64("top", 10);

  ServeKind<FreqSketch> kind;
  kind.answer = [](const auto& view, const std::string& text, bool json) {
    const FreqSketch* all = view.all();
    USTREAM_REQUIRE(all != nullptr, "no freq sketches collected yet");
    return freq_query_answer(*all, text, json);
  };
  kind.finish = [top_k, out_path = o.out_path](SiteSketchStore<FreqSketch>::Slots&& slots,
                                               const CollectReport& report, std::string& json,
                                               std::string& text) {
    const std::optional<FreqSketch> merged = MergeEngine::shared().reduce(std::move(slots));
    std::vector<FreqSketch::HeavyHitter> hitters;
    if (merged) hitters = merged->top(static_cast<std::size_t>(top_k));
    appendf(json,
            ",\"f1\":%llu,\"f2\":%.17g,\"tracked\":%zu,\"absent_bound\":%llu,"
            "\"heavy_hitters\":%s",
            static_cast<unsigned long long>(merged ? merged->items_processed() : 0),
            merged ? merged->f2() : 0.0, merged ? merged->heavy().size() : 0,
            static_cast<unsigned long long>(merged ? merged->heavy().absent_bound() : 0),
            hitters_json(hitters).c_str());
    if (!merged) {
      append(text, "union: no freq sketches collected");
      return;
    }
    append(text, "union: %llu items, f2 %.4g, %zu tracked heavy labels%s",
           static_cast<unsigned long long>(merged->items_processed()), merged->f2(),
           merged->heavy().size(), report.degraded() ? " [DEGRADED: lower bound]" : "");
    append_hitter_lines(text, hitters);
    if (!out_path.empty()) {
      write_framed_payload(out_path, PayloadKind::kFreqSketch, merged->serialize());
      append(text, "wrote union freq sketch to %s", out_path.c_str());
    }
  };
  return kind;
}

int cmd_serve(const Args& args, std::string& out) {
  const std::string kind = args.str("kind", "f0");
  USTREAM_REQUIRE(kind == "f0" || kind == "freq", "serve --kind must be f0 or freq");
  ServeOptions o = parse_serve_options(args);
  if (kind == "freq") {
    const ServeKind<FreqSketch> freq = freq_serve_kind(args, o);
    args.reject_unknown();
    return serve(o, freq, out);
  }
  const ServeKind<F0Estimator> f0 = f0_serve_kind(args, o);
  args.reject_unknown();
  return serve(o, f0, out);
}

// The site half of continuous mode (DESIGN.md §12): feed a deterministic
// synthetic stream through a DeltaSiteSession and transmit only on
// threshold crossings — deltas while the chain holds, a full re-base
// whenever the referee acks 'R' (resync) or the frame is lost.
int cmd_push_continuous(const Args& args, const std::string& to,
                        net::TcpTransportConfig config, std::size_t site,
                        std::uint16_t group, std::string& out) {
  const std::uint64_t items = args.u64("items", 100000);
  const std::uint64_t distinct = args.u64("distinct", 50000);
  const double growth = args.f64("growth", 0.5);
  const double eps = args.f64("eps", 0.1);
  const double fail = args.f64("delta", 0.05);
  const std::uint64_t seed = args.u64("seed", 1);
  const bool json = args.flag("json");
  const bool want_stats = args.flag("stats");
  args.reject_unknown();
  USTREAM_REQUIRE(args.positional().empty(),
                  "push --continuous generates its own stream; no sketch file");
  USTREAM_REQUIRE(distinct > 0, "--distinct must be positive");

  // Every site must share the hash seed for coordinated sampling, so the
  // estimator seed is fixed by --seed alone; only the label stream below
  // is decorrelated per site.
  DeltaSiteSession session(EstimatorParams::for_guarantee(eps, fail, seed), growth);
  net::TcpTransport transport(site + 1, config);

  auto transmit = [&](const DeltaSiteSession::Outgoing& msg) {
    const auto frame = frame_encode(
        {msg.is_delta ? PayloadKind::kF0Delta : PayloadKind::kF0Estimator,
         static_cast<std::uint32_t>(site), msg.epoch, group},
        msg.payload);
    return transport.send_with_ack(site, frame);
  };
  auto settle = [&](net::PushAck ack) {
    if (ack == net::PushAck::kAccepted || ack == net::PushAck::kDuplicate) {
      session.delivered();
      return true;
    }
    session.lost();
    return false;
  };

  SplitMix64 gen(seed ^ (0x9e3779b97f4a7c15ULL * (site + 1)));
  for (std::uint64_t i = 0; i < items; ++i) {
    if (!session.add(gen.next() % distinct)) continue;
    if (!settle(transmit(session.next_update()))) {
      // Chain broken: re-base immediately — next_update() now owes a full
      // frame, so the referee's mirror catches up in one message.
      settle(transmit(session.next_update()));
    }
  }
  // End-of-stream flush: whatever the thresholds suppressed goes out as a
  // final full frame so the referee's mirror matches the local tail.
  bool flushed = !session.dirty();
  for (std::uint32_t attempt = 0;
       !flushed && attempt < config.max_send_attempts; ++attempt) {
    flushed = settle(transmit(session.next_full()));
  }

  const ChannelStats wire = transport.stats();
  if (json) {
    append(out,
           "{\"site\":%zu,\"items\":%llu,\"estimate\":%.17g,"
           "\"deltas\":%llu,\"full_frames\":%llu,\"resyncs\":%llu,"
           "\"suppressed\":%llu,\"flushed\":%s,"
           "\"wire_frames\":%llu,\"wire_bytes\":%llu}",
           site, static_cast<unsigned long long>(items),
           session.sketch().estimate(),
           static_cast<unsigned long long>(session.deltas_sent()),
           static_cast<unsigned long long>(session.fulls_sent()),
           static_cast<unsigned long long>(session.resyncs()),
           static_cast<unsigned long long>(session.suppressed()),
           flushed ? "true" : "false",
           static_cast<unsigned long long>(wire.messages),
           static_cast<unsigned long long>(wire.total_bytes));
  } else {
    append(out,
           "site %zu streamed %llu items to %s: %llu deltas + %llu full "
           "frames (%llu resyncs, %llu updates suppressed), %llu bytes on "
           "the wire, local estimate %.0f%s",
           site, static_cast<unsigned long long>(items), to.c_str(),
           static_cast<unsigned long long>(session.deltas_sent()),
           static_cast<unsigned long long>(session.fulls_sent()),
           static_cast<unsigned long long>(session.resyncs()),
           static_cast<unsigned long long>(session.suppressed()),
           static_cast<unsigned long long>(wire.total_bytes),
           session.sketch().estimate(),
           flushed ? "" : " [FLUSH FAILED: referee mirror is behind]");
  }
  if (want_stats) out += obs::render_json(obs::default_registry().snapshot()) + "\n";
  return flushed ? 0 : 3;
}

// Ships one site's sketch file to a running `ustream serve` referee: the
// site half of the multi-process protocol. The file's payload is re-framed
// with the given site id / epoch, pushed over TcpTransport (connect with
// capped-exponential backoff, retransmit on connection loss or quarantine
// ack), and the referee's frame-layer verdict is reported.
int cmd_push(const Args& args, std::string& out) {
  const std::string to = args.required_str("to");
  net::TcpTransportConfig config;
  std::tie(config.host, config.port) = parse_host_port("--to", to);
  const std::size_t site = args.u64("site", 0);
  config.max_send_attempts = static_cast<std::uint32_t>(args.u64("attempts", 4));
  config.max_connect_attempts =
      static_cast<std::uint32_t>(args.u64("connect-attempts", 10));
  const std::uint16_t group = parse_group(args);
  if (args.flag("continuous")) {
    return cmd_push_continuous(args, to, config, site, group, out);
  }
  const auto epoch = static_cast<std::uint32_t>(args.u64("epoch", 0));
  const bool json = args.flag("json");
  const bool want_stats = args.flag("stats");
  args.reject_unknown();
  USTREAM_REQUIRE(args.positional().size() == 1, "push needs exactly one sketch file");
  const std::string& path = args.positional()[0];

  // Round-trip through the matching sketch type so a corrupt or unframed
  // file fails HERE, not at the referee. The frame kind follows the file:
  // freq/universal files push under their own kinds.
  PayloadKind push_kind = framed_kind_of(path);
  std::vector<std::uint8_t> payload;
  if (push_kind == PayloadKind::kFreqSketch) {
    payload = read_freq_file(path).serialize();
  } else if (push_kind == PayloadKind::kUniversalSketch) {
    payload = read_universal_file(path).serialize();
  } else {
    payload = read_sketch_file(path).serialize();
  }
  const auto frame = frame_encode(
      {push_kind, static_cast<std::uint32_t>(site), epoch, group}, payload);

  net::TcpTransport transport(site + 1, config);
  const net::PushAck ack = transport.send_with_ack(site, frame);
  const ChannelStats stats = transport.stats();
  if (json) {
    append(out,
           "{\"file\":\"%s\",\"site\":%zu,\"epoch\":%u,\"ack\":\"%s\","
           "\"attempts\":%llu,\"connects\":%llu,\"frame_bytes\":%zu}",
           json_escape(path).c_str(), site, epoch, net::push_ack_name(ack),
           static_cast<unsigned long long>(stats.messages),
           static_cast<unsigned long long>(transport.connect_attempts()), frame.size());
  } else {
    append(out, "pushed %s as site %zu epoch %u to %s: %s (%llu attempts, %zu-byte frame)",
           path.c_str(), site, epoch, to.c_str(), net::push_ack_name(ack),
           static_cast<unsigned long long>(stats.messages), frame.size());
  }
  if (want_stats) out += obs::render_json(obs::default_registry().snapshot()) + "\n";
  return 0;
}

// Queries a running referee's admin endpoint (serve --admin-port) and
// prints the live metrics snapshot: Prometheus text by default, the
// one-line JSON with --json, or a liveness check with --health.
// One admin round-trip: connect, send the one-line request, read the
// response until EOF (the admin protocol is response-then-close).
std::string admin_fetch(const std::string& host, std::uint16_t port,
                        const std::string& request, std::chrono::milliseconds timeout) {
  net::Socket sock = net::connect_tcp(host, port, timeout, timeout);
  net::send_all(sock, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(request.data()),
                          request.size()));
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw net::TransportError("admin endpoint read failed (timeout?)");
    break;
  }
  USTREAM_REQUIRE(!response.empty(), "admin endpoint closed without a response");
  return response;
}

int cmd_stats(const Args& args, std::string& out) {
  const std::string from = args.required_str("from");
  const auto [host, port] = parse_host_port("--from", from);
  const auto timeout = std::chrono::milliseconds(args.u64("timeout-ms", 5000));
  const bool json = args.flag("json");
  const bool health = args.flag("health");
  // --watch SECS: re-poll the endpoint every SECS seconds and redraw until
  // the referee goes away (its exit closes the admin port, which ends the
  // watch cleanly) or --count snapshots have been printed. Snapshots are
  // written straight to stdout as they arrive — this is a live view, not a
  // buffered report.
  const bool watch = args.has("watch");
  const double watch_secs = watch ? args.f64("watch", 2.0) : 0.0;
  const std::uint64_t watch_count = args.u64("count", 0);
  USTREAM_REQUIRE(!watch || watch_secs > 0, "--watch needs a positive interval");
  args.reject_unknown();

  const std::string request =
      health ? "GET /health\n" : (json ? "GET /metrics.json\n" : "GET /metrics\n");
  if (!watch) {
    out += admin_fetch(host, port, request, timeout);
    return 0;
  }

  const bool tty = ::isatty(::fileno(stdout)) != 0;
  for (std::uint64_t n = 0; watch_count == 0 || n < watch_count; ++n) {
    std::string snapshot;
    try {
      snapshot = admin_fetch(host, port, request, timeout);
    } catch (const net::TransportError&) {
      if (n == 0) throw;  // never reachable: report it as an error
      append(out, "watch: %s is gone after %llu snapshot%s", from.c_str(),
             static_cast<unsigned long long>(n), n == 1 ? "" : "s");
      return 0;
    }
    if (tty) {
      std::fputs("\033[2J\033[H", stdout);  // clear + home: redraw in place
    } else if (n > 0) {
      std::fputc('\n', stdout);  // piped: separate snapshots with a blank line
    }
    std::fwrite(snapshot.data(), 1, snapshot.size(), stdout);
    std::fflush(stdout);
    if (watch_count != 0 && n + 1 == watch_count) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(watch_secs));
  }
  return 0;
}

// Set-expression cardinalities (DESIGN.md §13): parse EXPR over site:N /
// group:G operands and evaluate the common-threshold estimator, either
// against sketch FILES on disk (site:N = Nth file, 0-based; group:G = union
// of the files whose frame header carries group tag G) or against a LIVE
// referee through its admin endpoint (--from HOST:PORT with serve
// --admin-port), where the referee's own ledger supplies the operands.
int cmd_query(const Args& args, std::string& out) {
  const bool json = args.flag("json");
  const std::string from = args.str("from", "");
  const auto timeout = std::chrono::milliseconds(args.u64("timeout-ms", 5000));
  args.reject_unknown();
  USTREAM_REQUIRE(!args.positional().empty(),
                  "query needs an expression, e.g. "
                  "ustream query '(site:0 | site:1) & !site:2' FILES...");
  const std::string expr_text = args.positional()[0];
  const std::vector<std::string> files(args.positional().begin() + 1,
                                       args.positional().end());
  if (!from.empty()) {
    USTREAM_REQUIRE(files.empty(), "--from queries a live referee; drop the sketch files");
    const auto [host, port] = parse_host_port("--from", from);
    const std::string request = std::string("GET /query") + (json ? "" : ".txt") +
                                "?e=" + query::percent_encode(expr_text) + "\n";
    const std::string body = admin_fetch(host, port, request, timeout);
    out += body;
    return body.rfind("error:", 0) == 0 ? 1 : 0;
  }
  USTREAM_REQUIRE(!files.empty(), "query needs sketch files or --from HOST:PORT");
  // Frequency route: top(K)/freq(LABEL) over freq sketch files (the --from
  // path above already reaches a freq referee's admin handler verbatim).
  if (expr_text.rfind("top(", 0) == 0 || expr_text.rfind("freq(", 0) == 0) {
    require_uniform_kinds(files);
    out += freq_query_answer(merge_files(files, read_freq_file), expr_text, json);
    return 0;
  }
  SiteSketchStore<F0Estimator> store(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto bytes = read_file(files[i]);
    std::uint16_t group = 0;  // an unframed file is refused by read_sketch_file
    if (looks_like_frame(bytes)) group = frame_decode(bytes).header.group;
    USTREAM_REQUIRE(store.put(i, group, read_sketch_file(files[i])),
                    "sketch file " + files[i] + " is not coordinated with " + files[0] +
                        " (different parameters or seed)");
  }
  const query::QueryResult r = store.read(
      [&](const auto& view) { return query::run_query(expr_text, store_resolver(view)); });
  out += json ? query::format_query_json(expr_text, r)
              : query::format_query_text(expr_text, r);
  return 0;
}

// Offline inspection of a WAL dir — the debugging face of the durability
// subsystem. `inspect` shows the segment/snapshot inventory (headers,
// sizes, torn tails); `dump` walks every record and decodes its frame
// header so an operator can see exactly which (site, epoch) frames a
// recovery would replay, without starting a server.
int cmd_wal(const Args& args, std::string& out) {
  const auto& positional = args.positional();
  USTREAM_REQUIRE(positional.size() == 1 &&
                      (positional[0] == "inspect" || positional[0] == "dump"),
                  "usage: ustream wal inspect|dump --dir DIR [--json]");
  const bool dump = positional[0] == "dump";
  const std::string dir = args.required_str("dir");
  const bool json = args.flag("json");
  args.reject_unknown();

  const auto segments = durability::scan_wal_segments(dir);
  const auto snapshots = durability::scan_snapshots(dir);
  if (json) {
    out += "{\"dir\":\"" + json_escape(dir) + "\",\"segments\":[";
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const auto& seg = segments[i];
      appendf(out,
              "%s{\"path\":\"%s\",\"shard\":%u,\"seq\":%u,"
              "\"watermark\":%u,\"bytes\":%llu,\"valid\":%s%s%s}",
              i > 0 ? "," : "", json_escape(seg.path).c_str(), seg.shard, seg.seq,
              seg.watermark, static_cast<unsigned long long>(seg.file_bytes),
              seg.header_valid ? "true" : "false",
              seg.header_valid ? "" : ",\"error\":\"",
              seg.header_valid ? "" : (json_escape(seg.error) + "\"").c_str());
    }
    out += "],\"snapshots\":[";
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      const auto& snap = snapshots[i];
      appendf(out, "%s{\"path\":\"%s\",\"seq\":%u,\"bytes\":%llu,\"valid\":%s}",
              i > 0 ? "," : "", json_escape(snap.path).c_str(), snap.seq,
              static_cast<unsigned long long>(snap.file_bytes), snap.valid ? "true" : "false");
    }
    out += "]";
  } else {
    append(out, "%s: %zu segment(s), %zu snapshot(s)", dir.c_str(),
           segments.size(), snapshots.size());
    for (const auto& snap : snapshots) {
      append(out, "snapshot %s: seq %u, %llu bytes%s%s", snap.path.c_str(),
             snap.seq, static_cast<unsigned long long>(snap.file_bytes),
             snap.valid ? "" : " INVALID: ", snap.valid ? "" : snap.error.c_str());
    }
    for (const auto& seg : segments) {
      if (!seg.header_valid) {
        append(out, "segment %s: INVALID: %s", seg.path.c_str(), seg.error.c_str());
        continue;
      }
      append(out, "segment %s: shard %u seq %u watermark %u, %llu bytes",
             seg.path.c_str(), seg.shard, seg.seq, seg.watermark,
             static_cast<unsigned long long>(seg.file_bytes));
    }
  }

  // dump: walk every record of every readable segment and snapshot,
  // decoding each frame the way recovery would.
  std::uint64_t torn = 0;
  if (dump) {
    if (json) out += ",\"records\":[";
    bool first_record = true;
    auto dump_file = [&](const std::string& path) {
      durability::SegmentReader reader(path);
      while (auto record = reader.next()) {
        std::string verdict = "ok";
        std::uint32_t site = 0, epoch = 0;
        const char* kind = "?";
        try {
          const Frame frame = frame_decode(*record);
          site = frame.header.site;
          epoch = frame.header.epoch;
          kind = payload_kind_name(frame.header.kind);
        } catch (const SerializationError&) {
          verdict = "corrupt";
        }
        if (json) {
          appendf(out,
                  "%s{\"file\":\"%s\",\"site\":%u,\"epoch\":%u,"
                  "\"kind\":\"%s\",\"bytes\":%zu,\"verdict\":\"%s\"}",
                  first_record ? "" : ",", json_escape(path).c_str(), site, epoch, kind,
                  record->size(), verdict.c_str());
          first_record = false;
        } else {
          append(out, "  %s: site %u epoch %u %s (%zu bytes) %s", path.c_str(),
                 site, epoch, kind, record->size(), verdict.c_str());
        }
      }
      if (reader.torn_tail()) {
        torn += 1;
        if (!json) {
          append(out, "  %s: TORN TAIL after %llu record(s), %llu bytes stranded",
                 path.c_str(),
                 static_cast<unsigned long long>(reader.records_read()),
                 static_cast<unsigned long long>(reader.stranded_bytes()));
        }
      }
    };
    for (const auto& snap : snapshots) {
      if (snap.valid) dump_file(snap.path);
    }
    for (const auto& seg : segments) {
      if (seg.header_valid) dump_file(seg.path);
    }
    if (json) {
      out += "],\"torn_tails\":" + std::to_string(torn);
    }
  }
  if (json) out += "}\n";
  return 0;
}

}  // namespace

void write_sketch_file(const std::string& path, const F0Estimator& estimator,
                       std::uint16_t group) {
  write_file(path,
             frame_encode({PayloadKind::kF0Estimator, 0, 0, group}, estimator.serialize()));
}

F0Estimator read_sketch_file(const std::string& path) {
  const Frame frame = read_framed_kind(path, PayloadKind::kF0Estimator);
  return F0Estimator::deserialize(std::span<const std::uint8_t>(frame.payload));
}

std::string usage() {
  return "usage: ustream <command> [flags]\n"
         "  generate --out FILE [--distinct N] [--items M] [--alpha A]\n"
         "           [--labels random|sequential|clustered] [--seed S]\n"
         "  sketch   --in TRACE --out SKETCH [--eps E] [--delta D] [--seed S]\n"
         "           [--group G]  (tag the sketch frame with group id G)\n"
         "           [--kind f0|freq|universal]  (freq: count-sketch + space-saver\n"
         "            heavy hitters, --depth D --width-log2 W --heavy K;\n"
         "            universal: layered G-sum sketch, adds --levels L)\n"
         "  merge    --out SKETCH IN1 IN2 ...\n"
         "  estimate [--json] SKETCH...\n"
         "  exact    --in TRACE\n"
         "  info     [--json] FILE...\n"
         "  collect  [--sites T] [--distinct N] [--overlap F] [--seed S]\n"
         "           [--drop P] [--duplicate P] [--reorder P] [--corrupt P]\n"
         "           [--attempts K] [--eps E] [--delta D]\n"
         "           (fault-injected distributed collection demo; exit 3 if degraded)\n"
         "  serve    [--port P] [--bind H] [--sites T] [--shards N] [--timeout-ms N]\n"
         "           [--out SKETCH] [--port-file FILE] [--admin-port P]\n"
         "           [--admin-port-file FILE] [--relay --upstream HOST:PORT\n"
         "            [--relay-site I] [--relay-epoch E]]\n"
         "           [--wal-dir DIR [--fsync always|interval|never]\n"
         "            [--fsync-interval-ms N] [--snapshot-every N] [--segment-mb N]\n"
         "            [--recover]]\n"
         "           [--continuous] [--eps E] [--delta D] [--seed S] [--json] [--stats]\n"
         "           [--kind f0|freq [--top K]]\n"
         "           (TCP referee: collect one sketch per site, merge, estimate;\n"
         "            port 0 picks a free port; exit 3 if degraded; --shards N runs\n"
         "            N SO_REUSEPORT event loops; --admin-port serves live metrics\n"
         "            mid-collection and GET /query?e=EXPR set-expression\n"
         "            queries; --relay pushes the merged sketch upstream;\n"
         "            --bind 0.0.0.0 accepts sites from other machines;\n"
         "            --wal-dir logs accepted frames before acking so\n"
         "            --recover resumes a killed referee with identical state;\n"
         "            --continuous accepts delta chains until --timeout-ms and\n"
         "            exports the live union estimate via --admin-port;\n"
         "            --kind freq merges freq sketches into the union heavy-hitter\n"
         "            table and /query answers top(K) and freq(LABEL))\n"
         "  push     --to HOST:PORT [--site I] [--epoch E] [--group G]\n"
         "           [--attempts K] [--connect-attempts K] [--json] [--stats] SKETCH\n"
         "           (ship a sketch file to a running serve referee; --group\n"
         "            tags the frame so the referee buckets this site)\n"
         "  push     --to HOST:PORT --continuous [--site I] [--items M]\n"
         "           [--distinct N] [--growth G] [--eps E] [--delta D] [--seed S]\n"
         "           [--attempts K] [--connect-attempts K] [--json] [--stats]\n"
         "           (stream a synthetic site continuously: send delta frames on\n"
         "            threshold crossings, re-base on 'R' resync acks)\n"
         "  stats    --from HOST:PORT [--json] [--health] [--timeout-ms N]\n"
         "           [--watch SECS [--count N]]\n"
         "           (query a serve --admin-port endpoint for live metrics;\n"
         "            --watch re-polls and redraws until the referee exits)\n"
         "  query    EXPR [SKETCH...] [--from HOST:PORT] [--timeout-ms N] [--json]\n"
         "           (set-expression cardinality over coordinated sketches:\n"
         "            operands site:N (Nth file / referee site) and group:G,\n"
         "            operators | & \\ ! with parens, e.g.\n"
         "            '(site:0 | site:1) & !site:2'; --from asks a live\n"
         "            serve --admin-port referee instead of reading files;\n"
         "            freq expressions top(K) and freq(LABEL) run over freq\n"
         "            sketch files or a serve --kind freq referee)\n"
         "  wal      inspect|dump --dir DIR [--json]\n"
         "           (offline WAL dir inspection: segment/snapshot inventory,\n"
         "            per-record frame decode, torn-tail detection)\n";
}

int run(const std::vector<std::string>& argv, std::string& out) {
  try {
    if (argv.empty() || argv[0] == "help" || argv[0] == "--help") {
      out += usage();
      return argv.empty() ? 2 : 0;
    }
    const std::string command = argv[0];
    const Args args(std::vector<std::string>(argv.begin() + 1, argv.end()));
    if (command == "generate") return cmd_generate(args, out);
    if (command == "sketch") return cmd_sketch(args, out);
    if (command == "merge") return cmd_merge(args, out);
    if (command == "estimate") return cmd_estimate(args, out);
    if (command == "exact") return cmd_exact(args, out);
    if (command == "info") return cmd_info(args, out);
    if (command == "collect") return cmd_collect(args, out);
    if (command == "serve") return cmd_serve(args, out);
    if (command == "push") return cmd_push(args, out);
    if (command == "stats") return cmd_stats(args, out);
    if (command == "query") return cmd_query(args, out);
    if (command == "wal") return cmd_wal(args, out);
    out += "unknown command: " + command + "\n" + usage();
    return 2;
  } catch (const std::exception& e) {
    out += std::string("error: ") + e.what() + "\n";
    return 1;
  }
}

}  // namespace ustream::cli
