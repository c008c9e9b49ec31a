#include "query/service.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustream::query {
namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// An estimate is count * 2^L, an integer whose every digit is meant, so
// it prints in the shortest form strtod reads back exactly: a plain
// decimal below 2^53.
std::string fmt_estimate(double v) {
  char buf[64];
  const bool integral = std::fabs(v) < 0x1p53 && v == std::trunc(v);
  const auto r = integral
                     ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed)
                     : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// The standard error is a 1-sigma bar; six significant digits are ample.
std::string fmt_error(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

QueryResult run_query(const std::string& text, const ResolveSketch& resolve) {
  USTREAM_TRACE_SPAN("ustream_query_latency_ns");
  USTREAM_COUNTER_ADD("ustream_queries_total", 1);
  ExprPtr expr = parse(text);
  QueryResult result = evaluate<F0Estimator>(*expr, resolve);
  USTREAM_HISTOGRAM_OBSERVE("ustream_query_operands", result.operands);
  return result;
}

std::string format_query_text(const std::string& text, const QueryResult& r) {
  std::string out = "query: " + text + "\n";
  out += "estimate: " + fmt_estimate(r.estimate) + " (± " + fmt_error(r.std_error) +
         " @1σ)\n";
  out += "level: " + std::to_string(r.level) + ", operands: " +
         std::to_string(r.operands) + ", candidates: " +
         std::to_string(r.candidates) + "\n";
  return out;
}

std::string format_query_json(const std::string& text, const QueryResult& r) {
  std::string out = "{\"query\":\"" + json_escape(text) + "\"";
  out += ",\"estimate\":" + fmt_estimate(r.estimate);
  out += ",\"std_error\":" + fmt_error(r.std_error);
  out += ",\"level\":" + std::to_string(r.level);
  out += ",\"operands\":" + std::to_string(r.operands);
  out += ",\"candidates\":" + std::to_string(r.candidates);
  out += "}\n";
  return out;
}

std::string percent_encode(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == ':' || c == '~' || c == '-';
    if (safe) {
      out += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    }
  }
  return out;
}

std::string percent_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= s.size()) {
        throw QueryError(i, "truncated percent escape");
      }
      const int hi = hex_digit(s[i + 1]);
      const int lo = hex_digit(s[i + 2]);
      if (hi < 0 || lo < 0) {
        throw QueryError(i, "malformed percent escape '" +
                                std::string(s.substr(i, 3)) + "'");
      }
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace ustream::query
