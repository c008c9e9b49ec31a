// Minimal argument parser for the ustream CLI: --key value flags and
// positional arguments, with typed accessors and helpful errors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"

namespace ustream::cli {

class Args {
 public:
  // argv-style input, excluding the program and subcommand names.
  explicit Args(const std::vector<std::string>& argv);

  bool has(const std::string& key) const { return flags_.count(key) > 0; }

  // A boolean --key (e.g. --json): reports presence and marks it read, so
  // reject_unknown() stays quiet.
  bool flag(const std::string& key) const {
    if (!has(key)) return false;
    consumed_[key] = true;
    return true;
  }

  std::string str(const std::string& key, const std::string& fallback) const;
  std::string required_str(const std::string& key) const;
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;
  double f64(const std::string& key, double fallback) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }

  // Throws if any --flag was provided but never read (typo protection).
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace ustream::cli
