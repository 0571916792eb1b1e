// Flags: the `--key value` argument parser shared by the command-line
// tools. Every flag takes exactly one value; typed getters fall back to a
// default when the flag is absent and throw std::invalid_argument (from
// std::stod / std::stoi) when its value does not parse.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

namespace lesslog::tools {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("expected --flag value pairs, got: " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  [[nodiscard]] double get(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  [[nodiscard]] int get(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoi(it->second);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace lesslog::tools
