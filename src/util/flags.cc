#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace demsort {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

const std::string* FlagParser::Find(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(read_mu_);
    read_.insert(name);
  }
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : *v;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : ParseSize(*v);
}

std::optional<int64_t> FlagParser::GetIntInRange(const std::string& name,
                                                 int64_t default_value,
                                                 int64_t lo,
                                                 int64_t hi) const {
  const int64_t value = GetInt(name, default_value);
  if (value < lo || value > hi) {
    std::string range = ">= " + std::to_string(lo);
    if (hi != INT64_MAX) {
      range = "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
    std::fprintf(stderr, "--%s must be %s (got %lld)\n", name.c_str(),
                 range.c_str(), static_cast<long long>(value));
    return std::nullopt;
  }
  return value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : std::strtod(v->c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) return default_value;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::string> FlagParser::Unread() const {
  std::lock_guard<std::mutex> lock(read_mu_);
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) unread.push_back(name);
  }
  return unread;
}

void FlagParser::ExitOnUnknownFlags() const {
  std::vector<std::string> unread = Unread();
  if (unread.empty()) return;
  std::string names;
  for (const std::string& name : unread) names += " --" + name;
  std::fprintf(stderr, "unknown flag(s):%s\n", names.c_str());
  std::exit(2);
}

int64_t ParseSize(const std::string& text) {
  DEMSORT_CHECK(!text.empty());
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  int64_t multiplier = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k':
      case 'K':
        multiplier = 1LL << 10;
        break;
      case 'm':
      case 'M':
        multiplier = 1LL << 20;
        break;
      case 'g':
      case 'G':
        multiplier = 1LL << 30;
        break;
      default:
        DEMSORT_CHECK(false) << "bad size suffix in '" << text << "'";
    }
  }
  return static_cast<int64_t>(value) * multiplier;
}

}  // namespace demsort
