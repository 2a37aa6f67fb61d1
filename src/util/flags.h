// Tiny command-line flag parser for benches and examples.
//
// Usage:
//   FlagParser flags(argc, argv);
//   int pes = flags.GetInt("pes", 4);
//   bool rand = flags.GetBool("randomize", true);
// Accepts --name=value and --name value; --flag alone means boolean true.
// Every name looked up through Has/Get* counts as read, so a program that
// has read all its flags rejects the rest with ExitOnUnknownFlags().
#ifndef DEMSORT_UTIL_FLAGS_H_
#define DEMSORT_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace demsort {

class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  /// GetInt, checked against [lo, hi] while it is still an int64_t: a
  /// narrowing cast first would wrap a negative value into a huge unsigned
  /// one (--threads=-1 into 4294967295 threads). Prints the error and
  /// returns nullopt when the value is out of range; callers exit 2.
  std::optional<int64_t> GetIntInRange(const std::string& name,
                                       int64_t default_value, int64_t lo,
                                       int64_t hi) const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags given on the command line whose name was never looked up, in
  /// name order. A caller that has read every flag it knows uses this to
  /// fail on a misspelled or retired flag instead of silently ignoring it.
  std::vector<std::string> Unread() const;

  /// Prints "unknown flag(s): --a --b" to stderr and exits 2 if Unread()
  /// is non-empty. Call it after the last flag read and before any work,
  /// so a misspelled or retired flag never runs the default silently.
  void ExitOnUnknownFlags() const;

 private:
  /// Marks `name` read and returns its value, or nullptr when absent.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::mutex read_mu_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

/// "12k" -> 12288, "4m"/"4M" -> 4 MiB, "1g" -> 1 GiB, plain numbers pass
/// through. Used for size-valued flags.
int64_t ParseSize(const std::string& text);

}  // namespace demsort

#endif  // DEMSORT_UTIL_FLAGS_H_
