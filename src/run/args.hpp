// Declarative command lines, the argv counterpart of run::Fields. Each flag
// is declared where it is read: its type is the variable it fills, its
// default that variable's value, plus one line of help.
//
//   run::Args args(argc, argv, "cohesion_run");
//   args.read("--threads N", options.threads, "worker threads");
//   args.operand("SPEC", spec_path, "experiment spec (JSON)");
//   args.done();
//
// done() exits 2 (run::kExitUsage) with `<tool>: <problem>` on stderr for an
// unknown flag (naming the nearest declared one), a missing value, a value
// that does not parse in full, a sign on an unsigned flag or a non-finite
// double; --help (or -h) prints the usage generated from the declarations.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace cohesion::run {

/// Parse all of `text` as an unsigned integer or a finite double: no sign
/// on an unsigned, no space, nothing left over ("2x", "1e3" for an
/// integer), no overflow; `out` is left alone on failure. The one number
/// reader behind the flags, `Shard::parse`, `FaultPlan::parse` and the
/// serve port.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

class Args {
  using Key = std::string_view;

 public:
  Args(int argc, const char* const* argv, Key tool);

  /// Declare and read a flag: `spec` is the flag, then a placeholder for its
  /// value ("--threads N"). `into` is a bool (a switch), std::string, an
  /// unsigned integer, double, or std::vector<std::string> (repeatable,
  /// every value kept). Given twice, the last value wins.
  template <typename T>
  void read(Key spec, T& into, Key help);
  /// Begin a mode section (`--listen ADDR`): exactly one mode must be given,
  /// and what is declared after it applies only in that mode. Returns
  /// whether it is the mode given.
  bool mode(Key spec, std::string& into, Key help);
  /// Declare an operand, a token that is neither a flag nor a flag's value,
  /// filled by check() in order; a vector takes the rest, at least one.
  void operand(Key name, std::string& into, Key help, bool required = true);
  void operand(Key name, std::vector<std::string>& into, Key help);
  /// Record `bad value for <flag>: <why>` for a value given to `flag` that
  /// the caller's own parser refused.
  void reject(Key flag, Key value, Key why);

  /// Fill the operands; returns the first problem in argv order, or "".
  std::string check();
  /// --help: usage on stdout, exit 0; a problem: stderr, exit 2.
  void done();
  [[nodiscard]] std::string usage() const;

 private:
  struct Decl {
    enum Kind { flag, mode, operand } kind;
    std::string spec, help;
    int section;                 // -1 before the first mode
    std::string* one = nullptr;  // operand targets
    std::vector<std::string>* many = nullptr;
    bool required = false;
  };
  static constexpr int kFree = -2, kLive = -1;  // claims; >= 0: an idle mode's flag

  std::vector<std::size_t> take(Key spec, bool valued, std::string help);
  void note(std::size_t pos, std::string problem);
  static Key name_of(Key spec) { return spec.substr(0, spec.find(' ')); }

  Key tool_;
  std::vector<Key> tokens_;
  std::vector<int> claim_;
  std::vector<Decl> decls_;
  std::vector<Key> modes_;
  int section_ = -1, given_ = -1;
  bool help_ = false;
  std::size_t problem_pos_ = static_cast<std::size_t>(-1);
  std::string problem_;
};

template <typename T>
void Args::read(Key spec, T& into, Key help) {
  std::string def;  // the default, shown in the usage
  if constexpr (std::is_same_v<T, std::string>) {
    def = into;
  } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    char buf[32];
    def.assign(buf, std::to_chars(buf, buf + sizeof buf, into).ptr);
  }
  const auto given = take(spec, !std::is_same_v<T, bool>,
                          std::string(help) + (def.empty() ? "" : " (default " + def + ")"));
  for (const std::size_t pos : given) {
    const Key text = tokens_[pos];
    if constexpr (std::is_same_v<T, bool>) {
      into = true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      into = text;
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      into.emplace_back(text);
    } else {
      static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
      if (!parse_whole(text, into)) {
        const char* expected =
            std::is_floating_point_v<T> ? "a finite number" : "an unsigned integer";
        reject(name_of(spec), text, std::string(text) + " (expected " + expected + ")");
      }
    }
  }
}

}  // namespace cohesion::run
