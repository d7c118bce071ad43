#include "run/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "run/exit_codes.hpp"
#include "run/json.hpp"

namespace cohesion::run {

Args::Args(int argc, const char* const* argv, Key tool)
    : tool_(tool), tokens_(argv + std::min(argc, 1), argv + argc), claim_(tokens_.size(), kFree) {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] != "--help" && tokens_[i] != "-h") continue;
    help_ = true;
    claim_[i] = kLive;
  }
}

void Args::note(std::size_t pos, std::string problem) {
  if (pos >= problem_pos_) return;
  problem_pos_ = pos;
  problem_ = std::move(problem);
}

void Args::reject(Key flag, Key value, Key why) {
  std::size_t pos = 1;
  while (pos < tokens_.size() && (tokens_[pos - 1] != flag || tokens_[pos] != value)) ++pos;
  note(pos, "bad value for " + std::string(flag) + ": " + std::string(why));
}

std::vector<std::size_t> Args::take(Key spec, bool valued, std::string help) {
  decls_.push_back({Decl::flag, std::string(spec), std::move(help), section_});
  const Key name = name_of(spec);
  const bool live = section_ < 0 || section_ == given_;
  std::vector<std::size_t> given;  // positions of the values (of a switch itself)
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] != name || claim_[i] == kLive) continue;
    claim_[i] = live ? kLive : section_;
    if (valued && (i + 1 == tokens_.size() || tokens_[i + 1].starts_with("--"))) {
      if (live) note(i, std::string(name) + " needs a value");
      continue;
    }
    if (valued) claim_[++i] = kLive;
    if (live) given.push_back(i);
  }
  return given;
}

bool Args::mode(Key spec, std::string& into, Key help) {
  section_ = static_cast<int>(modes_.size());
  modes_.push_back(name_of(spec));
  const auto at = std::find(tokens_.begin(), tokens_.end(), modes_.back());
  if (at != tokens_.end() && given_ < 0) given_ = section_;
  if (at != tokens_.end() && given_ != section_) {
    note(static_cast<std::size_t>(at - tokens_.begin()),
         std::string(modes_.back()) + " cannot be combined with " + std::string(modes_[given_]));
  }
  read(spec, into, help);
  decls_.back().kind = Decl::mode;
  return given_ == section_;
}

void Args::operand(Key name, std::string& into, Key help, bool required) {
  decls_.push_back({Decl::operand, std::string(name), std::string(help), section_, &into});
  decls_.back().required = required;
}

void Args::operand(Key name, std::vector<std::string>& into, Key help) {
  decls_.push_back(
      {Decl::operand, std::string(name), std::string(help), section_, nullptr, &into, true});
}

std::string Args::check() {
  std::vector<Decl*> operands;
  for (Decl& d : decls_) {
    if (d.kind == Decl::operand && (d.section < 0 || d.section == given_)) operands.push_back(&d);
  }
  auto next = operands.begin();
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    const Key token = tokens_[i];
    if (claim_[i] >= 0) {
      const std::string text = std::string(token) + " is a " + std::string(modes_[claim_[i]]);
      note(i, given_ < 0 ? text + " flag"
                         : text + " flag, not a " + std::string(modes_[given_]) + " flag");
    } else if (claim_[i] == kLive) {
      continue;
    } else if (token.starts_with("--")) {
      std::string text = "unknown flag " + std::string(token);
      std::size_t best = 0;
      const Decl* nearest = nullptr;
      for (const Decl& d : decls_) {
        const std::size_t distance = edit_distance(token, name_of(d.spec));
        if (d.kind == Decl::operand || (nearest && distance >= best)) continue;
        best = distance;
        nearest = &d;
      }
      if (nearest) text += " (nearest: " + std::string(name_of(nearest->spec)) + ")";
      note(i, std::move(text));
    } else if (next == operands.end()) {
      note(i, "unexpected argument " + std::string(token));
    } else if ((*next)->many) {
      (*next)->many->emplace_back(token);
    } else {
      *(*next++)->one = token;
    }
  }
  for (; next != operands.end(); ++next) {
    if ((*next)->required && !((*next)->many && !(*next)->many->empty())) {
      note(tokens_.size(), "missing " + (*next)->spec);
    }
  }
  if (!modes_.empty() && given_ < 0) {
    std::string names;
    for (const Key m : modes_) names += (names.empty() ? "" : ", ") + std::string(m);
    note(tokens_.size(), "needs one of " + names);
  }
  return problem_;
}

void Args::done() {
  const std::string problem = check();
  if (help_) {
    std::cout << usage();
    std::exit(kExitSuccess);
  }
  if (problem.empty()) return;
  std::cerr << tool_ << ": " << problem << "; --help lists the flags\n";
  std::exit(kExitUsage);
}

std::string Args::usage() const {
  // One synopsis line per mode; then the declarations, modes at column 0
  // and what they declare indented by 2, the help texts in one column.
  std::string out;
  for (std::size_t s = 0; s < std::max<std::size_t>(modes_.size(), 1); ++s) {
    const int m = modes_.empty() ? -1 : static_cast<int>(s);
    out += std::string(s == 0 ? "usage: " : "       ") + std::string(tool_);
    bool flags = false;
    for (const Decl& d : decls_) {
      if (d.section != m) continue;
      flags |= d.kind == Decl::flag;
      if (d.kind == Decl::mode) out += " " + d.spec;
      if (d.kind != Decl::operand) continue;
      out += " " + (d.many ? d.spec + "..." : d.required ? d.spec : "[" + d.spec + "]");
    }
    out += flags ? " [flags]\n" : "\n";
  }
  std::size_t column = 0;
  for (const Decl& d : decls_) column = std::max(column, d.spec.size() + 4);
  column = std::min<std::size_t>(column, 28);
  for (const Decl& d : decls_) {
    const std::size_t used = (d.kind == Decl::mode ? 0 : 2) + d.spec.size();
    out += d.kind == Decl::mode || &d == &decls_.front() ? "\n" : "";
    out += (d.kind == Decl::mode ? "" : "  ") + d.spec;
    out += std::string(used + 2 <= column ? column - used : 2, ' ') + d.help + "\n";
  }
  return out;
}

}  // namespace cohesion::run
