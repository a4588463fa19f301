#include "patterns/builtin.h"

#include <cstdio>
#include <cstdlib>

#include "regex/parser.h"
#include "util/rng.h"

namespace mfa::patterns {

namespace {

/// Deterministic word factory. Words are lowercase so they never collide
/// with regex metacharacters, and random enough that segment overlap
/// (suffix-of-A = prefix-of-B, or A inside B) is rare — mirroring real rule
/// content where decomposition succeeds for most boundaries.
class WordGen {
 public:
  explicit WordGen(std::uint64_t seed) : rng_(seed) {}

  std::string word(std::size_t lo, std::size_t hi) {
    return rng_.lower_string(rng_.between(lo, hi));
  }

  /// A security-flavoured token, occasionally, else a random word.
  std::string token(std::size_t lo, std::size_t hi) {
    static const char* kFlavor[] = {
        "cmdzexe",   "binzsh",   "passwd",   "uid0",     "selectz",  "unionall",
        "xp9090",    "shell32",  "wget",     "backdoor", "rootkit",  "payload",
        "overflow",  "exploit",  "admin",    "loginok",  "sessionid", "cookie",
    };
    if (rng_.chance(0.3)) return kFlavor[rng_.below(std::size(kFlavor))];
    return word(lo, hi);
  }

  util::Rng& rng() { return rng_; }

 private:
  util::Rng rng_;
};

PatternSet finish(std::string name, std::string description,
                  std::vector<std::string> sources) {
  PatternSet set;
  set.name = std::move(name);
  set.description = std::move(description);
  set.sources = std::move(sources);
  std::uint32_t id = 1;
  for (const auto& src : set.sources) {
    regex::ParseResult r = regex::parse(src);
    if (!r.ok()) {
      std::fprintf(stderr, "builtin set %s: bad pattern \"%s\": %s\n", set.name.c_str(),
                   src.c_str(), r.error->message.c_str());
      std::abort();
    }
    set.patterns.push_back(nfa::PatternInput{*std::move(r.regex), id++});
  }
  return set;
}

}  // namespace

PatternSet make_c7p() {
  // 11 regexes, multiple dot-stars per pattern: the worst-case vendor set.
  // Paper: NFA 295, DFA 244,366, MFA 104 — DFA ~2000x MFA.
  WordGen g(0xC7C7C7);
  std::vector<std::string> sources;
  for (int i = 0; i < 4; ++i)  // two dot-stars each
    sources.push_back(".*" + g.token(4, 6) + ".*" + g.word(4, 6) + ".*" + g.word(4, 6));
  for (int i = 0; i < 4; ++i)  // one dot-star each
    sources.push_back(".*" + g.token(4, 7) + ".*" + g.word(4, 7));
  sources.push_back(".*" + g.token(5, 8));  // plain strings
  sources.push_back(".*" + g.word(5, 8));
  sources.push_back(".*" + g.word(5, 8));
  return finish("C7p", "vendor set, heavy multi-dot-star (proprietary analog)",
                std::move(sources));
}

PatternSet make_c8() {
  // 8 regexes, a moderate mix of dot-star and almost-dot-star.
  // Paper: NFA 99, DFA 3,786, MFA 341.
  WordGen g(0xC8C8C8);
  std::vector<std::string> sources;
  for (int i = 0; i < 3; ++i)
    sources.push_back(".*" + g.token(4, 6) + ".*" + g.word(4, 6));
  for (int i = 0; i < 3; ++i)
    sources.push_back(".*" + g.token(4, 6) + "[^\\r\\n]*" + g.word(4, 6));
  sources.push_back(".*" + g.token(6, 9));
  sources.push_back(".*" + g.word(6, 9) + g.word(3, 4) + "?" + g.word(2, 3));
  return finish("C8", "vendor set, dot-star and almost-dot-star mix (analog)",
                std::move(sources));
}

PatternSet make_c10() {
  // 10 regexes with short segments and many dot-stars; the MFA ends up
  // smaller than the NFA. Paper: NFA 123, DFA 19,508, MFA 81.
  WordGen g(0xC10C10);
  std::vector<std::string> sources;
  for (int i = 0; i < 6; ++i)
    sources.push_back(".*" + g.token(3, 5) + ".*" + g.word(3, 5));
  for (int i = 0; i < 2; ++i)
    sources.push_back(".*" + g.word(3, 4) + ".*" + g.word(3, 4) + ".*" + g.word(3, 4));
  sources.push_back(".*" + g.token(4, 6));
  sources.push_back(".*" + g.word(4, 6));
  return finish("C10", "vendor set, short segments, many dot-stars (analog)",
                std::move(sources));
}

namespace {

/// Shared recipe for the Snort-style sets: anchored HTTP-ish headers with
/// almost-dot-star line constraints, long content strings, a few dot-stars.
PatternSet make_s_like(const char* name, std::uint64_t seed, int anchored_ads,
                       int unanchored_ads, int long_strings, int dot_stars,
                       const char* description) {
  WordGen g(seed);
  std::vector<std::string> sources;
  static const char* kMethods[] = {"GET ", "POST ", "HEAD ", "PUT "};
  static const char* kHeaders[] = {"User-Agent: ", "Host: ", "Cookie: ", "Referer: "};
  for (int i = 0; i < anchored_ads; ++i) {
    std::string src = "^";
    src += kMethods[g.rng().below(std::size(kMethods))];
    src += "[^\\r\\n]*";
    src += g.token(5, 9);
    // A second line-scoped segment occasionally; each such pattern adds a
    // persistent "first token seen on this line" bit to the DFA state, so
    // keep these rare or the S-set DFAs outgrow the paper's sizes.
    if (g.rng().chance(0.15)) {
      src += "[^\\r\\n]*";
      src += g.word(4, 7);
    }
    sources.push_back(std::move(src));
  }
  for (int i = 0; i < unanchored_ads; ++i) {
    std::string src = ".*";
    src += kHeaders[g.rng().below(std::size(kHeaders))];
    src += "[^\\r\\n]*";
    src += g.token(5, 9);
    sources.push_back(std::move(src));
  }
  for (int i = 0; i < long_strings; ++i)
    sources.push_back(".*" + g.token(6, 10) + g.word(6, 10));
  for (int i = 0; i < dot_stars; ++i)
    sources.push_back(".*" + g.token(5, 8) + ".*" + g.word(5, 8));
  return finish(name, description, std::move(sources));
}

}  // namespace

// The S recipes keep the unanchored multiplier count (dot-star +
// almost-dot-star patterns that each roughly double the DFA) low enough to
// land near the paper's DFA sizes; anchored patterns add states without
// multiplying.

PatternSet make_s24() {
  // Paper: 24 regexes, NFA 702, DFA 10,257, MFA 766.
  return make_s_like("S24", 0x524524, 13, 2, 7, 2,
                     "Snort-style: anchored HTTP + almost-dot-star (analog)");
}

PatternSet make_s31p() {
  // Paper: 40 regexes, NFA 1,436, DFA 39,977, MFA 1,584.
  return make_s_like("S31p", 0x531531, 24, 2, 12, 2,
                     "Snort-style with restored commented rules (analog)");
}

PatternSet make_s34() {
  // Paper: 34 regexes, NFA 1,003, DFA 12,486, MFA 1,499.
  return make_s_like("S34", 0x534534, 18, 2, 13, 1,
                     "Snort-style: anchored HTTP + long strings (analog)");
}

PatternSet make_b217p() {
  // 224 patterns: mostly unanchored strings plus enough multi-dot-star
  // regexes that plain DFA construction explodes past any practical cap.
  // Paper: NFA 2,553, DFA unconstructable, MFA 5,332.
  WordGen g(0xB217B217);
  std::vector<std::string> sources;
  for (int i = 0; i < 204; ++i)
    sources.push_back(".*" + g.token(4, 8) + g.word(4, 8));
  for (int i = 0; i < 12; ++i)
    sources.push_back(".*" + g.token(4, 6) + ".*" + g.word(4, 6) + ".*" + g.word(4, 6));
  for (int i = 0; i < 8; ++i)
    sources.push_back(".*" + g.token(4, 6) + "[^\\r\\n]*" + g.word(4, 6));
  return finish("B217p", "Bro-style: many strings + a few dot-stars (analog)",
                std::move(sources));
}

namespace {

/// The seven sets in the paper's Table V order, by name, so a lookup builds
/// only the set it returns.
struct NamedSet {
  const char* name;
  PatternSet (*make)();
};
constexpr NamedSet kBuiltinSets[] = {
    {"B217p", make_b217p}, {"C7p", make_c7p}, {"C8", make_c8},
    {"C10", make_c10},     {"S24", make_s24}, {"S31p", make_s31p},
    {"S34", make_s34},
};

}  // namespace

std::vector<PatternSet> builtin_sets() {
  std::vector<PatternSet> sets;
  for (const NamedSet& s : kBuiltinSets) sets.push_back(s.make());
  return sets;
}

PatternSet set_by_name(const std::string& name) {
  for (const NamedSet& s : kBuiltinSets)
    if (name == s.name) return s.make();
  std::fprintf(stderr, "unknown builtin pattern set: %s\n", name.c_str());
  std::abort();
}

PatternSet make_custom(std::string name, std::vector<std::string> sources) {
  return finish(std::move(name), "custom", std::move(sources));
}

}  // namespace mfa::patterns
