#include "patterns/builtin.h"

#include <gtest/gtest.h>

#include "regex/ast.h"
#include "split/splitter.h"

namespace mfa::patterns {
namespace {

TEST(Patterns, AllSevenSetsPresent) {
  const auto sets = builtin_sets();
  ASSERT_EQ(sets.size(), 7u);
  EXPECT_EQ(sets[0].name, "B217p");
  EXPECT_EQ(sets[1].name, "C7p");
  EXPECT_EQ(sets[6].name, "S34");
}

TEST(Patterns, RegexCountsMatchTableV) {
  EXPECT_EQ(make_b217p().patterns.size(), 224u);
  EXPECT_EQ(make_c7p().patterns.size(), 11u);
  EXPECT_EQ(make_c8().patterns.size(), 8u);
  EXPECT_EQ(make_c10().patterns.size(), 10u);
  EXPECT_EQ(make_s24().patterns.size(), 24u);
  EXPECT_EQ(make_s31p().patterns.size(), 40u);
  EXPECT_EQ(make_s34().patterns.size(), 34u);
}

TEST(Patterns, DeterministicGeneration) {
  const PatternSet a = make_c7p();
  const PatternSet b = make_c7p();
  ASSERT_EQ(a.sources.size(), b.sources.size());
  for (std::size_t i = 0; i < a.sources.size(); ++i) EXPECT_EQ(a.sources[i], b.sources[i]);
}

TEST(Patterns, IdsAreDenseFromOne) {
  const PatternSet s = make_s24();
  for (std::size_t i = 0; i < s.patterns.size(); ++i)
    EXPECT_EQ(s.patterns[i].id, i + 1);
}

TEST(Patterns, CSetsAreDotStarHeavy) {
  // Sec. V-A: C patterns use dot-star/almost-dot-star heavily.
  for (const auto& set : {make_c7p(), make_c8(), make_c10()}) {
    const split::SplitResult r = split::split_patterns(set.patterns);
    EXPECT_GT(r.stats.patterns_decomposed * 2, set.patterns.size()) << set.name;
  }
}

TEST(Patterns, SSetsHaveAnchoredComponents) {
  // Sec. V-A: S patterns often have an anchored component.
  for (const auto& set : {make_s24(), make_s31p(), make_s34()}) {
    std::size_t anchored = 0;
    for (const auto& p : set.patterns) anchored += p.regex.anchored ? 1 : 0;
    EXPECT_GT(anchored, set.patterns.size() / 4) << set.name;
  }
}

TEST(Patterns, B217pIsMostlyStrings) {
  const PatternSet set = make_b217p();
  const split::SplitResult r = split::split_patterns(set.patterns);
  // Most patterns pass through whole; a minority decompose.
  EXPECT_LT(r.stats.patterns_decomposed, 40u);
  EXPECT_GT(r.stats.patterns_decomposed, 5u);
}

TEST(Patterns, SetByNameBuildsTheSameSetAsBuiltinSets) {
  for (const PatternSet& want : builtin_sets()) {
    const PatternSet got = set_by_name(want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.description, want.description);
    EXPECT_EQ(got.sources, want.sources) << want.name;
    ASSERT_EQ(got.patterns.size(), want.patterns.size()) << want.name;
    for (std::size_t i = 0; i < want.patterns.size(); ++i) {
      EXPECT_EQ(got.patterns[i].id, want.patterns[i].id);
      EXPECT_EQ(got.patterns[i].regex.anchored, want.patterns[i].regex.anchored);
      EXPECT_EQ(regex::to_source(got.patterns[i].regex),
                regex::to_source(want.patterns[i].regex))
          << want.name << " pattern " << i;
    }
  }
}

TEST(Patterns, SetByNameAndCustom) {
  EXPECT_EQ(set_by_name("C10").patterns.size(), 10u);
  const PatternSet custom = make_custom("mini", {".*ab.*cd", ".*ef"});
  EXPECT_EQ(custom.patterns.size(), 2u);
  EXPECT_EQ(custom.patterns[1].id, 2u);
}

}  // namespace
}  // namespace mfa::patterns
