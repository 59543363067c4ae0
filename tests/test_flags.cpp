#include "common/flags.h"

#include <gtest/gtest.h>

#include <utility>

namespace ici {
namespace {

struct Bound {
  std::uint64_t nodes = 10;
  double fraction = 0.5;
  std::string name = "default";
  bool verbose = false;
};

FlagParser make_parser(Bound& b) {
  FlagParser p("test", "test parser");
  p.add_uint("nodes", &b.nodes, "node count");
  p.add_double("fraction", &b.fraction, "a fraction");
  p.add_string("name", &b.name, "a name");
  p.add_bool("verbose", &b.verbose, "chatty");
  return p;
}

bool run(FlagParser& p, std::vector<const char*> args, std::string* err = nullptr) {
  args.insert(args.begin(), "prog");
  return p.parse(static_cast<int>(args.size()), args.data(), err);
}

TEST(Flags, DefaultsSurviveEmptyArgs) {
  Bound b;
  FlagParser p = make_parser(b);
  EXPECT_TRUE(run(p, {}));
  EXPECT_EQ(b.nodes, 10u);
  EXPECT_EQ(b.name, "default");
  EXPECT_FALSE(b.verbose);
}

TEST(Flags, EqualsForm) {
  Bound b;
  FlagParser p = make_parser(b);
  EXPECT_TRUE(run(p, {"--nodes=42", "--fraction=0.25", "--name=x", "--verbose=true"}));
  EXPECT_EQ(b.nodes, 42u);
  EXPECT_DOUBLE_EQ(b.fraction, 0.25);
  EXPECT_EQ(b.name, "x");
  EXPECT_TRUE(b.verbose);
}

TEST(Flags, SpaceForm) {
  Bound b;
  FlagParser p = make_parser(b);
  EXPECT_TRUE(run(p, {"--nodes", "7", "--name", "hello"}));
  EXPECT_EQ(b.nodes, 7u);
  EXPECT_EQ(b.name, "hello");
}

TEST(Flags, BareBoolSetsTrue) {
  Bound b;
  FlagParser p = make_parser(b);
  EXPECT_TRUE(run(p, {"--verbose"}));
  EXPECT_TRUE(b.verbose);
}

TEST(Flags, BoolFalseForm) {
  Bound b;
  b.verbose = true;
  FlagParser p("t", "t");
  p.add_bool("verbose", &b.verbose, "chatty");
  std::vector<const char*> args = {"prog", "--verbose=false"};
  EXPECT_TRUE(p.parse(2, args.data(), nullptr));
  EXPECT_FALSE(b.verbose);
}

TEST(Flags, UnknownFlagFails) {
  Bound b;
  FlagParser p = make_parser(b);
  std::string err;
  EXPECT_FALSE(run(p, {"--bogus=1"}, &err));
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
}

TEST(Flags, BadValueFails) {
  // A signed or overflowing uint must not wrap to ~1.8e19, and NaN must not
  // slip past a caller's range check.
  Bound b;
  FlagParser p = make_parser(b);
  std::string err;
  for (const char* arg :
       {"--nodes=abc", "--fraction=xyz", "--verbose=maybe", "--nodes=-5", "--nodes=-0",
        "--nodes=+5", "--nodes= 5", "--nodes=18446744073709551616", "--fraction=nan",
        "--fraction=-nan", "--fraction=inf", "--fraction=-inf"}) {
    EXPECT_FALSE(run(p, {arg}, &err)) << arg;
    EXPECT_NE(err.find("bad value"), std::string::npos) << arg;
  }
  EXPECT_FALSE(run(p, {"--nodes", "-5"}, &err));
  EXPECT_EQ(b.nodes, 10u);
  EXPECT_DOUBLE_EQ(b.fraction, 0.5);
  EXPECT_TRUE(run(p, {"--nodes=18446744073709551615", "--fraction=-0.25"}, &err)) << err;
  EXPECT_EQ(b.nodes, 18446744073709551615u);
  EXPECT_DOUBLE_EQ(b.fraction, -0.25);
}

TEST(Flags, MissingValueFails) {
  Bound b;
  FlagParser p = make_parser(b);
  std::string err;
  EXPECT_FALSE(run(p, {"--nodes"}, &err));
  EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST(Flags, PositionalArgumentFails) {
  Bound b;
  FlagParser p = make_parser(b);
  std::string err;
  EXPECT_FALSE(run(p, {"stray"}, &err));
  EXPECT_NE(err.find("positional"), std::string::npos);
}

TEST(Flags, HelpReturnsFalseWithEmptyError) {
  Bound b;
  FlagParser p = make_parser(b);
  std::string err = "sentinel";
  EXPECT_FALSE(run(p, {"--help"}, &err));
  EXPECT_TRUE(err.empty());
}

TEST(Flags, BenchFlagGroupsRegisterOnlyWhatTheyName) {
  // A binary that does not read a shared flag must reject it instead of
  // silently running its default configuration.
  const std::pair<unsigned, const char*> cases[] = {
      {kStoreFlags, "--store=disk"}, {kSeedFlags, "--seed=9"}, {kIngestFlags, "--tx-rate=5"}};
  for (const auto& [group, arg] : cases) {
    std::string err;
    BenchOptions base_opts;
    FlagParser base("t", "t");
    add_bench_flags(base, &base_opts);
    EXPECT_FALSE(run(base, {"--smoke", "--threads=1", arg}, &err)) << arg;
    EXPECT_NE(err.find("unknown flag"), std::string::npos) << arg;

    BenchOptions opts;
    FlagParser with_group("t", "t");
    add_bench_flags(with_group, &opts, group);
    EXPECT_TRUE(run(with_group, {"--smoke", "--threads=1", arg}, &err)) << arg << ": " << err;
  }
  BenchOptions opts;
  FlagParser p("t", "t");
  add_bench_flags(p, &opts, kStoreFlags | kSeedFlags | kIngestFlags);
  EXPECT_TRUE(run(p, {"--store=disk", "--seed=9", "--tx-rate=5"}));
  EXPECT_EQ(opts.store, "disk");
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_DOUBLE_EQ(opts.tx_rate, 5.0);
}

TEST(Flags, UsageListsFlagsAndDefaults) {
  Bound b;
  FlagParser p = make_parser(b);
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("default: 10"), std::string::npos);
  EXPECT_NE(usage.find("node count"), std::string::npos);
}

}  // namespace
}  // namespace ici
