#include "common/config.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace vcdl {
namespace {

Config parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens);
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, FromArgsParsesKeyValues) {
  const char* argv[] = {"prog", "alpha=0.95", "clients=5", "store=redis"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", 0.0), 0.95);
  EXPECT_EQ(cfg.get_int("clients", 0), 5);
  EXPECT_EQ(cfg.get_string("store", ""), "redis");
}

TEST(Config, FromArgsRejectsBareToken) {
  const char* argv[] = {"prog", "nonsense"};
  EXPECT_THROW(Config::from_args(2, argv), InvalidArgument);
}

TEST(Config, FallbacksForMissingKeys) {
  const Config cfg;
  EXPECT_EQ(cfg.get_string("x", "def"), "def");
  EXPECT_EQ(cfg.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("x", true));
}

TEST(Config, BoolVariants) {
  const Config cfg = parse(
      {"a=true", "b=FALSE", "c=1", "d=0", "e=Yes", "f=no", "g=on", "h=off"});
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_TRUE(cfg.get_bool("e", false));
  EXPECT_FALSE(cfg.get_bool("f", true));
  EXPECT_TRUE(cfg.get_bool("g", false));
  EXPECT_FALSE(cfg.get_bool("h", true));
}

TEST(Config, TypeErrorsThrow) {
  const Config cfg = parse({"n=abc", "f=1.2.3", "b=maybe"});
  EXPECT_THROW(cfg.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(cfg.get_double("f", 0.0), InvalidArgument);
  EXPECT_THROW(cfg.get_bool("b", false), InvalidArgument);
}

TEST(Config, IntWithTrailingGarbageThrows) {
  const Config cfg = parse({"n=12x"});
  EXPECT_THROW(cfg.get_int("n", 0), InvalidArgument);
}

TEST(Config, LaterValueWins) {
  const Config cfg = parse({"k=1", "k=2"});
  EXPECT_EQ(cfg.get_int("k", 0), 2);
}

TEST(Config, ValueMayContainEquals) {
  const Config cfg = parse({"expr=a=b"});
  EXPECT_EQ(cfg.get_string("expr", ""), "a=b");
}

// A key that no getter read is one the program does not know.
TEST(Config, RejectUnreadNamesEveryUnreadKey) {
  const Config cfg = parse({"epochs=2", "json=out.json", "nosuchkey=1",
                            "epoch=4"});
  EXPECT_EQ(cfg.get_int("epochs", 1), 2);
  EXPECT_EQ(cfg.get_string("json", ""), "out.json");
  EXPECT_FALSE(cfg.get_bool("smoke", false));  // absent keys need no value
  try {
    cfg.reject_unread();
    ADD_FAILURE() << "two unread keys accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nosuchkey'"), std::string::npos) << what;
    EXPECT_NE(what.find("'epoch'"), std::string::npos) << what;
    EXPECT_EQ(what.find("epochs"), std::string::npos) << what;
    EXPECT_EQ(what.find("json"), std::string::npos) << what;
  }
  (void)cfg.get_string("nosuchkey", "");
  (void)cfg.get_int("epoch", 0);
  EXPECT_NO_THROW(cfg.reject_unread());
}

}  // namespace
}  // namespace vcdl
