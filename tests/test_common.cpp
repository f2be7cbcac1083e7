/**
 * @file
 * Unit tests for the common substrate: string formatting, config,
 * logging discipline, RNG, stats registry, and table rendering.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/config.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strfmt.h"
#include "common/table.h"

namespace graphite
{
namespace
{

// ----------------------------------------------------------------- strfmt

TEST(Strfmt, BasicSubstitution)
{
    EXPECT_EQ(strfmt("a {} c {}", 1, "b"), "a 1 c b");
    EXPECT_EQ(strfmt("no placeholders"), "no placeholders");
    EXPECT_EQ(strfmt("{}", 42), "42");
}

TEST(Strfmt, EscapedBraces)
{
    EXPECT_EQ(strfmt("{{}}"), "{}");
    EXPECT_EQ(strfmt("{{{}}}", 7), "{7}");
}

TEST(Strfmt, SurplusArgumentsAppended)
{
    // Never crashes; surplus args are made visible for diagnosis.
    EXPECT_EQ(strfmt("x", 1), "x [1]");
}

TEST(Strfmt, SurplusPlaceholdersLeftVerbatim)
{
    EXPECT_EQ(strfmt("{} {}", 1), "1 {}");
}

// ----------------------------------------------------------------- Config

TEST(Config, ParseSectionsAndComments)
{
    Config cfg;
    cfg.parseText("[a/b]\nkey = 7 ; trailing\n# full comment\nflag=true\n"
                  "[other]\nname = hello world\n");
    EXPECT_EQ(cfg.getInt("a/b/key"), 7);
    EXPECT_TRUE(cfg.getBool("a/b/flag"));
    EXPECT_EQ(cfg.getString("other/name"), "hello world");
}

TEST(Config, LaterDefinitionWins)
{
    Config cfg;
    cfg.parseText("k = 1\nk = 2\n");
    EXPECT_EQ(cfg.getInt("k"), 2);
    cfg.setOverride("k=3");
    EXPECT_EQ(cfg.getInt("k"), 3);
}

TEST(Config, MissingRequiredKeyIsFatal)
{
    Config cfg;
    EXPECT_THROW(cfg.getInt("nope"), FatalError);
}

TEST(Config, MalformedValuesAreFatal)
{
    Config cfg;
    cfg.parseText("x = abc\nb = maybe\n");
    EXPECT_THROW(cfg.getInt("x"), FatalError);
    EXPECT_THROW(cfg.getBool("b"), FatalError);
    EXPECT_THROW(cfg.parseText("[broken\n"), FatalError);
    EXPECT_THROW(cfg.parseText("novalue\n"), FatalError);
}

TEST(Config, TypedSetters)
{
    Config cfg;
    cfg.setInt("i", -5);
    cfg.setBool("b", false);
    cfg.setDouble("d", 2.5);
    EXPECT_EQ(cfg.getInt("i"), -5);
    EXPECT_FALSE(cfg.getBool("b"));
    EXPECT_DOUBLE_EQ(cfg.getDouble("d"), 2.5);
}

TEST(Config, DefaultTargetConfigMatchesTable1)
{
    Config cfg = defaultTargetConfig();
    // Paper Table 1 parameters.
    EXPECT_DOUBLE_EQ(cfg.getDouble("general/clock_frequency_ghz"), 1.0);
    EXPECT_EQ(cfg.getInt("perf_model/l1_dcache/cache_size"), 32768);
    EXPECT_EQ(cfg.getInt("perf_model/l1_dcache/associativity"), 8);
    EXPECT_EQ(cfg.getInt("perf_model/l2_cache/cache_size"), 3145728);
    EXPECT_EQ(cfg.getInt("perf_model/l2_cache/associativity"), 24);
    EXPECT_EQ(cfg.getInt("perf_model/l2_cache/line_size"), 64);
    EXPECT_EQ(cfg.getString("caching_protocol/directory_type"),
              "full_map");
    EXPECT_DOUBLE_EQ(
        cfg.getDouble("perf_model/dram/total_bandwidth_gbps"), 5.13);
}

TEST(Config, DefaultsAreGraphiteCfg)
{
    // graphite.cfg is the one copy of the defaults, compiled in by the
    // build; a stale embed fails here.
    Config file;
    file.parseFile(GRAPHITE_DEFAULT_CONFIG);
    EXPECT_EQ(defaultTargetConfig().toString(), file.toString());
}

TEST(Config, KeysWithPrefixAndRoundTrip)
{
    Config cfg;
    cfg.parseText("[s]\na=1\nb=2\n[t]\nc=3\n");
    EXPECT_EQ(cfg.keysWithPrefix("s/").size(), 2u);
    Config copy;
    copy.parseText(cfg.toString());
    EXPECT_EQ(copy.getInt("t/c"), 3);
}

// -------------------------------------------------------------------- Rng

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(456);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.nextBounded(17), 17u);
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(r.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ForkGivesIndependentStreams)
{
    Rng base(5);
    Rng f1 = base.fork(1);
    Rng f2 = base.fork(2);
    EXPECT_NE(f1.next(), f2.next());
    // Forking is deterministic.
    EXPECT_EQ(base.fork(1).next(), base.fork(1).next());
}

// ------------------------------------------------------------------ Stats

TEST(Stats, RegisterAndQuery)
{
    StatsRegistry reg;
    atomic_stat_t a{5}, b{7};
    reg.registerCounter("tile.0.misses", &a);
    reg.registerCounter("tile.1.misses", &b);
    EXPECT_EQ(reg.get("tile.0.misses"), 5u);
    a = 6;
    EXPECT_EQ(reg.get("tile.0.misses"), 6u);
    EXPECT_TRUE(reg.has("tile.1.misses"));
    EXPECT_FALSE(reg.has("tile.2.misses"));
    EXPECT_EQ(reg.sumMatching("tile.", ".misses"), 13u);
    EXPECT_EQ(reg.names().size(), 2u);
}

TEST(Stats, UnknownCounterIsFatal)
{
    StatsRegistry reg;
    EXPECT_THROW(reg.get("missing"), FatalError);
}

// ------------------------------------------------------------------ Table

TEST(Table, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("name    value"), std::string::npos);
    EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Table, RaggedRowsArePadded)
{
    TextTable t;
    t.header({"a", "b", "c"});
    t.row({"only"});
    EXPECT_NO_THROW(t.render());
}

} // namespace
} // namespace graphite
