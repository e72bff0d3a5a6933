// Tests for the text configuration format.
#include "domains/config_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "domains/deployment.h"
#include "domains/topologies.h"

namespace cmom::domains {
namespace {

TEST(ConfigIo, ParsesTheFigure2File) {
  const char* text = R"(
# an 8-server MOM, Figure 2 of the paper
servers = 1 2 3 4 5 6 7 8
stamp_mode = updates
domain 0 = 1 2 3
domain 1 = 4 5
domain 2 = 7 8
domain 3 = 3 5 6 7
)";
  auto config = ParseMomConfig(text);
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config.value().servers.size(), 8u);
  EXPECT_EQ(config.value().domains.size(), 4u);
  EXPECT_EQ(config.value().stamp_mode, clocks::StampMode::kUpdates);
  EXPECT_FALSE(config.value().allow_cyclic_domain_graph);
  EXPECT_TRUE(Deployment::Create(config.value()).ok());
}

TEST(ConfigIo, DenseServerShorthand) {
  auto config = ParseMomConfig("servers = 5\ndomain 0 = 0 1 2 3 4\n");
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config.value().servers.size(), 5u);
  EXPECT_EQ(config.value().servers[4], ServerId(4));
}

TEST(ConfigIo, FullMatrixModeAndCyclicFlag) {
  auto config = ParseMomConfig(
      "servers = 2\nstamp_mode = full\nallow_cyclic = true\n"
      "domain 0 = 0 1\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().stamp_mode, clocks::StampMode::kFullMatrix);
  EXPECT_TRUE(config.value().allow_cyclic_domain_graph);
}

TEST(ConfigIo, CausalCoreDefaultAndOverrides) {
  auto config = ParseMomConfig(
      "servers = 6\n"
      "causal_core = hybrid\n"
      "causal_core 1 = matrix\n"
      "domain 0 = 0 1 2\n"
      "domain 1 = 2 3 4\n"
      "domain 2 = 4 5\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config.value().causal_core, clocks::CausalCoreKind::kHybrid);
  EXPECT_EQ(config.value().CoreFor(DomainId(0)),
            clocks::CausalCoreKind::kHybrid);
  EXPECT_EQ(config.value().CoreFor(DomainId(1)),
            clocks::CausalCoreKind::kMatrix);

  // Format -> parse round trip preserves both the default and the
  // override, and omitting the key means matrix.
  const std::string text = FormatMomConfig(config.value());
  auto reparsed = ParseMomConfig(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed.value().causal_core, clocks::CausalCoreKind::kHybrid);
  EXPECT_EQ(reparsed.value().CoreFor(DomainId(1)),
            clocks::CausalCoreKind::kMatrix);
  auto plain = ParseMomConfig("servers = 2\ndomain 0 = 0 1\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().causal_core, clocks::CausalCoreKind::kMatrix);
  EXPECT_TRUE(plain.value().causal_core_overrides.empty());
}

TEST(ConfigIo, CausalCoreErrors) {
  // Unknown kinds, duplicate overrides and malformed lines are
  // rejected with the line number.
  EXPECT_FALSE(ParseMomConfig("servers = 2\ncausal_core = vector\n"
                              "domain 0 = 0 1\n")
                   .ok());
  // The Drummond-Barbosa reduced core is retired: the paper's Updates
  // stamps match or beat it in every measured cell.
  EXPECT_FALSE(ParseMomConfig("servers = 2\ncausal_core = reduced\n"
                              "domain 0 = 0 1\n")
                   .ok());
  EXPECT_FALSE(ParseMomConfig("servers = 2\ncausal_core 0 = matrix\n"
                              "causal_core 0 = hybrid\ndomain 0 = 0 1\n")
                   .ok());
  EXPECT_FALSE(
      ParseMomConfig("servers = 2\ncausal_core 0 =\ndomain 0 = 0 1\n").ok());
}

TEST(ConfigIo, ErrorsCarryLineNumbers) {
  auto missing = ParseMomConfig("domain 0 = 0\n");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("servers"), std::string::npos);

  auto bad_token = ParseMomConfig("servers = x\n");
  ASSERT_FALSE(bad_token.ok());
  EXPECT_NE(bad_token.status().message().find("line 1"), std::string::npos);

  auto unknown = ParseMomConfig("servers = 2\nfrobnicate = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("line 2"), std::string::npos);

  EXPECT_FALSE(ParseMomConfig("servers = 2\nservers = 2\n").ok());
  EXPECT_FALSE(ParseMomConfig("servers = 2\ndomain 0 = \n").ok());
  EXPECT_FALSE(ParseMomConfig("servers = 2\nstamp_mode = vector\n").ok());
  EXPECT_FALSE(ParseMomConfig("servers = 2\nallow_cyclic = maybe\n").ok());
}

TEST(ConfigIo, RoundTripsEveryCanonicalTopology) {
  for (const MomConfig& original :
       {topologies::Flat(5), topologies::Bus(3, 4), topologies::Daisy(4, 3),
        topologies::Tree(2, 4, 2), topologies::Ring(3, 3)}) {
    const std::string text = FormatMomConfig(original);
    auto parsed = ParseMomConfig(text);
    ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status();
    EXPECT_EQ(parsed.value().servers, original.servers);
    EXPECT_EQ(parsed.value().stamp_mode, original.stamp_mode);
    EXPECT_EQ(parsed.value().allow_cyclic_domain_graph,
              original.allow_cyclic_domain_graph);
    ASSERT_EQ(parsed.value().domains.size(), original.domains.size());
    for (std::size_t d = 0; d < original.domains.size(); ++d) {
      EXPECT_EQ(parsed.value().domains[d].id, original.domains[d].id);
      EXPECT_EQ(parsed.value().domains[d].members,
                original.domains[d].members);
    }
  }
}

TEST(ConfigIo, NonDenseIdsFormatAsExplicitList) {
  MomConfig config;
  config.servers = {ServerId(3), ServerId(7)};
  config.domains = {{DomainId(0), {ServerId(3), ServerId(7)}}};
  const std::string text = FormatMomConfig(config);
  EXPECT_NE(text.find("servers = 3 7"), std::string::npos);
  auto parsed = ParseMomConfig(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().servers, config.servers);
}

TEST(ConfigIo, TrafficProfileRoundTrip) {
  TrafficProfile traffic(4);
  traffic.set(0, 1, 12.5);
  traffic.set(2, 3, 0.25);
  traffic.set(3, 0, 100);
  const std::string text = FormatTrafficProfile(traffic);
  auto parsed = ParseTrafficProfile(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().server_count(), 4u);
  EXPECT_DOUBLE_EQ(parsed.value().at(0, 1), 12.5);
  EXPECT_DOUBLE_EQ(parsed.value().at(2, 3), 0.25);
  EXPECT_DOUBLE_EQ(parsed.value().at(3, 0), 100);
  EXPECT_DOUBLE_EQ(parsed.value().Total(), traffic.Total());
}

TEST(ConfigIo, TrafficProfileParsing) {
  auto parsed = ParseTrafficProfile("# comment\n0 1 5\n1 0 2.5\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().server_count(), 2u);
  EXPECT_DOUBLE_EQ(parsed.value().Between(0, 1), 7.5);

  EXPECT_FALSE(ParseTrafficProfile("0 1\n").ok());
  EXPECT_FALSE(ParseTrafficProfile("0 1 abc\n").ok());
  EXPECT_FALSE(ParseTrafficProfile("0 1 -3\n").ok());
  // Repeated pairs accumulate.
  auto repeated = ParseTrafficProfile("0 1 5\n0 1 5\n");
  ASSERT_TRUE(repeated.ok());
  EXPECT_DOUBLE_EQ(repeated.value().at(0, 1), 10);
}

TEST(ConfigIo, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cmom_config_io.cfg")
          .string();
  const MomConfig original = topologies::Bus(2, 3);
  ASSERT_TRUE(SaveMomConfig(original, path).ok());
  auto loaded = LoadMomConfig(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().servers, original.servers);
  std::filesystem::remove(path);

  EXPECT_FALSE(LoadMomConfig("/nonexistent/path.cfg").ok());
  EXPECT_FALSE(LoadTrafficProfile("/nonexistent/traffic.txt").ok());
}

}  // namespace
}  // namespace cmom::domains
